import re

import numpy as np
import pytest

from densegrover import coding, grover
from densegrover.bell import bell_state, from_bell_coords, to_bell_coords
from densegrover.coding import (
    AncillaMessage,
    decode,
    encoder,
    encoder_set,
    run_ancilla_protocol,
    run_protocol,
    table2,
)
from densegrover.grover import UChoice, build_G, build_G_inverse, preset
from densegrover.qstate import (
    BasisLabel,
    apply,
    equal_up_to_phase,
    ket_from_basis,
    measure_basis,
    partial_trace,
)

RNG_SEED = 424242


def starting_bell_column(c):
    """1-based index of the Bell state G(c) makes from up-up, asserted pure."""
    coords = run_protocol(c, 1).starting_bell.coords
    column = int(np.argmax(np.abs(coords)))
    assert abs(coords[column]) >= 1.0 - 1e-9
    return column + 1


def _ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _rx(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def on_spin_2(block):
    return np.kron(_I2, block)


class TestEncoderSets:
    def test_y_set_definitions(self):
        ops = encoder_set("y")
        expected = [
            np.eye(4, dtype=complex),
            on_spin_2(_ry(-np.pi / 2) @ _SX),
            on_spin_2(_ry(np.pi / 2) @ _SX),
            on_spin_2(1j * _SY),
        ]
        for op, ref in zip(ops, expected):
            assert np.abs(op.matrix - ref).max() < 1e-12

    def test_x_set_definitions(self):
        ops = encoder_set("x")
        expected = [
            np.eye(4, dtype=complex),
            on_spin_2(_rx(np.pi / 2) @ _SZ),
            on_spin_2(_rx(-np.pi / 2) @ _SZ),
            on_spin_2(_SX),
        ]
        for op, ref in zip(ops, expected):
            assert np.abs(op.matrix - ref).max() < 1e-12

    def test_printed_identities(self):
        # The second and third manipulations admit a second published form.
        v2 = encoder("y", 2).matrix
        v3 = encoder("y", 3).matrix
        assert np.abs(v2 - on_spin_2(-_ry(np.pi / 2) @ _SZ)).max() < 1e-12
        assert np.abs(v3 - on_spin_2(_ry(-np.pi / 2) @ _SZ)).max() < 1e-12

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            encoder_set("q")
        with pytest.raises(ValueError):
            encoder("q", 1)

    def test_encoder_accepts_set_objects(self):
        enc = encoder_set("y")
        assert len(enc) == 4
        assert encoder("y", 1) is enc[0]
        with pytest.raises(ValueError):
            encoder("y", 5)

    def test_bool_index_rejected(self):
        with pytest.raises(ValueError, match="got True"):
            encoder("y", True)

    @pytest.mark.parametrize("k", [True, 2.0, np.float64(2.0), "2", None, 0, 5])
    def test_index_must_be_an_int_in_range(self, k):
        with pytest.raises(ValueError, match=re.escape(f"encoder index must be 1..4, got {k!r}")):
            encoder("y", k)

    def test_worked_example_on_second_bell_state(self):
        psi2 = bell_state(2)
        s = 1 / np.sqrt(2)
        targets = {
            1: np.array([0, 1, 0, 0], dtype=complex),
            2: np.array([s, 0, 0, -s], dtype=complex),
            3: np.array([s, 0, 0, s], dtype=complex),
            4: np.array([0, 0, 1, 0], dtype=complex),
        }
        for k, coords in targets.items():
            out = to_bell_coords(apply(encoder("y", k), psi2))
            assert equal_up_to_phase(out.coords, coords, tol=1e-12).equal


class TestRunProtocol:
    def test_published_cases(self):
        assert run_protocol(preset("y", 2), 3).output_label is BasisLabel.DU
        assert run_protocol(preset("y", 2), 1).output_label is BasisLabel.UU
        assert run_protocol(preset("y", 1), 2).output_label is BasisLabel.DU

    def test_outcomes_are_deterministic(self):
        for axis in ("x", "y"):
            for j in (1, 2, 3, 4):
                for k in (1, 2, 3, 4):
                    trace = run_protocol(preset(axis, j), k)
                    assert trace.probabilities[trace.output_label] >= 1 - 1e-9

    def test_trace_records_pure_starting_state(self):
        trace = run_protocol(preset("y", 2), 3)
        assert abs(np.abs(trace.starting_bell.coords).max() - 1.0) < 1e-12
        assert trace.message == 2

    def test_encoded_state_stays_maximally_entangled(self):
        for axis in ("x", "y"):
            for j in (1, 2, 3, 4):
                for k in (1, 2, 3, 4):
                    trace = run_protocol(preset(axis, j), k)
                    psi = from_bell_coords(trace.encoded)
                    for keep in (1, 2):
                        reduced = partial_trace(psi, keep)
                        assert np.abs(reduced.entries - np.eye(2) / 2).max() < 1e-12

    def test_rejects_generic_angles(self):
        with pytest.raises(ValueError):
            run_protocol(UChoice("y", 0.1, 0.2), 1)

    def test_builds_u_once(self, monkeypatch):
        grover.build_G_pair.cache_clear()
        calls = []
        monkeypatch.setattr(grover, "build_U", lambda c, b=grover.build_U: calls.append(c) or b(c))
        run_protocol(preset("y", 2), 3)
        assert calls == [preset("y", 2)]


def _checked_chain(g, v, g_inv):
    """Starting and encoded Bell coordinates and the measurement, one checked object per step."""
    psi0 = apply(g, ket_from_basis(BasisLabel.UU))
    encoded = apply(v, psi0)
    return to_bell_coords(psi0), to_bell_coords(encoded), measure_basis(apply(g_inv, encoded))


def _assert_trace_equals_chain(trace, chain):
    starting, encoded, measurement = chain
    assert np.array_equal(trace.starting_bell.coords, starting.coords)
    assert np.array_equal(trace.encoded.coords, encoded.coords)
    assert list(trace.probabilities) == list(measurement.probabilities)
    assert np.array_equal(list(trace.probabilities.values()), list(measurement.probabilities.values()))
    assert trace.output_label is measurement.argmax


class TestPipeline:
    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_runs_equal_the_checked_chain(self, kind):
        for j in (1, 2, 3, 4):
            c = preset(kind, j)
            g, g_inv = build_G(c), build_G_inverse(c)
            for k in (1, 2, 3, 4):
                _assert_trace_equals_chain(run_protocol(c, k), _checked_chain(g, encoder(kind, k), g_inv))

    @pytest.mark.parametrize("value", range(8))
    def test_ancilla_runs_equal_the_checked_chain(self, value):
        message = AncillaMessage.from_value(value)
        kind = "y" if message.set_bit == 0 else "x"
        chain = _checked_chain(build_G(preset("y", 1)), encoder(kind, message.v_index),
                               build_G_inverse(preset(kind, 1)))
        _assert_trace_equals_chain(run_ancilla_protocol(message).trace, chain)


class TestTable2:
    def test_full_grid(self):
        expected = {
            (1, 1): "uu", (2, 1): "uu", (3, 1): "uu", (4, 1): "uu",
            (1, 2): "du", (2, 2): "ud", (3, 2): "ud", (4, 2): "du",
            (1, 3): "ud", (2, 3): "du", (3, 3): "du", (4, 3): "ud",
            (1, 4): "dd", (2, 4): "dd", (3, 4): "dd", (4, 4): "dd",
        }
        grid = table2()
        assert len(grid) == 16
        for key, short in expected.items():
            assert grid[key] is BasisLabel.from_string(short)

    def test_starting_bell_indices_cover_all_four(self):
        for axis in ("x", "y"):
            indices = {starting_bell_column(preset(axis, j)) for j in (1, 2, 3, 4)}
            assert indices == {1, 2, 3, 4}

    def test_x_kind_first_column(self):
        grid = table2("x")
        outputs = [grid[(1, k)] for k in (1, 2, 3, 4)]
        assert outputs == [BasisLabel.UU, BasisLabel.UD, BasisLabel.DU, BasisLabel.DD]

    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_builds_g_and_its_inverse_once_per_preset(self, kind, monkeypatch):
        # G and G^-1 of a preset come from one U.
        grover.build_G_pair.cache_clear()
        calls = []
        monkeypatch.setattr(grover, "build_U", lambda c, b=grover.build_U: calls.append(c) or b(c))
        table2(kind)
        assert calls == [preset(kind, j) for j in (1, 2, 3, 4)]

    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_stacked_outcomes_equal_single_runs(self, kind):
        grid = table2(kind)
        for j in (1, 2, 3, 4):
            c = preset(kind, j)
            column = starting_bell_column(c)
            labels = {k: run_protocol(c, k).output_label for k in (1, 2, 3, 4)}
            assert all(grid[(column, k)] is label for k, label in labels.items())
            assert coding._decode_map(kind, j) == {label: k for k, label in labels.items()}


class TestGMemo:
    def test_ancilla_reads_g_from_y1_and_its_inverse_from_the_decoding_preset(self, monkeypatch):
        grover.build_G_pair.cache_clear()
        calls = []
        monkeypatch.setattr(grover, "build_U", lambda c, b=grover.build_U: calls.append(c) or b(c))
        run_ancilla_protocol(AncillaMessage(1, 2))
        assert calls == [preset("y", 1), preset("x", 1)]

    @pytest.mark.parametrize("run", [
        lambda: run_protocol(preset("y", 2), 3),
        lambda: grover.table1(preset("x", 3)),
        lambda: table2("x"),
        lambda: run_ancilla_protocol(AncillaMessage(1, 2)),
    ], ids=["run_protocol", "table1", "table2", "run_ancilla_protocol"])
    def test_a_second_run_builds_no_u(self, run, monkeypatch):
        first = run()
        calls = []
        monkeypatch.setattr(grover, "build_U", lambda c, b=grover.build_U: calls.append(c) or b(c))
        second = run()
        assert calls == []
        assert repr(second) == repr(first)


class TestDecode:
    def test_inverse_lookup_examples(self):
        assert decode(BasisLabel.DU, preset("y", 2)) == 3
        for axis in ("x", "y"):
            for j in (1, 2, 3, 4):
                assert decode(BasisLabel.UU, preset(axis, j)) == 1

    def test_round_trip_all_pairs(self):
        for axis in ("x", "y"):
            for j in (1, 2, 3, 4):
                c = preset(axis, j)
                for k in (1, 2, 3, 4):
                    assert decode(run_protocol(c, k).output_label, c) == k

    def test_bijectivity_per_preset(self):
        for axis in ("x", "y"):
            for j in (1, 2, 3, 4):
                c = preset(axis, j)
                outputs = {run_protocol(c, k).output_label for k in (1, 2, 3, 4)}
                assert len(outputs) == 4

    def test_rejects_generic_angles(self):
        with pytest.raises(ValueError):
            decode(BasisLabel.UU, UChoice("y", 0.5, 0.5))


class TestAncilla:
    def test_message_packing(self):
        assert AncillaMessage(1, 4).value == 7
        assert AncillaMessage.from_value(7) == AncillaMessage(1, 4)
        assert AncillaMessage.from_value(0) == AncillaMessage(0, 1)
        for value in range(8):
            assert AncillaMessage.from_value(value).value == value

    def test_validation(self):
        with pytest.raises(ValueError):
            AncillaMessage(2, 1)
        with pytest.raises(ValueError):
            AncillaMessage(0, 0)
        with pytest.raises(ValueError):
            AncillaMessage.from_value(8)

    @pytest.mark.parametrize("make", [
        lambda: AncillaMessage(True, 1),
        lambda: AncillaMessage(0, True),
        lambda: AncillaMessage.from_value(True),
    ], ids=["set_bit", "v_index", "from_value"])
    def test_bool_rejected(self, make):
        with pytest.raises(ValueError, match="got True"):
            make()

    @pytest.mark.parametrize("fields, message", [
        ((2.0, 1), "set_bit must be 0..1, got 2.0"),
        ((0.0, 1), "set_bit must be 0..1, got 0.0"),
        ((0, 2.0), "v_index must be 1..4, got 2.0"),
        ((0, np.float64(3.0)), f"v_index must be 1..4, got {np.float64(3.0)!r}"),
        ((0, "2"), "v_index must be 1..4, got '2'"),
    ])
    def test_fields_must_be_ints_in_range(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AncillaMessage(*fields)

    @pytest.mark.parametrize("value", [2.0, 7.0, np.float64(1.0), "3", None, -1, 8])
    def test_value_must_be_an_int_in_range(self, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"ancilla message value must be 0..7, got {value!r}")):
            AncillaMessage.from_value(value)

    def test_identity_message(self):
        result = run_ancilla_protocol(AncillaMessage(0, 1))
        assert result.recovered == AncillaMessage(0, 1)
        assert result.trace.output_label is BasisLabel.UU

    def test_x_set_fourth_manipulation(self):
        result = run_ancilla_protocol(AncillaMessage(1, 4))
        assert result.recovered == AncillaMessage(1, 4)
        assert result.trace.output_label is BasisLabel.DD

    def test_all_eight_round_trip(self):
        for value in range(8):
            message = AncillaMessage.from_value(value)
            assert run_ancilla_protocol(message).recovered == message
