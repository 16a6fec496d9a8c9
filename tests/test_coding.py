import numpy as np
import pytest

from densegrover import coding
from densegrover.bell import bell_state, from_bell_coords, to_bell_coords
from densegrover.coding import (
    AncillaMessage,
    decode,
    encoder,
    encoder_set,
    run_ancilla_protocol,
    run_protocol,
    starting_bell_index,
    table2,
)
from densegrover.grover import UChoice, preset
from densegrover.qstate import BasisLabel, apply, equal_up_to_phase, partial_trace

RNG_SEED = 424242


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
            indices = {starting_bell_index(preset(axis, j)) for j in (1, 2, 3, 4)}
            assert indices == {1, 2, 3, 4}

    def test_x_kind_first_column(self):
        grid = table2("x")
        outputs = [grid[(1, k)] for k in (1, 2, 3, 4)]
        assert outputs == [BasisLabel.UU, BasisLabel.UD, BasisLabel.DU, BasisLabel.DD]

    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_builds_g_and_its_inverse_once_per_preset(self, kind, monkeypatch):
        calls = []
        for name in ("build_G", "build_G_inverse"):
            build = getattr(coding, name)
            monkeypatch.setattr(coding, name, lambda c, b=build, n=name: calls.append(n) or b(c))
        table2(kind)
        assert sorted(calls) == ["build_G"] * 4 + ["build_G_inverse"] * 4


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
