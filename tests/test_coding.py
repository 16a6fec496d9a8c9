import dataclasses
import pickle
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
    EXACT_TOL,
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

    @pytest.mark.parametrize("kind", ["q", ["y"], ["x", "y"]])
    def test_kind_validated(self, kind):
        message = re.escape(f"encoder-set kind must be x or y, got {kind!r}")
        with pytest.raises(ValueError, match=message):
            encoder_set(kind)
        with pytest.raises(ValueError, match=message):
            encoder(kind, 1)
        with pytest.raises(ValueError, match=message):
            encoder(kind, 5)  # the kind is checked before the index

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

    def test_builds_no_u(self, recorded):
        calls = recorded((grover, "build_U"))
        run_protocol(preset("y", 2), 3)
        assert calls == []


def _checked_chain(g, v, g_inv):
    """Starting and encoded Bell coordinates and the measurement, one checked object per step."""
    psi0 = apply(g, ket_from_basis(BasisLabel.UU))
    encoded = apply(v, psi0)
    return to_bell_coords(psi0), to_bell_coords(encoded), measure_basis(apply(g_inv, encoded))


def assert_same_run(run, other):
    """Two runs' fields equal bit for bit."""
    assert (run.u_choice, run.message, run.output_label) == (other.u_choice, other.message, other.output_label)
    assert run.starting_bell.coords.tobytes() == other.starting_bell.coords.tobytes()
    assert run.encoded.coords.tobytes() == other.encoded.coords.tobytes()
    assert pickle.dumps(run.probabilities) == pickle.dumps(other.probabilities)


def stored_outcomes(kind, j):
    """Preset (kind, j)'s starting column and labels k = 1..4, read from its kind's table2 grid."""
    column, grid = starting_bell_column(preset(kind, j)), table2(kind)
    return column, tuple(grid[column, k] for k in (1, 2, 3, 4))


def chain_run(c, k, chain):
    """The run `run_protocol(c, k)` stands for, built from a checked chain."""
    starting, encoded, measurement = chain
    return coding.ProtocolTrace(c, k - 1, starting, encoded, measurement.argmax, measurement.probabilities)


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
    def test_outcomes_run_each_presets_one_g_and_its_inverse(self, kind, recorded):
        # Each run is its preset's G and G^-1 built at import, bit for bit; a table or a run builds no U.
        calls = recorded((grover, "build_U"))
        table2(kind)
        for j in (1, 2, 3, 4):
            g, g_inv, _ = grover.PRESETS[kind, j]
            for k in (1, 2, 3, 4):
                assert_same_run(run_protocol(preset(kind, j), k),
                                chain_run(preset(kind, j), k, _checked_chain(g, encoder(kind, k), g_inv)))
        assert calls == []

    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_stacked_outcomes_equal_single_runs(self, kind):
        grid = table2(kind)
        for j in (1, 2, 3, 4):
            c = preset(kind, j)
            column = starting_bell_column(c)
            labels = {k: run_protocol(c, k).output_label for k in (1, 2, 3, 4)}
            assert all(grid[(column, k)] is label for k, label in labels.items())
            assert all(decode(label, c) == k for k, label in labels.items())


class TestOutcomeValues:
    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_a_table_builds_no_u_and_classifies_nothing(self, kind, monkeypatch, recorded):
        # At CLASSIFY_TOL = -1 no start classifies as a pure Bell state, so a table that classified would raise.
        built = recorded((grover, "build_U"))
        monkeypatch.setattr(coding, "CLASSIFY_TOL", -1.0)
        first = table2(kind)
        assert table2(kind) == first
        assert built == []

    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_mutating_a_returned_grid_changes_no_later_result(self, kind):
        expected = dict(table2(kind))
        grid = table2(kind)
        grid[(1, 1)] = BasisLabel.DD
        del grid[(2, 2)]
        assert table2(kind) is not grid
        assert table2(kind) == expected
        for j in (1, 2, 3, 4):
            c = preset(kind, j)
            assert all(decode(run_protocol(c, k).output_label, c) == k for k in (1, 2, 3, 4))

    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_outcomes_equal_the_stacked_product(self, kind):
        # Row k-1 of (V_k psi0) @ G^-1.T is G^-1 V_k psi0, for all four k at once.
        for j in (1, 2, 3, 4):
            g, g_inv = grover.build_G_pair(preset(kind, j))
            psi0 = g.matrix[:, 0]
            outputs = (np.stack([v.matrix for v in encoder_set(kind)]) @ psi0) @ g_inv.matrix.T
            labels = tuple(BasisLabel(i) for i in np.abs(outputs).argmax(axis=1).tolist())
            assert stored_outcomes(kind, j) == (starting_bell_column(preset(kind, j)), labels)

    @pytest.mark.parametrize("kind,j", [(kind, j) for kind in ("x", "y") for j in (1, 2, 3, 4)])
    def test_values_equal_a_fresh_build(self, kind, j):
        # Each run is bit-identical to a fresh checked chain, and the outcomes read them.
        c = preset(kind, j)
        g, g_inv, _ = grover.PRESETS[kind, j]
        chains = [_checked_chain(g, v, g_inv) for v in encoder_set(kind)]
        for k, chain in enumerate(chains, start=1):
            assert_same_run(run_protocol(c, k), chain_run(c, k, chain))
        column = int(np.argmax(np.abs(chains[0][0].coords))) + 1
        assert stored_outcomes(kind, j) == (column, tuple(chain[2].argmax for chain in chains))

    def test_values_hold_exactly_the_eight_presets(self):
        assert len(grover.PRESETS) == 8
        # Each grid holds its four presets' 16 cells and nothing else.
        for kind in ("x", "y"):
            assert list(table2(kind)) == [(starting_bell_column(preset(kind, j)), k)
                                          for j in (1, 2, 3, 4) for k in (1, 2, 3, 4)]
        assert table2(np.str_("y")) == table2("y")
        assert decode(BasisLabel.UU, preset("y", np.int64(2))) == 1
        for kind, j in [("q", 1), ("", 2), ("Y", 1), ("y", 0), ("y", 5), ("x", -1)]:
            with pytest.raises(ValueError):
                preset(kind, j)

    def test_outcomes_are_an_immutable_tuple(self):
        # The stored grid is the one value; no entry point hands it out, so no caller can edit it.
        column, labels = stored_outcomes("y", 2)
        assert labels == tuple(run_protocol(preset("y", 2), k).output_label for k in (1, 2, 3, 4))
        expected, handed = table2("y"), table2("y")
        assert handed is not expected and handed == expected
        handed.clear()
        assert table2("y") == expected and stored_outcomes("y", 2) == (column, labels)
        assert [decode(label, preset("y", 2)) for label in labels] == [1, 2, 3, 4]

    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_table_and_decode_build_no_u_choice(self, kind, recorded):
        c = preset(kind, 3)
        built = recorded((grover.UChoice, "__post_init__"))
        table2(kind)
        decode(BasisLabel.DU, c)
        assert built == []

    @pytest.mark.parametrize("kind", ["q", "z", "", ["y"], ["x", "y"]])
    def test_bad_kind_raises_before_and_after_a_good_table(self, kind):
        message = re.escape(f"axis must be x or y, got {kind!r}")
        with pytest.raises(ValueError, match=message):
            table2(kind)
        table2("y")
        with pytest.raises(ValueError, match=message):
            table2(kind)

    def test_decode_rejects_a_string_label(self):
        with pytest.raises(ValueError):
            decode("uu", preset("y", 1))


class TestGValues:
    def test_ancilla_reads_g_from_y1_and_its_inverse_from_the_decoding_preset(self):
        chain = _checked_chain(grover.PRESETS["y", 1].g, encoder("x", 2), grover.PRESETS["x", 1].g_inverse)
        result = run_ancilla_protocol(AncillaMessage(1, 2))
        assert_same_run(result.trace, chain_run(preset("x", 1), 2, chain))
        assert result.recovered == AncillaMessage(1, 2)
        assert run_ancilla_protocol(AncillaMessage(1, 2)).trace.encoded is result.trace.encoded

    @pytest.mark.parametrize("run", [
        lambda: run_protocol(preset("y", 2), 3),
        lambda: grover.table1(preset("x", 3)),
        lambda: table2("x"),
        lambda: decode(BasisLabel.UU, preset("y", 4)),
        lambda: run_ancilla_protocol(AncillaMessage(1, 2)),
    ], ids=["run_protocol", "table1", "table2", "decode", "run_ancilla_protocol"])
    def test_no_run_builds_a_u(self, run, recorded):
        calls = recorded((grover, "build_U"))
        run()
        assert calls == []


class TestRunValues:
    """Every gate-level run is a value built at import; a call hands out a copy."""

    # Each of the 40 calls, returning the trace it hands out.
    TRACES = [
        *[lambda c=preset(kind, j), k=k: run_protocol(c, k)
          for kind in ("x", "y") for j in (1, 2, 3, 4) for k in (1, 2, 3, 4)],
        *[lambda m=AncillaMessage.from_value(value): run_ancilla_protocol(m).trace for value in range(8)],
    ]

    def test_a_call_runs_no_pipeline_measurement_or_ket(self, recorded):
        # A run measures a Ket4 and reads its two Bell vectors once, at import.
        seen = recorded((coding, "measure_basis"), (coding, "Ket4"), (coding.bell, "BellVector"))
        for trace_of in self.TRACES:
            trace_of()
        assert seen == []

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_y_set_ancilla_runs_are_preset_y1s_runs(self, k):
        trace = run_ancilla_protocol(AncillaMessage(0, k)).trace
        run = run_protocol(preset("y", 1), k)
        assert ([pickle.dumps(getattr(trace, f.name)) for f in dataclasses.fields(trace)]
                == [pickle.dumps(getattr(run, f.name)) for f in dataclasses.fields(run)])
        assert trace.starting_bell is run.starting_bell and trace.encoded is run.encoded
        assert run_ancilla_protocol(AncillaMessage(0, k)).recovered == AncillaMessage(0, k)

    def test_mutating_returned_probabilities_changes_no_later_run(self):
        for trace_of in self.TRACES:
            trace = trace_of()
            expected = pickle.dumps(trace.probabilities)
            trace.probabilities[trace.output_label] = 0.0
            trace.probabilities.clear()
            again = trace_of()
            assert again.probabilities is not trace.probabilities
            assert pickle.dumps(again.probabilities) == expected

    def test_a_run_is_the_stored_value_under_the_callers_choice(self):
        for kind, j in grover.PRESETS:
            c = UChoice(kind, preset(kind, j).phi1, preset(kind, j).phi2)
            for k in (1, 2, 3, 4):
                trace, stored = run_protocol(c, k), run_protocol(preset(kind, j), k)
                assert trace is not stored and trace.u_choice is c and stored.u_choice is preset(kind, j)
                assert trace.starting_bell is stored.starting_bell and trace.encoded is stored.encoded
                assert_same_run(trace, stored)

    @pytest.mark.parametrize("value", range(8))
    def test_ancilla_values_equal_a_fresh_build(self, value):
        message = AncillaMessage.from_value(value)
        kind = "y" if message.set_bit == 0 else "x"
        stored = run_ancilla_protocol(message)
        chain = _checked_chain(grover.PRESETS["y", 1].g, encoder(kind, message.v_index),
                               grover.PRESETS[kind, 1].g_inverse)
        assert_same_run(stored.trace, chain_run(preset(kind, 1), message.v_index, chain))
        assert stored.recovered == message
        result = run_ancilla_protocol(message)
        assert result.recovered is stored.recovered and result.trace is not stored.trace
        assert_same_run(result.trace, stored.trace)


def handouts():
    """(call, the run under its preset's own choice, caller's choice) for all 40 runs; each caller's
    choice equals its preset but is a new object."""
    out = []
    for kind, j in grover.PRESETS:
        c = UChoice(kind, preset(kind, j).phi1, preset(kind, j).phi2)
        out += [(lambda c=c, k=k: run_protocol(c, k), run_protocol(preset(kind, j), k), c) for k in (1, 2, 3, 4)]
    for value in range(8):
        stored = run_ancilla_protocol(AncillaMessage.from_value(value)).trace
        out.append((lambda m=AncillaMessage.from_value(value): run_ancilla_protocol(m).trace, stored, stored.u_choice))
    return out


class TestHandedOutRecord:
    """A handed-out trace is the record the constructor would build; a message is one of eight values."""

    @staticmethod
    def constructed(stored, c):
        return coding.ProtocolTrace(c, stored.message, stored.starting_bell, stored.encoded, stored.output_label,
                                    dict(stored.probabilities))

    def test_each_call_returns_a_new_record_with_a_new_dict(self):
        for call, stored, _ in handouts():
            first, second = call(), call()
            assert type(first) is coding.ProtocolTrace and type(first.probabilities) is dict
            assert len({id(first), id(second), id(stored)}) == 3
            assert len({id(first.probabilities), id(second.probabilities), id(stored.probabilities)}) == 3

    def test_the_copy_is_the_constructors_record(self):
        for call, stored, c in handouts():
            trace, built = call(), self.constructed(stored, c)
            assert trace.u_choice is c
            assert repr(trace) == repr(built)
            assert dataclasses.fields(trace) == dataclasses.fields(built)
            assert list(vars(trace)) == list(vars(built))
            assert pickle.dumps(trace) == pickle.dumps(built)
            loaded = pickle.loads(pickle.dumps(trace))
            assert type(loaded) is coding.ProtocolTrace and repr(loaded) == repr(built)
            assert_same_run(loaded, built)

    def test_a_handed_out_record_is_frozen(self):
        for call, _, _ in handouts():
            trace = call()
            for field in dataclasses.fields(trace):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(trace, field.name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(trace, field.name)

    def test_protocol_trace_has_no_post_init_for_the_copy_to_skip(self):
        # The copy writes the instance dict and runs no constructor; a check added here would be skipped.
        assert not hasattr(coding.ProtocolTrace, "__post_init__")
        assert not hasattr(coding.ProtocolTrace, "__slots__")

    def test_from_value_returns_the_one_message_of_each_value(self):
        for value in range(8):
            message = AncillaMessage.from_value(value)
            assert message is AncillaMessage.from_value(value)
            assert message == AncillaMessage(value >> 2, (value & 3) + 1) and message.value == value
        assert len({id(AncillaMessage.from_value(value)) for value in range(8)}) == 8

    def test_from_value_of_a_numpy_int_carries_python_ints(self):
        message = AncillaMessage.from_value(np.int64(3))
        assert message is AncillaMessage.from_value(3)
        assert type(message.set_bit) is int and type(message.v_index) is int

    @pytest.mark.parametrize("output", ["uu", 0, 3, None, 1.0])
    def test_decode_refuses_an_output_that_is_not_a_label(self, output):
        with pytest.raises(ValueError, match=re.escape(f"{output!r} is not an output of preset 2 (x)")):
            decode(output, preset("x", 2))


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

    @pytest.mark.parametrize("value", [2.0, 7.0, np.float64(1.0), "3", None, -1, 8, True])
    def test_value_must_be_an_int_in_range(self, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"ancilla message value must be 0..7, got {value!r}")):
            AncillaMessage.from_value(value)

    def test_x_and_y_preset_1_make_the_same_state_up_to_phase(self):
        # run_ancilla_protocol's claim: the x-set runs start from y1's state
        # yet decode with x1's G^-1, which needs x1's state to be that one.
        x1, y1 = grover.PRESETS["x", 1].g.matrix[:, 0], grover.PRESETS["y", 1].g.matrix[:, 0]
        match = equal_up_to_phase(x1, y1, tol=EXACT_TOL)
        assert match.equal and match.phase == 1

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
