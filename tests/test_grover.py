import inspect
import re

import numpy as np
import pytest

from densegrover.bell import BELL_ADJOINT, BellVector, bell_state, rotate_epr, to_bell_coords
from densegrover import coding, grover
from densegrover.grover import (
    Table1Entry,
    UChoice,
    bell_combination_str,
    build_G,
    build_G_inverse,
    build_U,
    preset,
    preset_index,
    table1,
)
from densegrover.qstate import (
    BasisLabel,
    Ket4,
    Operator4,
    apply,
    compose,
    equal_up_to_phase,
    ket_from_basis,
    partial_trace,
    scaled,
    single_spin_rotation,
)

RNG_SEED = 90125
R2 = np.sqrt(2.0)

# The four published composite matrices for the y-axis presets.
G_MATRICES = {
    1: np.array(
        [
            [-R2, -1, -1, 0],
            [0, -1, 1, -R2],
            [0, -1, 1, R2],
            [-R2, 1, 1, 0],
        ]
    ) / 2.0,
    2: np.array(
        [
            [-R2, 1, -1, 0],
            [0, -1, -1, -R2],
            [0, 1, 1, -R2],
            [R2, 1, -1, 0],
        ]
    ) / 2.0,
    3: np.array(
        [
            [0, 1, 1, R2],
            [-R2, 1, -1, 0],
            [-R2, -1, 1, 0],
            [0, 1, 1, -R2],
        ]
    ) / 2.0,
    4: np.array(
        [
            [0, -1, 1, -R2],
            [R2, 1, 1, 0],
            [-R2, 1, 1, 0],
            [0, 1, -1, -R2],
        ]
    ) / 2.0,
}


def bell_coords(*coords):
    return BellVector(np.array(coords, dtype=complex))


# The eight presets plus two generic angle pairs, one per axis.
CHOICES = [preset(axis, j) for axis in ("x", "y") for j in (1, 2, 3, 4)] + [
    UChoice("y", 0.7, -1.3),
    UChoice("x", 2.1, 0.4),
]


def reference_chain(c):
    """U, G and G^-1 as a chain of separately checked operators."""
    u = compose([single_spin_rotation(1, c.axis, c.phi1), single_spin_rotation(2, c.axis, c.phi2)])
    i_s = Operator4(np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex))
    i_t = Operator4(np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))
    g = scaled(compose([u, i_s, u.adjoint(), i_t, u]), -1.0)
    g_inv = scaled(compose([u.adjoint(), i_t, u, i_s, u.adjoint()]), -1.0)
    return u, g, g_inv


class TestPresets:
    def test_y_angles(self):
        p = np.pi
        expected = {1: (p / 4, 3 * p / 4), 2: (p / 4, -3 * p / 4),
                    3: (p / 4, p / 4), 4: (p / 4, -p / 4)}
        for j, (phi1, phi2) in expected.items():
            c = preset("y", j)
            assert (c.phi1, c.phi2) == (phi1, phi2)

    def test_x_angles(self):
        p = np.pi
        expected = {1: (p / 4, -3 * p / 4), 2: (p / 4, 3 * p / 4),
                    3: (p / 4, p / 4), 4: (p / 4, -p / 4)}
        for j, (phi1, phi2) in expected.items():
            c = preset("x", j)
            assert (c.phi1, c.phi2) == (phi1, phi2)

    def test_preset_index_round_trip(self):
        for axis in ("x", "y"):
            for j in (1, 2, 3, 4):
                assert preset_index(preset(axis, j)) == j

    def test_generic_angles_are_not_presets(self):
        assert preset_index(UChoice("y", 0.3, 0.4)) is None

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            preset("z", 1)
        with pytest.raises(ValueError):
            preset("y", 5)
        with pytest.raises(ValueError, match="got True"):
            preset("y", True)
        with pytest.raises(ValueError):
            UChoice("q", 0.0, 0.0)
        # An unhashable axis raises the same ValueError, not a TypeError.
        for axis in (["y"], ["x", "y"]):
            with pytest.raises(ValueError, match=re.escape(f"axis must be x or y, got {axis!r}")):
                preset(axis, 1)
            with pytest.raises(ValueError, match=re.escape(f"axis must be x or y, got {axis!r}")):
                UChoice(axis, 0.0, 0.0)

    @pytest.mark.parametrize("j", [True, 2.0, np.float64(2.0), "2", None, 0, 5])
    def test_index_must_be_an_int_in_range(self, j):
        with pytest.raises(ValueError, match=re.escape(f"preset index must be 1..4, got {j!r}")):
            preset("y", j)

    def test_numpy_integer_index_is_accepted(self):
        assert preset("y", np.int64(2)) == preset("y", 2)

    def test_non_finite_angles_rejected(self):
        with pytest.raises(ValueError, match="phi1"):
            UChoice("y", np.nan, 0.0)
        with pytest.raises(ValueError, match="phi2"):
            UChoice("x", 0.0, np.inf)


class TestBuildU:
    def test_zero_angles_give_identity(self):
        u = build_U(UChoice("y", 0.0, 0.0))
        assert np.abs(u.matrix - np.eye(4)).max() < 1e-15

    def test_matches_published_block_form(self):
        # Independent oracle: the published entrywise form of U in terms
        # of c_k = cos(phi_k/2) and s_k = sin(phi_k/2).
        for phi1, phi2 in [(np.pi / 4, 3 * np.pi / 4), (0.7, -1.3), (2.1, 0.4)]:
            c1, s1 = np.cos(phi1 / 2), np.sin(phi1 / 2)
            c2, s2 = np.cos(phi2 / 2), np.sin(phi2 / 2)
            expected = np.array(
                [
                    [c1 * c2, c1 * s2, s1 * c2, s1 * s2],
                    [-c1 * s2, c1 * c2, -s1 * s2, s1 * c2],
                    [-s1 * c2, -s1 * s2, c1 * c2, c1 * s2],
                    [s1 * s2, -s1 * c2, -c1 * s2, c1 * c2],
                ]
            )
            u = build_U(UChoice("y", phi1, phi2))
            assert np.abs(u.matrix - expected).max() < 1e-12

    def test_unitary(self):
        u = build_U(preset("y", 1))
        assert np.abs(u.matrix @ u.matrix.conj().T - np.eye(4)).max() < 1e-12

    def test_non_unitary_rotation_is_still_caught(self, monkeypatch):
        monkeypatch.setattr(grover, "rotation_2x2", lambda axis, angle: np.array([[1, 1], [0, 1]]))
        with pytest.raises(ValueError, match="unitarity"):
            build_U(preset("y", 1))


class TestDiagonalOperators:
    def test_sign_flip_entries(self):
        assert np.array_equal(grover.SIGN_FLIP_TARGET.matrix, np.diag([1, -1, -1, 1]))

    def test_phase_shift_entries(self):
        assert np.array_equal(grover.PHASE_SHIFT_S.matrix, np.diag([-1, 1, 1, 1]))

    def test_shared_and_read_only(self, monkeypatch):
        for op in (grover.SIGN_FLIP_TARGET, grover.PHASE_SHIFT_S):
            assert isinstance(op, Operator4)
            with pytest.raises(ValueError):
                op.matrix[0, 0] = 2.0
        # build_G_pair reads the one copy of each at the call: with both
        # replaced by the identity, G = -U U^-1 U = -U.
        identity = Operator4(np.eye(4, dtype=complex))
        monkeypatch.setattr(grover, "SIGN_FLIP_TARGET", identity)
        monkeypatch.setattr(grover, "PHASE_SHIFT_S", identity)
        c = preset("y", 1)
        assert np.abs(build_G(c).matrix + build_U(c).matrix).max() < 1e-12

    def test_involutions(self):
        for op in (grover.SIGN_FLIP_TARGET, grover.PHASE_SHIFT_S):
            assert np.array_equal(compose([op, op]).matrix, np.eye(4))

    def test_actions_on_basis_states(self):
        it = grover.SIGN_FLIP_TARGET
        assert np.array_equal(
            apply(it, ket_from_basis(BasisLabel.UD)).amplitudes, [0, -1, 0, 0]
        )
        i_s = grover.PHASE_SHIFT_S
        assert np.array_equal(
            apply(i_s, ket_from_basis(BasisLabel.UU)).amplitudes, [-1, 0, 0, 0]
        )
        assert np.array_equal(
            apply(i_s, ket_from_basis(BasisLabel.DD)).amplitudes, [0, 0, 0, 1]
        )


class TestBuildG:
    def test_matches_published_matrices(self):
        for j, expected in G_MATRICES.items():
            g = build_G(preset("y", j))
            assert np.abs(g.matrix - expected).max() < 1e-12

    def test_first_preset_synthesizes_first_bell_state(self):
        out = apply(build_G(preset("y", 1)), ket_from_basis(BasisLabel.UU))
        assert np.abs(out.amplitudes - (-bell_state(1).amplitudes)).max() < 1e-12

    def test_x_preset_on_up_down(self):
        out = apply(build_G(preset("x", 1)), ket_from_basis(BasisLabel.UD))
        expected = to_bell_coords(out)
        s = 1 / np.sqrt(2)
        target = bell_coords(0, s, 0, 1j * s)
        assert equal_up_to_phase(expected, target, tol=1e-9).equal

    def test_inverse_is_adjoint(self):
        for axis in ("x", "y"):
            for j in (1, 2, 3, 4):
                c = preset(axis, j)
                g = build_G(c)
                g_inv = build_G_inverse(c)
                assert np.abs(g_inv.matrix - g.matrix.conj().T).max() < 1e-12

    def test_inverse_examples(self):
        g3_inv = build_G_inverse(preset("y", 3))
        s = 1 / np.sqrt(2)
        mixed = (bell_state(1).amplitudes + bell_state(4).amplitudes) * s
        out = apply(g3_inv, Ket4(mixed))
        assert np.abs(out.amplitudes - [0, 1, 0, 0]).max() < 1e-12
        out2 = apply(g3_inv, bell_state(2))
        assert np.abs(out2.amplitudes - [0, 0, 0, 1]).max() < 1e-12

    def test_inverse_undoes_g_on_random_states(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            c = UChoice("y", float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-np.pi, np.pi)))
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = Ket4(raw / np.linalg.norm(raw))
            back = apply(build_G_inverse(c), apply(build_G(c), psi))
            assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-12

    def test_outputs_maximally_entangled_for_all_presets(self):
        for axis in ("x", "y"):
            for j in (1, 2, 3, 4):
                g = build_G(preset(axis, j))
                for label in BasisLabel:
                    out = apply(g, ket_from_basis(label))
                    for keep in (1, 2):
                        reduced = partial_trace(out, keep)
                        assert np.abs(reduced.entries - np.eye(2) / 2).max() < 1e-12

    def test_pure_bell_output_from_aligned_inputs(self):
        for axis in ("x", "y"):
            for j in (1, 2, 3, 4):
                g = build_G(preset(axis, j))
                for label in (BasisLabel.UU, BasisLabel.DD):
                    coords = to_bell_coords(apply(g, ket_from_basis(label))).coords
                    assert abs(np.abs(coords).max() - 1.0) < 1e-12


class TestOneCheckedProduct:
    @pytest.mark.parametrize("c", CHOICES, ids=lambda c: f"{c.axis}-{c.phi1:.3f}-{c.phi2:.3f}")
    def test_equals_the_reference_chain(self, c):
        u, g, g_inv = reference_chain(c)
        assert np.array_equal(build_U(c).matrix, u.matrix)
        assert np.array_equal(build_G(c).matrix, g.matrix)
        assert np.array_equal(build_G_inverse(c).matrix, g_inv.matrix)

    @pytest.mark.parametrize("c", CHOICES, ids=lambda c: f"{c.axis}-{c.phi1:.3f}-{c.phi2:.3f}")
    def test_pair_builds_one_u_and_equals_the_reference_chain(self, c, recorded):
        _, g, g_inv = reference_chain(c)
        calls = recorded((grover, "build_U"))
        pair = grover.build_G_pair(c)
        assert calls == [("build_U", c)]
        assert np.array_equal(pair[0].matrix, g.matrix)
        assert np.array_equal(pair[1].matrix, g_inv.matrix)

    @pytest.mark.parametrize("c", CHOICES, ids=lambda c: f"{c.axis}-{c.phi1:.3f}-{c.phi2:.3f}")
    def test_g_and_its_inverse_equal_the_read_only_pair(self, c):
        g, g_inv = grover.build_G_pair(c)
        assert np.array_equal(build_G(c).matrix, g.matrix)
        assert np.array_equal(build_G_inverse(c).matrix, g_inv.matrix)
        assert not g.matrix.flags.writeable and not g_inv.matrix.flags.writeable

    def test_every_pair_is_built_afresh(self, recorded):
        # The builders take arbitrary angles, so they keep nothing between calls.
        c = preset("x", 2)
        first = grover.build_G_pair(c)
        calls = recorded((grover, "build_U"))
        second = grover.build_G_pair(c)
        assert calls == [("build_U", c)]
        assert second[0] is not first[0] and second[1] is not first[1]
        assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(first, second))


class TestTable1:
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_entries_equal_g_applied_to_each_basis_ket(self, axis, j):
        c = preset(axis, j)
        entries = table1(c)
        assert [entry.input for entry in entries] == list(BasisLabel)
        for entry in entries:
            reference = to_bell_coords(apply(build_G(c), ket_from_basis(entry.input)))
            assert np.abs(entry.output.coords - reference.coords).max() <= 1e-15
            assert entry.display == bell_combination_str(reference)

    def test_second_preset_row(self):
        entries = table1(preset("y", 2))
        s = 1 / np.sqrt(2)
        expected = [
            bell_coords(0, -1, 0, 0),
            bell_coords(s, 0, 0, -s),
            bell_coords(-s, 0, 0, -s),
            bell_coords(0, 0, -1, 0),
        ]
        for entry, target in zip(entries, expected):
            assert equal_up_to_phase(entry.output, target, tol=1e-9).equal

    def test_presets_make_bell_states_or_equal_pairs_and_other_angles_do_not(self):
        def bell_or_equal_pair(coords):
            weights = np.sort(np.abs(coords) ** 2)[::-1]
            return any(np.abs(weights - w).max() < 1e-9 for w in ([1, 0, 0, 0], [0.5, 0.5, 0, 0]))

        for axis, j in PRESETS:
            assert all(bell_or_equal_pair(entry.output.coords) for entry in table1(preset(axis, j)))
        rng = np.random.default_rng(RNG_SEED + 1)
        for axis in ("x", "y"):
            for phi1, phi2 in rng.uniform(0, 2 * np.pi, size=(200, 2)):
                columns = (BELL_ADJOINT @ build_G(UChoice(axis, phi1, phi2)).matrix).T
                assert not all(map(bell_or_equal_pair, columns)), (axis, phi1, phi2)

    def test_corner_entries(self):
        down_down = table1(preset("y", 4))[3]
        assert equal_up_to_phase(down_down.output, bell_coords(-1, 0, 0, 0), tol=1e-9).equal
        down_down3 = table1(preset("y", 3))[3]
        assert equal_up_to_phase(down_down3.output, bell_coords(0, 1, 0, 0), tol=1e-9).equal

    def test_rotation_consistency(self):
        # The up-down column of the second preset equals a quarter-turn
        # rotation of the first Bell state.
        entry = table1(preset("y", 2))[1]
        assert equal_up_to_phase(entry.output, rotate_epr(1, "y", np.pi / 2), tol=1e-12).equal

    def test_entries_are_labeled_in_canonical_order(self):
        entries = table1(preset("y", 1))
        assert [e.input for e in entries] == list(BasisLabel)
        assert all(isinstance(e, Table1Entry) for e in entries)

    def test_rejects_generic_angles(self):
        with pytest.raises(ValueError):
            table1(UChoice("y", 0.2, 0.9))


def reference_entries(c):
    """Bell coordinates of the reference chain's G on each basis ket, in canonical order."""
    _, g, _ = reference_chain(c)
    return [to_bell_coords(apply(g, ket_from_basis(label))) for label in BasisLabel]


def assert_entries_equal_reference(entries, c):
    assert [entry.input for entry in entries] == list(BasisLabel)
    for entry, reference in zip(entries, reference_entries(c)):
        assert np.array_equal(entry.output.coords, reference.coords)
        assert entry.display == bell_combination_str(reference)


# Within preset_index's tolerance of y1.  A one-ulp step of phi1 leaves
# G's bits as they are; one of phi2 changes them.
NEAR_Y1 = [
    UChoice("y", float(np.nextafter(np.pi / 4, 1)), 3 * np.pi / 4),
    UChoice("y", np.pi / 4, float(np.nextafter(3 * np.pi / 4, 4))),
]
PRESETS = [(axis, j) for axis in ("x", "y") for j in (1, 2, 3, 4)]
# The presets' angles (phi1, phi2), written out apart from grover's table.
PRESET_ANGLES = {
    ("y", 1): (np.pi / 4, 3 * np.pi / 4), ("y", 2): (np.pi / 4, -3 * np.pi / 4),
    ("y", 3): (np.pi / 4, np.pi / 4), ("y", 4): (np.pi / 4, -np.pi / 4),
    ("x", 1): (np.pi / 4, -3 * np.pi / 4), ("x", 2): (np.pi / 4, 3 * np.pi / 4),
    ("x", 3): (np.pi / 4, np.pi / 4), ("x", 4): (np.pi / 4, -np.pi / 4),
}


class TestTable1Values:
    @pytest.mark.parametrize("c", [preset("x", 3), preset("y", 1)] + NEAR_Y1,
                             ids=["x3", "y1", "near-y1-phi1", "near-y1-phi2"])
    def test_a_call_builds_no_u_and_formats_nothing(self, c, recorded):
        ran = recorded((grover, "build_U"), (grover, "bell_combination_str"))
        first, second = table1(c), table1(c)
        assert ran == []
        assert second is not first
        assert all(a is b for a, b in zip(second, first)) and len(second) == 4

    def test_mutating_a_returned_list_changes_no_later_result(self):
        c = preset("y", 2)
        entries = table1(c)
        entries.reverse()
        entries.pop()
        entries[0] = None
        assert_entries_equal_reference(table1(c), c)

    def test_entries_are_immutable(self):
        entry = table1(preset("x", 1))[0]
        with pytest.raises(AttributeError):
            entry.display = "|ψ4>"
        with pytest.raises(ValueError):
            entry.output.coords[0] = 0.0

    @pytest.mark.parametrize("c", NEAR_Y1, ids=["phi1", "phi2"])
    def test_a_near_preset_choice_gets_the_presets_entries(self, c):
        assert preset_index(c) == 1
        assert all(a is b for a, b in zip(table1(c), table1(preset("y", 1))))
        assert_entries_equal_reference(table1(c), preset("y", 1))

    def test_the_key_is_the_preset_index_not_the_choice(self):
        # The phi2 neighbour's own G differs from y1's in its last bits,
        # yet it reads y1's entries.
        near = NEAR_Y1[1]
        assert not np.array_equal(build_G(near).matrix, build_G(preset("y", 1)).matrix)
        assert_entries_equal_reference(table1(near), preset("y", 1))


class TestPresetValues:
    def test_one_value_per_preset(self):
        assert list(grover.PRESETS) == PRESETS

    @pytest.mark.parametrize("axis,j", PRESETS)
    def test_values_equal_a_fresh_build_bit_for_bit(self, axis, j):
        values = grover.PRESETS[axis, j]
        g, g_inv = grover.build_G_pair(preset(axis, j))
        assert np.array_equal(values.g.matrix, g.matrix)
        assert np.array_equal(values.g_inverse.matrix, g_inv.matrix)
        assert len(values.table1) == 4
        assert_entries_equal_reference(list(values.table1), preset(axis, j))

    @pytest.mark.parametrize("c", [preset("y", 1)] + NEAR_Y1, ids=["y1", "near-y1-phi1", "near-y1-phi2"])
    def test_every_preset_entry_point_hands_out_the_presets_objects(self, c):
        y1 = grover.PRESETS["y", 1]
        assert all(a is b for a, b in zip(table1(c), y1.table1))
        # The runs are built at import, from y1's G; a call hands out y1's runs.
        for k in (1, 2, 3, 4):
            trace, stored = coding.run_protocol(c, k), coding.run_protocol(preset("y", 1), k)
            assert trace.u_choice is c
            assert coding.decode(trace.output_label, c) == k
            assert trace.encoded is stored.encoded and trace.starting_bell is stored.starting_bell
            assert np.array_equal(trace.starting_bell.coords, BELL_ADJOINT @ y1.g.matrix[:, 0])

    @pytest.mark.parametrize("axis,j", PRESETS)
    def test_preset_hands_out_one_choice_built_at_import(self, axis, j, recorded):
        expected = UChoice(axis, *PRESET_ANGLES[axis, j])
        built = recorded((UChoice, "__post_init__"))
        first = preset(axis, j)
        assert first == expected and type(first) is UChoice
        assert all(preset(axis, j) is first for _ in range(3))
        assert preset(np.str_(axis), np.int64(j)) is first
        assert built == []


class TestDisplayStrings:
    def test_single_state(self):
        assert bell_combination_str(bell_coords(0, -1, 0, 0)) == "|ψ2>"

    def test_two_state_superposition(self):
        s = 1 / np.sqrt(2)
        assert bell_combination_str(bell_coords(s, 0, 0, -s)) == "(|ψ1>-|ψ4>)/√2"
        assert bell_combination_str(bell_coords(-s, 0, 0, -s)) == "(|ψ1>+|ψ4>)/√2"

    def test_imaginary_coefficient(self):
        s = 1 / np.sqrt(2)
        assert bell_combination_str(bell_coords(0, s, 0, 1j * s)) == "(|ψ2>+i|ψ4>)/√2"
        assert bell_combination_str(bell_coords(0, 1j * s, 0, s)) == "(|ψ2>-i|ψ4>)/√2"

    def test_display_coefficients_restricted_for_presets(self):
        for axis in ("x", "y"):
            for j in (1, 2, 3, 4):
                for entry in table1(preset(axis, j)):
                    assert entry.display.startswith(("|", "("))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            bell_combination_str(bell_coords(0, 0, 0, 0))

    @pytest.mark.parametrize("coords, text", [
        ((0.5, 0.5, 0, 0), "(0.5+0j)|ψ1> + (0.5+0j)|ψ2>"),
        ((1, 1, 0, 0), "(1+0j)|ψ1> + (1+0j)|ψ2>"),
        ((0.5, 0.5, 0.5, 0.5), "(0.5+0j)|ψ1> + (0.5+0j)|ψ2> + (0.5+0j)|ψ3> + (0.5+0j)|ψ4>"),
    ], ids=["two-halves", "two-ones", "four-halves"])
    def test_untabulated_weights_print_numerically(self, coords, text):
        assert bell_combination_str(bell_coords(*coords)) == text

    @pytest.mark.parametrize("coords, text", [
        ((0.5, 0, 0, 0), "(0.5+0j)|ψ1>"),
        ((0, 2, 0, 0), "(2+0j)|ψ2>"),
        ((0, 0, -0.5j, 0), "(0.5+0j)|ψ3>"),
        ((0, 0, 0, 1 + 1e-8), "(1+0j)|ψ4>"),
    ], ids=["half", "two", "imaginary-half", "just-past-the-tolerance"])
    def test_a_lone_coordinate_off_unit_weight_prints_its_weight(self, coords, text):
        assert bell_combination_str(bell_coords(*coords)) == text

    @pytest.mark.parametrize("phase", [1, -1, 1j, -1j, -0.0 - 1j, complex(-0.0, 1.0)], ids=repr)
    def test_the_display_phase_leaves_no_negative_zero(self, phase):
        # -0.5j is complex(-0.0, -0.5); rotated to the real axis it once printed (0.5-0j).
        for k in range(4):
            coords = [0, 0, 0, 0]
            coords[k] = 0.5 * phase
            assert bell_combination_str(bell_coords(*coords)) == f"(0.5+0j)|ψ{k + 1}>"

    def test_a_lone_coordinate_within_the_tolerance_of_unit_weight_prints_by_name(self):
        assert bell_combination_str(bell_coords(0, 0, 0, 1 + 1e-10)) == "|ψ4>"
        assert bell_combination_str(bell_coords(0, -1j * (1 - 1e-10), 0, 0)) == "|ψ2>"

    def test_no_tolerance_parameter(self):
        assert list(inspect.signature(bell_combination_str).parameters) == ["v"]
