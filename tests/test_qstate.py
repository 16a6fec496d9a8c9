import pickle
import re

import numpy as np
import pytest

from densegrover import nmr
from densegrover.bell import BellVector, bell_state, to_bell_coords
from densegrover.coding import AncillaMessage, AncillaResult, run_ancilla_protocol, run_protocol
from densegrover.grover import build_G, preset, table1
from densegrover.nmr import DeviationMatrix
from densegrover.qstate import (
    EXACT_TOL,
    BasisLabel,
    Ket4,
    Measurement,
    Operator4,
    ReducedState,
    apply,
    checked_member,
    compose,
    equal_up_to_phase,
    identity,
    ket_from_basis,
    kron2,
    measure_basis,
    partial_trace,
    rotation_2x2,
    scaled,
    single_spin_rotation,
)

RNG_SEED = 20260819


def random_ket(rng):
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    return Ket4(raw / np.linalg.norm(raw))


def random_unitary(rng):
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(raw)
    # Normalize the QR phase ambiguity so q is exactly unitary.
    return Operator4(q * (np.diag(r) / np.abs(np.diag(r))))


class TestBasisLabel:
    def test_canonical_order(self):
        assert [label.index for label in BasisLabel] == [0, 1, 2, 3]
        assert BasisLabel.UD.spin1 == "up" and BasisLabel.UD.spin2 == "down"
        assert BasisLabel.DU.spin1 == "down" and BasisLabel.DU.spin2 == "up"

    def test_string_round_trip(self):
        for label in BasisLabel:
            assert BasisLabel.from_string(label.short) is label
        assert BasisLabel.from_string(" UD ") is BasisLabel.UD

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            BasisLabel.from_string("up")

    def test_arrows(self):
        assert BasisLabel.DU.arrows == "↓↑"


class TestKetConstruction:
    def test_basis_vectors(self):
        assert np.array_equal(ket_from_basis(BasisLabel.UU).amplitudes, [1, 0, 0, 0])
        assert np.array_equal(ket_from_basis(BasisLabel.DU).amplitudes, [0, 0, 1, 0])
        assert np.array_equal(ket_from_basis(BasisLabel.DD).amplitudes, [0, 0, 0, 1])

    def test_amplitudes_frozen(self):
        ket = ket_from_basis(BasisLabel.UU)
        with pytest.raises(ValueError):
            ket.amplitudes[0] = 2.0

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            Ket4(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("make, name", [(Ket4, "ket amplitudes"), (BellVector, "Bell coordinates")],
                             ids=["Ket4", "BellVector"])
    def test_non_finite_entry_is_refused(self, make, name, index, bad):
        for entry in (complex(bad, 0.5), complex(0.5, bad)):  # in the real part, then the imaginary
            entries = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
            entries[index] = entry
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                make(entries)

    @pytest.mark.parametrize("make, field", [(Ket4, "amplitudes"), (BellVector, "coords")],
                             ids=["Ket4", "BellVector"])
    def test_finite_entries_need_no_unit_norm(self, make, field):
        for entries in (np.zeros(4), np.full(4, 2.0 + 1j), np.array([1e300, 0, 0, -1e-300])):
            assert np.array_equal(getattr(make(entries), field), entries)


class TestRotations:
    def test_y_rotation_matches_closed_form(self):
        theta = 0.73
        expected = np.array(
            [
                [np.cos(theta / 2), np.sin(theta / 2)],
                [-np.sin(theta / 2), np.cos(theta / 2)],
            ]
        )
        assert np.abs(rotation_2x2("y", theta) - expected).max() < 1e-15

    def test_pauli_identities(self):
        # sigma = -i R(pi) for each axis fixes the x and z sign conventions.
        sigma_x = np.array([[0, 1], [1, 0]])
        sigma_y = np.array([[0, -1j], [1j, 0]])
        sigma_z = np.array([[1, 0], [0, -1]])
        assert np.abs(-1j * rotation_2x2("x", np.pi) - sigma_x).max() < 1e-15
        assert np.abs(-1j * rotation_2x2("y", np.pi) - sigma_y).max() < 1e-15
        assert np.abs(-1j * rotation_2x2("z", np.pi) - sigma_z).max() < 1e-15

    def test_flip_second_spin(self):
        out = apply(single_spin_rotation(2, "y", np.pi), ket_from_basis(BasisLabel.UU))
        assert np.abs(out.amplitudes - [0, -1, 0, 0]).max() < 1e-12

    def test_zero_angle_is_identity(self):
        op = single_spin_rotation(1, "y", 0.0)
        assert np.abs(op.matrix - np.eye(4)).max() == 0.0

    def test_half_turn_second_spin(self):
        out = apply(single_spin_rotation(2, "y", np.pi / 2), ket_from_basis(BasisLabel.UU))
        expected = np.array([1, -1, 0, 0]) / np.sqrt(2)
        assert np.abs(out.amplitudes - expected).max() < 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            single_spin_rotation(3, "y", 0.1)
        with pytest.raises(ValueError):
            single_spin_rotation(1, "w", 0.1)
        with pytest.raises(ValueError):
            single_spin_rotation(1, "x", np.inf)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf, np.float64(np.nan)], ids=repr)
    def test_a_non_finite_angle_is_refused(self, axis, angle):
        with pytest.raises(ValueError, match="rotation angle must be finite"):
            rotation_2x2(axis, angle)

    @pytest.mark.parametrize("angle", [1, np.float64(0.73), np.int64(-3)], ids=repr)
    def test_int_and_numpy_angles_match_the_float(self, angle):
        for axis in "xyz":
            assert np.array_equal(rotation_2x2(axis, angle), rotation_2x2(axis, float(angle)))

    @pytest.mark.parametrize("spin", [True, 1.0, 2.0, 0, 3], ids=repr)
    def test_spin_must_be_the_integer_1_or_2(self, spin):
        with pytest.raises(ValueError, match=r"spin must be 1\.\.2"):
            single_spin_rotation(spin, "y", 0.3)

    def test_numpy_integer_spin_is_accepted(self):
        op = single_spin_rotation(np.int64(2), "y", 0.3)
        assert np.array_equal(op.matrix, single_spin_rotation(2, "y", 0.3).matrix)


class TestKron2:
    def test_equals_np_kron_on_rotations_and_the_identity(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        eye = np.eye(2, dtype=complex)
        for angle_a, angle_b in rng.uniform(-2 * np.pi, 2 * np.pi, size=(32, 2)):
            left = [rotation_2x2(axis, angle_a) for axis in "xyz"] + [eye]
            right = [rotation_2x2(axis, angle_b) for axis in "xyz"] + [eye]
            for a in left:
                for b in right:
                    assert np.array_equal(kron2(a, b), np.kron(a, b))


class TestOperators:
    def test_unitary_flag_validated(self):
        with pytest.raises(ValueError):
            Operator4(np.ones((4, 4)))

    def test_nan_matrix_is_not_unitary(self):
        with pytest.raises(ValueError):
            Operator4(np.full((4, 4), np.nan))

    def test_identity_application(self):
        rng = np.random.default_rng(RNG_SEED)
        psi = random_ket(rng)
        out = apply(identity(), psi)
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    def test_compose_single(self):
        op = single_spin_rotation(1, "x", 0.3)
        assert np.array_equal(compose([op]).matrix, op.matrix)

    def test_compose_same_axis_adds_angles(self):
        a = single_spin_rotation(2, "y", 0.4)
        b = single_spin_rotation(2, "y", 1.1)
        combined = compose([a, b])
        assert np.abs(combined.matrix - single_spin_rotation(2, "y", 1.5).matrix).max() < 1e-12

    def test_compose_applies_last_element_first(self):
        a = single_spin_rotation(1, "x", 0.7)
        b = single_spin_rotation(1, "y", 0.2)
        psi = ket_from_basis(BasisLabel.DU)
        left = apply(compose([a, b]), psi)
        right = apply(a, apply(b, psi))
        assert np.abs(left.amplitudes - right.amplitudes).max() < 1e-12

    def test_compose_requires_operators(self):
        with pytest.raises(ValueError):
            compose([])

    def test_scaled_keeps_unit_modulus_unitary(self):
        op = scaled(identity(), -1j)
        assert np.array_equal(op.matrix, -1j * np.eye(4))
        with pytest.raises(ValueError, match="unitarity"):
            scaled(identity(), 2.0)

    def test_adjoint_inverts(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        u = random_unitary(rng)
        assert np.abs((compose([u, u.adjoint()])).matrix - np.eye(4)).max() < 1e-12


def _old_unitary_defect(m):
    """The residual the unitarity check took against a float identity, kept here as the reference."""
    m = np.array(m, dtype=complex)
    return np.abs(m @ m.conj().T - np.eye(len(m))).max()


def _random_2x2_unitary(rng):
    a, b = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
    return rotation_2x2("x", a) @ rotation_2x2("y", b) * np.exp(2j * np.pi * rng.uniform())


def _unitary_cases(rng, u):
    """u, u scaled and perturbed so its residual straddles EXACT_TOL, and non-finite entries."""
    n = len(u)
    cases = [u]
    # (1 + eps) u has residual (2 + eps) eps: accepted below eps = 0.5 EXACT_TOL, refused above.
    # A 4x4's check takes the reference's own gram, so its factors come within 1e-6 of the bound.
    # A 2x2's Python products round apart from the gram's by ~1e-16, which would decide a verdict
    # that close, so its factors stay 2% away.
    for factor in (0.3, 0.49, 0.499999, 0.500001, 0.51, 0.7) if n == 4 else (0.3, 0.49, 0.51, 0.7):
        cases.append(u * (1 + factor * EXACT_TOL))
    for _ in range(4):
        bumped = u.copy()
        i, k = rng.integers(n, size=2)
        bumped[i, k] += EXACT_TOL * 10 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.uniform())
        cases.append(bumped)
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1.0), 1e200,
                complex(1e308, 1e308)):
        m = u.copy()
        m[rng.integers(n), rng.integers(n)] = bad
        cases.append(m)
    # An entry of m m^dagger - I that is finite but whose abs() overflows a float.
    m = np.eye(n, dtype=complex)
    m[1, 0] = complex(1.3e308, 1.3e308)
    cases.append(m)
    return cases


class TestUnitarityCheck:
    @pytest.mark.parametrize("size", [2, 4])
    def test_accepts_exactly_what_the_old_predicate_accepts(self, size, monkeypatch):
        def check(m):
            if size == 4:
                Operator4(m)
            else:  # the prep is the one caller of the 2x2 check; m stands in for its rotation
                monkeypatch.setattr(nmr, "rotation_2x2", lambda axis, angle: m)
                nmr.prepare_pseudo_pure()

        rng = np.random.default_rng(RNG_SEED + 9)
        finite_verdicts, messages = [], set()
        for _ in range(200):
            u = random_unitary(rng).matrix if size == 4 else _random_2x2_unitary(rng)
            for m in _unitary_cases(rng, u):
                # inf and 1e200 entries overflow or make inf - inf in both residuals.
                with np.errstate(invalid="ignore", over="ignore"):
                    defect = _old_unitary_defect(m)
                    try:
                        check(m)
                        accepted = True
                    except ValueError as exc:
                        accepted = False
                        messages.add(str(exc))
                        assert str(exc) == f"operator deviates from unitarity by {defect:.3e}"
                assert accepted == (defect < EXACT_TOL), m
                if np.isfinite(m).all():
                    finite_verdicts.append(accepted)
        # Finite matrices fall on both sides of the tolerance; non-finite ones report nan or inf.
        assert any(finite_verdicts) and not all(finite_verdicts)
        assert {"operator deviates from unitarity by nan",
                "operator deviates from unitarity by inf"} <= messages


class TestEqualUpToPhase:
    def test_sign_flip(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        psi = random_ket(rng)
        result = equal_up_to_phase(Ket4(-psi.amplitudes), psi, tol=1e-9)
        assert result.equal and abs(result.phase + 1) < 1e-9

    def test_quarter_phase(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        psi = random_ket(rng)
        result = equal_up_to_phase(Ket4(1j * psi.amplitudes), psi, tol=1e-9)
        assert result.equal and abs(result.phase - 1j) < 1e-9

    def test_orthogonal_states_differ(self):
        a = Ket4(np.array([1, 0, 0, 1]) / np.sqrt(2))
        b = Ket4(np.array([1, 0, 0, -1]) / np.sqrt(2))
        assert not equal_up_to_phase(a, b, tol=1e-9).equal

    def test_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            equal_up_to_phase(ket_from_basis(BasisLabel.UU), Ket4(np.zeros(4)), tol=1e-9)

    def test_rejects_mixed_kinds(self):
        with pytest.raises(TypeError):
            equal_up_to_phase(ket_from_basis(BasisLabel.UU), identity(), tol=1e-9)

    def test_rejects_nonpositive_tol(self):
        psi = ket_from_basis(BasisLabel.UU)
        with pytest.raises(ValueError):
            equal_up_to_phase(psi, psi, tol=0.0)

    def test_nan_never_matches(self):
        match = equal_up_to_phase(np.array([np.nan, 0, 0, 0]), np.array([1.0, 0, 0, 0]))
        assert match == (False, None)
        psi = ket_from_basis(BasisLabel.UU)
        with pytest.raises(ValueError):
            equal_up_to_phase(psi, psi, tol=np.nan)

    def test_scaled_but_not_phased_rejected(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        psi = random_ket(rng)
        assert not equal_up_to_phase(Ket4(2.0 * psi.amplitudes), psi, tol=1e-9).equal


class TestPartialTrace:
    def test_product_state(self):
        reduced = partial_trace(ket_from_basis(BasisLabel.UU), keep=1)
        assert np.abs(reduced.entries - [[1, 0], [0, 0]]).max() < 1e-12

    def test_bell_state_is_maximally_mixed(self):
        psi = Ket4(np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(psi, keep=2)
        assert np.abs(reduced.entries - np.eye(2) / 2).max() < 1e-12

    def test_bell_superposition_stays_maximally_mixed(self):
        # (psi1 - psi4)/sqrt2 in product amplitudes: (1, -1, 1, 1)/2.
        psi = Ket4(np.array([1, -1, 1, 1]) / 2.0)
        reduced = partial_trace(psi, keep=1)
        # Independent oracle: trace out spin 2 by explicit index sums.
        amp = psi.amplitudes.reshape(2, 2)
        oracle = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    oracle[a, b] += amp[a, c] * np.conj(amp[b, c])
        assert np.abs(reduced.entries - oracle).max() < 1e-12
        assert np.abs(reduced.entries - np.eye(2) / 2).max() < 1e-12

    def test_keep_validated(self):
        with pytest.raises(ValueError):
            partial_trace(ket_from_basis(BasisLabel.UU), keep=3)

    @pytest.mark.parametrize("keep", [True, 1.0, 2.0, 0, 3], ids=repr)
    def test_keep_must_be_the_integer_1_or_2(self, keep):
        with pytest.raises(ValueError, match=r"keep must be 1\.\.2"):
            partial_trace(ket_from_basis(BasisLabel.UD), keep)

    def test_numpy_integer_keep_is_accepted(self):
        psi = Ket4(np.array([1, 2j, 0, 1]) / np.sqrt(6))
        reduced = partial_trace(psi, np.int64(2))
        assert np.array_equal(reduced.entries, partial_trace(psi, 2).entries)

    def test_reduced_state_validation(self):
        with pytest.raises(ValueError):
            ReducedState(np.array([[0.5, 0.2], [0.3, 0.5]]))
        with pytest.raises(ValueError):
            ReducedState(np.array([[0.9, 0.0], [0.0, 0.2]]))

    def test_reduced_state_rejects_nan(self):
        with pytest.raises(ValueError):
            ReducedState(np.full((2, 2), np.nan))


def _old_reduced_state_ok(m):
    """The check ReducedState made on its own, kept here as the reference."""
    m = np.array(m, dtype=complex)
    if not np.abs(m - m.conj().T).max() < 1e-12:
        return False
    if not abs(m.trace() - 1.0) < 1e-12:
        return False
    eigs = np.linalg.eigvalsh(m)
    return bool(eigs.min() >= -1e-12 and eigs.max() <= 1.0 + 1e-12)


def _old_deviation_matrix_ok(m):
    """The check DeviationMatrix made on its own, kept here as the reference."""
    m = np.array(m, dtype=complex)
    return bool(np.abs(m - m.conj().T).max() < 1e-12 and abs(m.trace()) < 1e-12)


def _random_density_2x2(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / rho.trace().real


def _random_traceless_4x4(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2
    return h - np.eye(4) * h.trace().real / 4


def _perturbed(rng, base):
    """The base, its off-diagonal skews and trace offsets, and a NaN and an inf entry."""
    n = base.shape[0]
    cases = [base]
    for delta in (0.5e-12, 2e-12):
        for phase in (1, 1j, -1):
            i, k = rng.choice(n, size=2, replace=False)
            skewed = base.copy()
            skewed[i, k] += phase * delta
            cases.append(skewed)
        for sign in (1, -1):
            shifted = base.copy()
            i = rng.integers(n)
            shifted[i, i] += sign * delta
            cases.append(shifted)
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf)):
        m = base.copy()
        m[rng.integers(n), rng.integers(n)] = bad
        cases.append(m)
    return cases


class TestHermitianCheck:
    @pytest.mark.parametrize("make, reference, draw", [
        (ReducedState, _old_reduced_state_ok, _random_density_2x2),
        (DeviationMatrix, _old_deviation_matrix_ok, _random_traceless_4x4),
    ], ids=["ReducedState", "DeviationMatrix"])
    def test_accepts_exactly_what_the_old_predicate_accepts(self, make, reference, draw):
        rng = np.random.default_rng(RNG_SEED)
        verdicts = []
        for _ in range(200):
            for m in _perturbed(rng, draw(rng)):
                # An inf on the diagonal makes inf - inf in both checks.
                with np.errstate(invalid="ignore"):
                    try:
                        make(m)
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == reference(m), m
                verdicts.append(accepted)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("make, n", [(ReducedState, 2), (DeviationMatrix, 4)],
                             ids=["ReducedState", "DeviationMatrix"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_inf_on_the_diagonal_raises_value_error_without_a_warning(self, make, n, bad):
        # No np.errstate here: the suite turns warnings into errors, so a
        # RuntimeWarning from inf - inf would be raised in place of the ValueError.
        m = np.eye(n, dtype=complex) / n
        m[n - 1, n - 1] = bad
        with pytest.raises(ValueError, match="must be Hermitian"):
            make(m)

    def test_skew_too_large_for_abs_is_not_hermitian(self):
        # abs() of a Python complex whose finite parts overflow raises OverflowError.
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = complex(1.5e308, 1.5e308)
        with pytest.raises(ValueError, match="deviation matrix must be Hermitian"):
            DeviationMatrix(m)

    @pytest.mark.parametrize("make, entries, message", [
        (ReducedState, [[0.5, 0.2], [0.3, 0.5]], "reduced state must be Hermitian"),
        (ReducedState, [[0.5, 0.0], [0.0, 0.6]], "reduced state must have trace 1"),
        (DeviationMatrix, np.diag([1.0, 0.0, 0.0, 0.0]), "deviation matrix must have trace 0"),
        (DeviationMatrix, np.triu(np.ones((4, 4))), "deviation matrix must be Hermitian"),
    ])
    def test_names_the_failed_property(self, make, entries, message):
        with pytest.raises(ValueError, match=message):
            make(np.array(entries))


class TestCheckedMember:
    @pytest.mark.parametrize("value", ["x", "y"])
    def test_returns_a_member(self, value):
        assert checked_member(value, ("x", "y"), "axis") is value

    @pytest.mark.parametrize("allowed,text", [(("x", "y"), "x or y"), (("z",), "z")])
    @pytest.mark.parametrize("value", ["q", "", None, 1, ["y"], ["z"], {"y": 1}])
    def test_names_the_members_and_the_value(self, allowed, text, value):
        # An unhashable value raises the same ValueError, never a TypeError.
        with pytest.raises(ValueError, match=f"^axis must be {text}, got {re.escape(repr(value))}$"):
            checked_member(value, allowed, "axis")


class TestMeasurement:
    def test_deterministic_state(self):
        result = measure_basis(ket_from_basis(BasisLabel.UU))
        assert isinstance(result, Measurement)
        assert result.argmax is BasisLabel.UU
        assert result.probabilities[BasisLabel.UU] == 1.0
        assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-12)

    def test_even_superposition_tie_breaks_low(self):
        psi3 = Ket4(np.array([0, 1, 1, 0]) / np.sqrt(2))
        result = measure_basis(psi3)
        assert result.probabilities[BasisLabel.UD] == pytest.approx(0.5, abs=1e-12)
        assert result.probabilities[BasisLabel.DU] == pytest.approx(0.5, abs=1e-12)
        assert result.argmax is BasisLabel.UD

    def test_probabilities_nonnegative_and_normalized(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for _ in range(25):
            result = measure_basis(random_ket(rng))
            values = np.array(list(result.probabilities.values()))
            assert values.min() >= 0.0
            assert abs(values.sum() - 1.0) < 1e-12


def frozen_copy(array, loaded) -> bool:
    """loaded holds array's exact bits in a read-only array of its own."""
    return (loaded.tobytes() == array.tobytes() and loaded.dtype == array.dtype
            and not loaded.flags.writeable and not np.shares_memory(loaded, array))


class TestPickle:
    """A value pickles by its fields, so a load checks and freezes them again."""

    @pytest.mark.parametrize("value, field", [
        (ket_from_basis(BasisLabel.DU), "amplitudes"),
        (build_G(preset("y", 1)), "matrix"),
        (to_bell_coords(bell_state(3)), "coords"),
        (partial_trace(apply(build_G(preset("x", 2)), ket_from_basis(BasisLabel.UD)), 1), "entries"),
    ], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
    def test_round_trip_is_bit_equal_and_read_only(self, value, field):
        loaded = pickle.loads(pickle.dumps(value))
        assert type(loaded) is type(value)
        assert frozen_copy(getattr(value, field), getattr(loaded, field))
        with pytest.raises(ValueError, match="read-only"):
            getattr(loaded, field)[0] = 7

    def test_records_round_trip_their_values(self):
        trace = run_protocol(preset("x", 3), 2)
        loaded = pickle.loads(pickle.dumps(trace))
        assert frozen_copy(trace.starting_bell.coords, loaded.starting_bell.coords)
        assert frozen_copy(trace.encoded.coords, loaded.encoded.coords)
        assert (loaded.u_choice, loaded.message, loaded.output_label, loaded.probabilities) == (
            trace.u_choice, trace.message, trace.output_label, trace.probabilities)
        for entry in table1(preset("y", 2)):
            again = pickle.loads(pickle.dumps(entry))
            assert frozen_copy(entry.output.coords, again.output.coords)
            assert (again.input, again.display) == (entry.input, entry.display)

    def test_an_ancilla_result_round_trips_its_values(self):
        for value in range(8):
            result = run_ancilla_protocol(AncillaMessage.from_value(value))
            loaded = pickle.loads(pickle.dumps(result))
            assert type(loaded) is AncillaResult and loaded.recovered == result.recovered
            trace, again = result.trace, loaded.trace
            assert frozen_copy(trace.starting_bell.coords, again.starting_bell.coords)
            assert frozen_copy(trace.encoded.coords, again.encoded.coords)
            assert (again.u_choice, again.message, again.output_label, again.probabilities) == (
                trace.u_choice, trace.message, trace.output_label, trace.probabilities)

    def test_a_tampered_operator_pickle_is_checked_on_load(self):
        # Every 1.0 of the identity's bytes becomes 2.0: the payload is 2 * I.
        one, two = np.float64(1.0).tobytes(), np.float64(2.0).tobytes()
        dumped = pickle.dumps(identity())
        assert dumped.count(one) == 4
        with pytest.raises(ValueError, match="operator deviates from unitarity"):
            pickle.loads(dumped.replace(one, two))
