import numpy as np
import pytest

from densegrover.qstate import (
    BasisLabel,
    Ket4,
    Measurement,
    Operator4,
    ReducedState,
    apply,
    compose,
    equal_up_to_phase,
    identity,
    ket_from_basis,
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

    def test_reduced_state_validation(self):
        with pytest.raises(ValueError):
            ReducedState(np.array([[0.5, 0.2], [0.3, 0.5]]))
        with pytest.raises(ValueError):
            ReducedState(np.array([[0.9, 0.0], [0.0, 0.2]]))

    def test_reduced_state_rejects_nan(self):
        with pytest.raises(ValueError):
            ReducedState(np.full((2, 2), np.nan))


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
