import re

import numpy as np
import pytest

from densegrover.bell import (
    BellVector,
    bell_state,
    from_bell_coords,
    rotate_epr,
    to_bell_coords,
)
from densegrover.qstate import (
    Ket4,
    apply,
    equal_up_to_phase,
    partial_trace,
    single_spin_rotation,
)

RNG_SEED = 7151


def test_bell_state_definitions():
    s = 1 / np.sqrt(2)
    assert np.abs(bell_state(1).amplitudes - [s, 0, 0, s]).max() < 1e-15
    assert np.abs(bell_state(2).amplitudes - [s, 0, 0, -s]).max() < 1e-15
    assert np.abs(bell_state(3).amplitudes - [0, s, s, 0]).max() < 1e-15
    assert np.abs(bell_state(4).amplitudes - [0, s, -s, 0]).max() < 1e-15


def test_bell_states_orthonormal():
    for i in range(1, 5):
        for j in range(1, 5):
            inner = np.vdot(bell_state(i).amplitudes, bell_state(j).amplitudes)
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-12


@pytest.mark.parametrize("call", [bell_state, lambda i: rotate_epr(i, "y", 0.3)],
                         ids=["bell_state", "rotate_epr"])
@pytest.mark.parametrize("index", [True, 2.0, 0, 5])
def test_index_validated(call, index):
    # True and 2.0 equal valid indices, so only a type check refuses them.
    with pytest.raises(ValueError, match=r"Bell index must be 1\.\.4"):
        call(index)


def test_numpy_integer_index_accepted():
    assert np.array_equal(bell_state(np.int64(2)).amplitudes, bell_state(2).amplitudes)
    assert np.array_equal(rotate_epr(np.int64(2), "x", 0.3).coords, rotate_epr(2, "x", 0.3).coords)


def test_up_up_expansion():
    coords = to_bell_coords(Ket4(np.array([1, 0, 0, 0], dtype=complex)))
    s = 1 / np.sqrt(2)
    assert np.abs(coords.coords - [s, s, 0, 0]).max() < 1e-12


def test_pure_bell_coordinates():
    coords = to_bell_coords(bell_state(3))
    assert np.abs(coords.coords - [0, 0, 1, 0]).max() < 1e-12


def test_round_trip_is_identity():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = Ket4(raw / np.linalg.norm(raw))
        back = from_bell_coords(to_bell_coords(psi))
        assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-12


def test_conversion_is_isometry():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(50):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = Ket4(raw / np.linalg.norm(raw))
        assert abs(to_bell_coords(psi).norm - 1.0) < 1e-12


def test_y_rotation_of_first_bell_state():
    out = rotate_epr(1, "y", np.pi / 2)
    s = 1 / np.sqrt(2)
    assert np.abs(out.coords - [s, 0, 0, -s]).max() < 1e-12


def test_zero_angle_fixes_state():
    assert np.abs(rotate_epr(1, "y", 0.0).coords - [1, 0, 0, 0]).max() < 1e-15


def test_x_rotation_of_first_bell_state():
    out = rotate_epr(1, "x", np.pi / 2)
    s = 1 / np.sqrt(2)
    assert np.abs(out.coords - [s, 0, 1j * s, 0]).max() < 1e-12


@pytest.mark.parametrize("axis", ["z", ["y"], ["x", "y"]])
def test_axis_validated(axis):
    with pytest.raises(ValueError, match=f"^axis must be x or y, got {re.escape(repr(axis))}$"):
        rotate_epr(1, axis, 0.1)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_angle_rejected(axis, theta):
    # pyproject.toml turns warnings into errors, so numpy's RuntimeWarning would fail this too.
    with pytest.raises(ValueError, match="rotation angle must be finite"):
        rotate_epr(1, axis, theta)


@pytest.mark.parametrize("theta", [1 + 1j, 0.3 + 0j, np.complex128(0.3), np.complex64(-0.5j),
                                   complex(np.nan, 0.0), np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_complex_or_non_finite_angle_rejected(axis, theta):
    # A complex angle, even one with no imaginary part, would give an unnormalized vector.
    with pytest.raises(ValueError, match="^rotation angle must be finite and real$"):
        rotate_epr(1, axis, theta)


def _matrix_path(i, axis, theta):
    rotated = apply(single_spin_rotation(2, axis, theta), bell_state(i))
    return to_bell_coords(rotated)


def test_closed_forms_match_matrix_path():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(100):
        i = int(rng.integers(1, 5))
        axis = "x" if rng.integers(2) else "y"
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        closed = rotate_epr(i, axis, theta)
        direct = _matrix_path(i, axis, theta)
        assert np.abs(closed.coords - direct.coords).max() < 1e-12


def test_rotated_states_stay_maximally_entangled():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(100):
        i = int(rng.integers(1, 5))
        axis = "x" if rng.integers(2) else "y"
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        psi = from_bell_coords(rotate_epr(i, axis, theta))
        for keep in (1, 2):
            reduced = partial_trace(psi, keep)
            assert np.abs(reduced.entries - np.eye(2) / 2).max() < 1e-12


def test_rotations_compose_additively():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(100):
        i = int(rng.integers(1, 5))
        axis = "x" if rng.integers(2) else "y"
        t1 = float(rng.uniform(-np.pi, np.pi))
        t2 = float(rng.uniform(-np.pi, np.pi))
        stepwise = apply(
            single_spin_rotation(2, axis, t2),
            from_bell_coords(rotate_epr(i, axis, t1)),
        )
        assert np.abs(
            to_bell_coords(stepwise).coords - rotate_epr(i, axis, t1 + t2).coords
        ).max() < 1e-12


def test_equal_up_to_phase_supports_bell_vectors():
    v = rotate_epr(2, "y", 0.3)
    flipped = BellVector(-v.coords)
    result = equal_up_to_phase(flipped, v, tol=1e-12)
    assert result.equal and abs(result.phase + 1) < 1e-12
