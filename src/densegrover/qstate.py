"""Linear-algebra substrate for a pair of spin-1/2 particles.

States live in the four-dimensional product space with basis ordered
(up-up, up-down, down-up, down-down).  Rotations are generated by the
half-Pauli spin operators via R_axis(angle) = exp(i * angle * I_axis),
so R_y(theta) has rows [cos(t/2), sin(t/2); -sin(t/2), cos(t/2)].
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple

import numpy as np

# One tolerance per meaning of "close enough", each 1e3 above the float error its check sees
# (EXACT_TOL 100) and 1e3 below a wrong answer's gap; tests/test_tolerance_margins.py measures both.
# The exact-arithmetic identities: unitarity, Hermiticity, unit trace and phase matches.
EXACT_TOL = 1e-12
# Below this a gate's distance to its target, or the prep's relative deviation, verifies.
VERIFY_TOL = 1e-9
# A computed Table-1 entry's distance from the published one, up to phase.
REFERENCE_TOL = 1e-9
# A Bell coordinate or spectrum line that counts as zero, or as of full weight.
CLASSIFY_TOL = 1e-9
# A CSV value that prints as 0, so pulse-level CSVs match the ideal ones byte for byte.
DISPLAY_ZERO = 1e-9
# An angle's distance from a preset's that still selects the preset.
PRESET_TOL = 1e-15
# A display coefficient's distance from +-1 or +-i.
SIGN_TOL = 1e-6

_EYE2 = np.eye(2, dtype=complex)
_EYE4 = np.eye(4, dtype=complex)
SPINS = range(1, 3)


class BasisLabel(enum.Enum):
    """Product-basis label; values are the canonical indices 0..3."""

    UU = 0
    UD = 1
    DU = 2
    DD = 3

    @property
    def index(self) -> int:
        return self.value

    @property
    def spin1(self) -> str:
        return "up" if self.value in (0, 1) else "down"

    @property
    def spin2(self) -> str:
        return "up" if self.value in (0, 2) else "down"

    @property
    def arrows(self) -> str:
        return self.short.replace("u", "↑").replace("d", "↓")

    @property
    def short(self) -> str:
        return ("u" if self.spin1 == "up" else "d") + ("u" if self.spin2 == "up" else "d")

    @classmethod
    def from_index(cls, index: int) -> "BasisLabel":
        return cls(index)

    @classmethod
    def from_string(cls, text: str) -> "BasisLabel":
        table = {label.short: label for label in cls}
        key = text.strip().lower()
        if key not in table:
            raise ValueError(f"unknown basis label {text!r}; expected one of uu, ud, du, dd")
        return table[key]


# The labels in canonical index order.
_LABELS = tuple(BasisLabel)


def _frozen_array(data, shape) -> np.ndarray:
    arr = np.array(data, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _finite_vector(data, name: str) -> np.ndarray:
    """A frozen 4-vector; a ValueError naming `name` if an entry is NaN or infinite."""
    arr = _frozen_array(data, (4,))
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _by_fields(obj) -> tuple:
    """A dataclass's pickle reduction: its constructor and field values.

    A load then runs __post_init__, so it checks and freezes the values
    again, where the default reduction would restore the instance dict
    unchecked and its arrays writeable.
    """
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


# Per matrix size n, the row-major indices of the entries on and above the
# diagonal, (i, j) for i <= j, and of their mirrors (j, i).
_UPPER = {n: operator.itemgetter(*(n * i + j for i in range(n) for j in range(i, n))) for n in (2, 4)}
_MIRROR = {n: operator.itemgetter(*(n * j + i for i in range(n) for j in range(i, n))) for n in (2, 4)}


def check_hermitian(m: np.ndarray, trace: int, name: str) -> None:
    """Raise a ValueError naming `name` unless m is Hermitian with the given
    trace, each within EXACT_TOL.  Written so that a NaN entry fails.

    m is a complex 2x2 or 4x4 array.  The test runs on Python complex
    numbers, where an inf entry gives inf - inf = NaN without numpy's
    RuntimeWarning, and sums a 4x4 trace as (d0 + d1) + (d2 + d3), the
    order numpy's pairwise sum uses."""
    a = m.ravel().tolist()
    n = len(m)
    # abs(m[i, j] - conj(m[j, i])) < EXACT_TOL for every i <= j, iterated by map()
    # in C; EXACT_TOL > NaN is false, so a NaN fails.
    skews = map(abs, map(operator.sub, _UPPER[n](a), map(complex.conjugate, _MIRROR[n](a))))
    try:
        hermitian = all(map(EXACT_TOL.__gt__, skews))
    except OverflowError:  # abs() of a skew whose finite parts overflow a float
        hermitian = False
    if not hermitian:
        raise ValueError(f"{name} must be Hermitian")
    total = (a[0] + a[5]) + (a[10] + a[15]) if n == 4 else a[0] + a[3]
    if not abs(total - trace) < EXACT_TOL:
        raise ValueError(f"{name} must have trace {trace}")


def _check_unitary(m: np.ndarray) -> None:
    """Raise a ValueError unless each entry of m m^dagger - I (m 2x2 or 4x4) is below EXACT_TOL.

    A 2x2 gets its verdict on Python complex numbers from one tolist(), as
    `check_hermitian` reads its matrix: m m^dagger - I is Hermitian, so its
    diagonal pair and one off-diagonal entry (the other is that one's
    conjugate) decide.  A 4x4, and a 2x2 that fails, take the numpy gram,
    which gives the message; a verdict within rounding of the bound may
    differ between the two, as their products round apart."""
    if len(m) == 2:
        (a, b), (c, d) = m.tolist()
        a_, b_ = a.conjugate(), b.conjugate()
        try:  # a NaN fails each comparison
            if (abs(a * a_ + b * b_ - 1) < EXACT_TOL and abs(c * a_ + d * b_) < EXACT_TOL
                    and abs(c * c.conjugate() + d * d.conjugate() - 1) < EXACT_TOL):
                return
        except OverflowError:  # abs() of an entry whose finite parts overflow a float
            pass
    # dot() dispatches faster than @; a complex identity, subtracted in place, is not cast.
    gram = m.dot(m.conj().T)
    gram -= _EYE4 if len(m) == 4 else _EYE2
    skews = np.abs(gram)
    # A 2x2 here has failed; for a 4x4 a NaN fails, and all() is cheaper than max().
    if len(m) == 2 or not all(map(EXACT_TOL.__gt__, skews.ravel().tolist())):
        raise ValueError(f"operator deviates from unitarity by {skews.max():.3e}")


def checked_index(value, allowed: range, name: str) -> int:
    """value if it is an integer in `allowed`, else a ValueError naming it.

    `value in allowed` alone would pass True (bool is an int subclass)
    and 2.0 (equal to 2), so the type is checked first, an int's by type().
    """
    is_int = type(value) is int or isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not is_int or value not in allowed:
        raise ValueError(f"{name} must be {allowed[0]}..{allowed[-1]}, got {value!r}")
    return value


def checked_member(value, allowed: tuple, name: str):
    """value if it is one of `allowed`, else a ValueError naming it; tuple
    membership compares by ==, so an unhashable value raises it too."""
    if value not in allowed:
        raise ValueError(f"{name} must be {' or '.join(allowed)}, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class Ket4:
    """State vector of the two-spin system in the product basis."""

    amplitudes: np.ndarray

    __reduce__ = _by_fields

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _finite_vector(self.amplitudes, "ket amplitudes"))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class Operator4:
    """4x4 unitary operator; unitarity is checked at construction."""

    matrix: np.ndarray

    __reduce__ = _by_fields

    def __post_init__(self):
        m = _frozen_array(self.matrix, (4, 4))
        object.__setattr__(self, "matrix", m)
        _check_unitary(m)

    def adjoint(self) -> "Operator4":
        return Operator4(self.matrix.conj().T)


@dataclass(frozen=True, eq=False)
class ReducedState:
    """Single-spin density matrix obtained by a partial trace."""

    entries: np.ndarray

    __reduce__ = _by_fields

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, (2, 2)))
        m = self.entries
        check_hermitian(m, 1, "reduced state")
        eigs = np.linalg.eigvalsh(m)
        if not (eigs.min() >= -EXACT_TOL and eigs.max() <= 1.0 + EXACT_TOL):
            raise ValueError("reduced-state eigenvalues must lie in [0, 1]")


class PhaseMatch(NamedTuple):
    equal: bool
    phase: complex | None


class Measurement(NamedTuple):
    probabilities: dict
    argmax: BasisLabel


def ket_from_basis(label: BasisLabel) -> Ket4:
    """Unit vector with amplitude 1 at the label's canonical index."""
    amps = np.zeros(4, dtype=complex)
    amps[label.index] = 1.0
    return Ket4(amps)


def rotation_2x2(axis: str, angle: float) -> np.ndarray:
    """exp(i * angle * I_axis) for the half-Pauli spin operators."""
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    # One flat tuple, reshaped: numpy reads it faster than nested lists.
    if axis == "x":
        return np.array((c, 1j * s, 1j * s, c), dtype=complex).reshape(2, 2)
    if axis == "y":
        return np.array((c, s, -s, c), dtype=complex).reshape(2, 2)
    if axis == "z":
        return np.array((np.exp(1j * angle / 2.0), 0.0, 0.0, np.exp(-1j * angle / 2.0))).reshape(2, 2)
    raise ValueError(f"unknown rotation axis {axis!r}; expected x, y, or z")


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices, equal to np.kron(a, b) entry for entry.

    One broadcast multiply and a reshape; np.kron's general-shape
    bookkeeping costs several times the arithmetic at this size.
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def single_spin_rotation(spin: int, axis: str, angle: float) -> Operator4:
    """Rotation of one spin embedded in the two-spin space."""
    r = rotation_2x2(axis, angle)
    if checked_index(spin, SPINS, "spin") == 1:
        return Operator4(kron2(r, _EYE2))
    return Operator4(kron2(_EYE2, r))


def identity() -> Operator4:
    return Operator4(np.eye(4, dtype=complex))


def apply(op: Operator4, state: Ket4) -> Ket4:
    """Matrix-vector product."""
    return Ket4(op.matrix @ state.amplitudes)


def compose(ops: Iterable[Operator4]) -> Operator4:
    """Product of operators; the last list element acts first on a state."""
    ops = list(ops)
    if not ops:
        raise ValueError("compose requires at least one operator")
    matrix = ops[0].matrix
    for op in ops[1:]:
        matrix = matrix @ op.matrix
    return Operator4(matrix)


def scaled(op: Operator4, factor: complex) -> Operator4:
    """Scalar multiple; a factor off the unit circle raises ValueError."""
    return Operator4(np.asarray(factor) * op.matrix)


def _raw(obj) -> np.ndarray:
    for attr in ("amplitudes", "matrix", "coords", "entries"):
        if hasattr(obj, attr):
            return np.asarray(getattr(obj, attr))
    return np.asarray(obj, dtype=complex)


def phase_fit(a: np.ndarray, b: np.ndarray) -> tuple:
    """The scalar lam with a ~ lam * b, and the residual max |a - lam * b|.

    lam is read off the largest-magnitude entry of b, which keeps the
    extraction deterministic and well conditioned.
    """
    flat_b = b.ravel()
    pivot = int(np.argmax(np.abs(flat_b)))
    if abs(flat_b[pivot]) == 0.0:
        raise ValueError("reference object is zero; phase comparison is undefined")
    lam = complex(a.ravel()[pivot] / flat_b[pivot])
    return lam, float(np.abs(a - lam * b).max())


def equal_up_to_phase(a, b, tol: float = EXACT_TOL) -> PhaseMatch:
    """Test a = phase * b entrywise for some unit scalar phase.

    Works on Ket4, Operator4, Bell-coordinate vectors, or bare arrays,
    as long as both arguments are the same kind of object.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        if type(a) is not type(b):
            raise TypeError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    va, vb = _raw(a), _raw(b)
    if va.shape != vb.shape:
        raise ValueError(f"shape mismatch: {va.shape} vs {vb.shape}")
    lam, residual = phase_fit(va, vb)
    if not (abs(abs(lam) - 1.0) <= tol and residual <= tol):  # NaN fails
        return PhaseMatch(False, None)
    return PhaseMatch(True, lam)


def partial_trace(state: Ket4, keep: int) -> ReducedState:
    """Reduced density matrix of one spin, tracing out the other."""
    psi = state.amplitudes.reshape(2, 2)
    if checked_index(keep, SPINS, "keep") == 1:
        rho = np.einsum("ab,cb->ac", psi, psi.conj())
    else:
        rho = np.einsum("ab,ac->bc", psi, psi.conj())
    return ReducedState(rho)


def measure_basis(state: Ket4) -> Measurement:
    """Born-rule probabilities; argmax ties break toward the lowest index."""
    probs = np.abs(state.amplitudes) ** 2
    # argmax returns the first maximum, which is the lowest canonical index.
    return Measurement(dict(zip(_LABELS, probs.tolist())), _LABELS[int(probs.argmax())])
