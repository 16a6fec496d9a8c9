"""Amplitude-amplification operator for Bell-state synthesis.

The composite operator G = -U * I_s * U^-1 * I_t * U, with U a pair of
single-spin rotations by arbitrary angles, maps each product-basis
state to a Bell state or an equal-weight superposition of two Bell
states.  Eight named angle presets (four per rotation axis) make G
produce exactly the four Bell states from the up-up input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bell
from .qstate import (
    BasisLabel,
    Operator4,
    checked_index,
    kron2,
    rotation_2x2,
)

_PI = np.pi

# Bound of the (G, G^-1) memo.  The eight presets fit with room to spare;
# generic angles cycle through the rest.
_ANGLE_CHOICES = 16

# Preset rotation angles (phi1, phi2), indexed 1..4 per axis.
_PRESET_ANGLES = {
    "y": {
        1: (_PI / 4, 3 * _PI / 4),
        2: (_PI / 4, -3 * _PI / 4),
        3: (_PI / 4, _PI / 4),
        4: (_PI / 4, -_PI / 4),
    },
    "x": {
        1: (_PI / 4, -3 * _PI / 4),
        2: (_PI / 4, 3 * _PI / 4),
        3: (_PI / 4, _PI / 4),
        4: (_PI / 4, -_PI / 4),
    },
}


@dataclass(frozen=True)
class UChoice:
    """Axis and rotation angles defining U = R_axis^1(phi1) R_axis^2(phi2)."""

    axis: str
    phi1: float
    phi2: float

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError(f"axis must be x or y, got {self.axis!r}")
        for name in ("phi1", "phi2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True, eq=False)
class Table1Entry:
    """One classified input: its Bell-coordinate image and a display string."""

    input: BasisLabel
    output: bell.BellVector
    display: str


def preset(axis: str, j: int) -> UChoice:
    """Named angle choice j (1..4) for the given rotation axis."""
    if axis not in _PRESET_ANGLES:
        raise ValueError(f"axis must be x or y, got {axis!r}")
    phi1, phi2 = _PRESET_ANGLES[axis][checked_index(j, range(1, 5), "preset index")]
    return UChoice(axis, phi1, phi2)


def preset_index(c: UChoice) -> int | None:
    """Index of c among its axis's presets, or None for generic angles."""
    for j, (phi1, phi2) in _PRESET_ANGLES[c.axis].items():
        if abs(c.phi1 - phi1) < 1e-15 and abs(c.phi2 - phi2) < 1e-15:
            return j
    return None


def is_preset(c: UChoice) -> bool:
    return preset_index(c) is not None


def build_U(c: UChoice) -> Operator4:
    """U = R_axis^1(phi1) * R_axis^2(phi2) (the two factors commute)."""
    return Operator4(kron2(rotation_2x2(c.axis, c.phi1), rotation_2x2(c.axis, c.phi2)))


# I_t and I_s are fixed; Operator4 stores them read-only, so one copy is shared.
_SIGN_FLIP_TARGET = Operator4(np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))
_PHASE_SHIFT_S = Operator4(np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex))


def sign_flip_target() -> Operator4:
    """Conditional sign flip diag(1, -1, -1, 1)."""
    return _SIGN_FLIP_TARGET


def phase_shift_s() -> Operator4:
    """Conditional phase shift diag(-1, 1, 1, 1) marking the up-up state."""
    return _PHASE_SHIFT_S


def build_G(c: UChoice) -> Operator4:
    """G = -U * I_s * U^-1 * I_t * U; the first of build_G_pair(c)."""
    return build_G_pair(c)[0]


def build_G_inverse(c: UChoice) -> Operator4:
    """G^-1 = -U^-1 * I_t * U * I_s * U^-1; the second of build_G_pair(c)."""
    return build_G_pair(c)[1]


@functools.lru_cache(maxsize=_ANGLE_CHOICES)
def build_G_pair(c: UChoice) -> tuple[Operator4, Operator4]:
    """(G, G^-1) from one U, each checked unitary once as a whole.

    I_t and I_s are involutions, so G^-1 is G's factors in reverse with
    U and U^-1 swapped.  Memoised per angle choice; both are immutable.
    """
    u = build_U(c).matrix
    u_inv = u.conj().T
    i_s, i_t = _PHASE_SHIFT_S.matrix, _SIGN_FLIP_TARGET.matrix
    return Operator4(-(u @ i_s @ u_inv @ i_t @ u)), Operator4(-(u_inv @ i_t @ u @ i_s @ u_inv))


def _format_coefficient(value: complex, tol: float) -> str | None:
    """Render a snapped coefficient from {1, -1, i, -i}, else None."""
    for text, target in (("+", 1.0), ("-", -1.0), ("+i", 1j), ("-i", -1j)):
        if abs(value - target) < tol:
            return text
    return None


def bell_combination_str(v: bell.BellVector, tol: float = 1e-9) -> str:
    """Human-readable Bell combination with a normalized display phase.

    The overall phase is fixed by rotating the first nonzero coordinate
    to the positive real axis, so single Bell states print without a
    sign and two-state superpositions print as (|psi_a> +- |psi_b>)/sqrt2
    or (|psi_a> +- i|psi_b>)/sqrt2.
    """
    coords = v.coords
    nonzero = [k for k in range(4) if abs(coords[k]) > tol]
    if not nonzero:
        raise ValueError("cannot format the zero vector")
    lead = coords[nonzero[0]]
    normalized = coords * (lead.conjugate() / abs(lead))
    terms = []
    scale = abs(normalized[nonzero[0]])
    uniform = all(abs(abs(normalized[k]) - scale) < tol for k in nonzero)
    if uniform and (len(nonzero) == 1 or abs(scale - 1 / np.sqrt(2.0)) < tol):
        for k in nonzero:
            sign = _format_coefficient(normalized[k] / scale, 1e-6)
            if sign is None:
                uniform = False
                break
            terms.append((sign, k))
    if uniform and len(nonzero) == 1:
        return f"|ψ{nonzero[0] + 1}>"
    if uniform and len(nonzero) == 2:
        first = f"|ψ{terms[0][1] + 1}>"
        second = f"{terms[1][0]}|ψ{terms[1][1] + 1}>"
        return f"({first}{second})/√2"
    # Generic angles produce non-tabulated weights; print them numerically.
    parts = [f"({normalized[k]:.6g})|ψ{k + 1}>" for k in nonzero]
    return " + ".join(parts)


def table1(c: UChoice) -> list[Table1Entry]:
    """Classify G(c) on the four product-basis inputs, in canonical order."""
    if not is_preset(c):
        raise ValueError(
            "table classification requires one of the eight named presets; "
            "apply build_G directly for generic angles"
        )
    # G's column i is G applied to basis input i.
    images = bell.BELL_ADJOINT @ build_G(c).matrix
    entries = []
    for label in BasisLabel:
        out = bell.BellVector(images[:, label.index])
        entries.append(Table1Entry(label, out, bell_combination_str(out)))
    return entries
