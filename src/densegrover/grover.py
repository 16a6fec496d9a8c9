"""Amplitude-amplification operator for Bell-state synthesis.

The composite operator G = -U * I_s * U^-1 * I_t * U takes U, a pair
of single-spin rotations, at arbitrary angles.  At the eight named angle
presets (four per rotation axis) G maps each product-basis state to a
Bell state or an equal-weight superposition of two Bell states (Table 1),
and produces exactly the four Bell states from the up-up input; at other
angles a column of G is in general an unequal mix of more Bell states.
The factor order is written once, in time order, as `G_FACTORS`; `build_G_pair`
and `nmr`'s pulse programs read it and its inverse, `G_INVERSE_FACTORS`.

The builders take arbitrary angles and compute on every call; each
preset's choice (`preset`) and its G, G^-1 and Table-1 entries are
values built at import, the latter in `PRESETS`, keyed on (kind, j).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bell
from .qstate import (CLASSIFY_TOL, PRESET_TOL, SIGN_TOL, BasisLabel, Operator4, checked_index,
                     checked_member, kron2, rotation_2x2)

_PI = np.pi
_AXES = ("x", "y")

@dataclass(frozen=True)
class UChoice:
    """Axis and rotation angles defining U = R_axis^1(phi1) R_axis^2(phi2)."""

    axis: str
    phi1: float
    phi2: float

    def __post_init__(self):
        checked_member(self.axis, _AXES, "axis")
        for name in ("phi1", "phi2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


# The named presets, indexed 1..4 per axis; a UChoice is frozen, so each is one shared value.
_PRESET_CHOICES = {
    "y": {
        1: UChoice("y", _PI / 4, 3 * _PI / 4),
        2: UChoice("y", _PI / 4, -3 * _PI / 4),
        3: UChoice("y", _PI / 4, _PI / 4),
        4: UChoice("y", _PI / 4, -_PI / 4),
    },
    "x": {
        1: UChoice("x", _PI / 4, -3 * _PI / 4),
        2: UChoice("x", _PI / 4, 3 * _PI / 4),
        3: UChoice("x", _PI / 4, _PI / 4),
        4: UChoice("x", _PI / 4, -_PI / 4),
    },
}


@dataclass(frozen=True, eq=False)
class Table1Entry:
    """One classified input: its Bell-coordinate image and a display string."""

    input: BasisLabel
    output: bell.BellVector
    display: str


def preset(axis: str, j: int) -> UChoice:
    """Named angle choice j (1..4) for the given rotation axis, built at import."""
    checked_member(axis, _AXES, "axis")
    return _PRESET_CHOICES[axis][checked_index(j, range(1, 5), "preset index")]


def preset_index(c: UChoice) -> int | None:
    """Index of c among its axis's presets, each angle within `PRESET_TOL`, or None."""
    for j, p in _PRESET_CHOICES[c.axis].items():
        if abs(c.phi1 - p.phi1) < PRESET_TOL and abs(c.phi2 - p.phi2) < PRESET_TOL:
            return j
    return None


def build_U(c: UChoice) -> Operator4:
    """U = R_axis^1(phi1) * R_axis^2(phi2) (the two factors commute)."""
    return Operator4(kron2(rotation_2x2(c.axis, c.phi1), rotation_2x2(c.axis, c.phi2)))


# I_t, the conditional sign flip, and I_s, the phase shift marking the up-up state, are
# fixed; Operator4 stores each read-only, so one copy is shared.
SIGN_FLIP_TARGET = Operator4(np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))
PHASE_SHIFT_S = Operator4(np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex))


# G's factors in time order, first applied first; the minus sign is a global phase.
G_FACTORS = ("U", "I_t", "U-inv", "I_s", "U")


def inverse_factors(factors: tuple) -> tuple:
    """The inverse's time order: reversed, U and U^-1 swapped (I_t, I_s are involutions)."""
    return tuple({"U": "U-inv", "U-inv": "U"}.get(f, f) for f in reversed(factors))


G_INVERSE_FACTORS = inverse_factors(G_FACTORS)


def build_G(c: UChoice) -> Operator4:
    """G = -U * I_s * U^-1 * I_t * U (`G_FACTORS`); the first of build_G_pair(c)."""
    return build_G_pair(c)[0]


def build_G_inverse(c: UChoice) -> Operator4:
    """G^-1 (`G_INVERSE_FACTORS`); the second of build_G_pair(c)."""
    return build_G_pair(c)[1]


def build_G_pair(c: UChoice) -> tuple[Operator4, Operator4]:
    """(G, G^-1) from one U, each checked unitary once as a whole.

    Each is minus the product of its factor list, the last-applied
    factor leftmost, multiplied left to right.
    """
    u = build_U(c).matrix
    factor = {"U": u, "U-inv": u.conj().T,
              "I_t": SIGN_FLIP_TARGET.matrix, "I_s": PHASE_SHIFT_S.matrix}
    return tuple(Operator4(-functools.reduce(np.matmul, [factor[f] for f in reversed(names)]))
                 for names in (G_FACTORS, G_INVERSE_FACTORS))


def _format_coefficient(value: complex) -> str | None:
    """Render a coefficient within `SIGN_TOL` of one of {1, -1, i, -i}, else None."""
    for text, target in (("+", 1.0), ("-", -1.0), ("+i", 1j), ("-i", -1j)):
        if abs(value - target) < SIGN_TOL:
            return text
    return None


def bell_combination_str(v: bell.BellVector) -> str:
    """Human-readable Bell combination with a normalized display phase.

    The overall phase is fixed by rotating the first nonzero coordinate
    to the positive real axis, so single Bell states print without a
    sign and two-state superpositions print as (|psi_a> +- |psi_b>)/sqrt2
    or (|psi_a> +- i|psi_b>)/sqrt2.
    """
    coords = v.coords
    nonzero = [k for k in range(4) if abs(coords[k]) > CLASSIFY_TOL]
    if not nonzero:
        raise ValueError("cannot format the zero vector")
    lead = coords[nonzero[0]]
    normalized = coords * (lead.conjugate() / abs(lead)) + 0.0  # + 0.0 clears each -0.0
    terms = []
    scale = abs(normalized[nonzero[0]])
    # Terms of equal weight print by name when there is one of weight 1, or two of 1/sqrt2.
    uniform = (all(abs(abs(normalized[k]) - scale) < CLASSIFY_TOL for k in nonzero)
               and abs(scale - (1.0 if len(nonzero) == 1 else 1 / np.sqrt(2.0))) < CLASSIFY_TOL)
    if uniform:
        for k in nonzero:
            sign = _format_coefficient(normalized[k] / scale)
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
    j = preset_index(c)
    if j is None:
        raise ValueError(
            "table classification requires one of the eight named presets; "
            "apply build_G directly for generic angles"
        )
    return list(PRESETS[c.axis, j].table1)


class PresetValues(NamedTuple):
    """A preset's G, G^-1 and Table-1 entries, each immutable."""

    g: Operator4
    g_inverse: Operator4
    table1: tuple[Table1Entry, ...]


def _build_preset(axis: str, j: int) -> PresetValues:
    """Preset (axis, j)'s values, built afresh."""
    g, g_inv = build_G_pair(preset(axis, j))
    # G's column i is G applied to basis input i.
    images = [bell.BellVector(column) for column in (bell.BELL_ADJOINT @ g.matrix).T]
    entries = [Table1Entry(label, v, bell_combination_str(v)) for label, v in zip(BasisLabel, images)]
    return PresetValues(g, g_inv, tuple(entries))


PRESETS = {(axis, j): _build_preset(axis, j) for axis in _AXES for j in (1, 2, 3, 4)}
