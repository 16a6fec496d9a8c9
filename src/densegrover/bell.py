"""Bell (EPR) basis and single-particle rotations of Bell states.

The four Bell states are
    psi1 = (uu + dd)/sqrt2,  psi2 = (uu - dd)/sqrt2,
    psi3 = (ud + du)/sqrt2,  psi4 = (ud - du)/sqrt2.
Rotating particle 2 mixes (psi1, psi4) and (psi2, psi3) in closed
form; those closed forms are the primary implementation here, with
the generic matrix path available as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import Ket4, _frozen_array, checked_index

_SQRT2 = np.sqrt(2.0)

# Columns are psi1..psi4 written in the product basis.
_BELL_MATRIX = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ],
    dtype=complex,
) / _SQRT2
# Maps product-basis amplitudes to Bell coordinates.
BELL_ADJOINT = _BELL_MATRIX.conj().T
BELL_ADJOINT.setflags(write=False)


@dataclass(frozen=True, eq=False)
class BellVector:
    """Coordinates of a two-spin state in the (psi1..psi4) basis."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen_array(self.coords, (4,)))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


def bell_state(i: int) -> Ket4:
    """Exact amplitude vector of psi_i in the product basis."""
    return Ket4(_BELL_MATRIX[:, checked_index(i, range(1, 5), "Bell index") - 1])


def to_bell_coords(state: Ket4) -> BellVector:
    return BellVector(BELL_ADJOINT @ state.amplitudes)


def from_bell_coords(v: BellVector) -> Ket4:
    return Ket4(_BELL_MATRIX @ v.coords)


def rotate_epr(i: int, axis: str, theta: float) -> BellVector:
    """Bell coordinates of R_axis^2(theta) applied to psi_i.

    A y rotation of particle 2 keeps the pair (psi1, psi4) and the
    pair (psi2, psi3) closed; an x rotation couples psi1 with psi3
    and psi2 with psi4 through an extra factor of i.
    """
    checked_index(i, range(1, 5), "Bell index")
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    if axis == "y":
        forms = {
            1: (c, 0.0, 0.0, -s),
            2: (0.0, c, -s, 0.0),
            3: (0.0, s, c, 0.0),
            4: (s, 0.0, 0.0, c),
        }
    elif axis == "x":
        forms = {
            1: (c, 0.0, 1j * s, 0.0),
            2: (0.0, c, 0.0, 1j * s),
            3: (1j * s, 0.0, c, 0.0),
            4: (0.0, 1j * s, 0.0, c),
        }
    else:
        raise ValueError(f"axis must be x or y, got {axis!r}")
    return BellVector(np.array(forms[i], dtype=complex))
