"""Dense-coding protocol: synthesize, encode, decode, measure.

One party prepares a Bell state from up-up with G, the other encodes
two bits by one of four manipulations of particle 2 alone, and the
first party decodes with G^-1 followed by a product-basis measurement.
An ancilla bit extends the scheme to three bits by switching between
the y-kind and x-kind encoder sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bell
from .grover import (
    UChoice,
    build_G_pair,
    is_preset,
    preset,
    preset_index,
)
from .qstate import (
    _LABELS,
    BasisLabel,
    Ket4,
    Operator4,
    checked_index,
    compose,
    identity,
    measure_basis,
    scaled,
    single_spin_rotation,
)


def _pauli_on_2(axis: str) -> Operator4:
    # sigma = -i R(pi); the scalar passes through the tensor embedding.
    return scaled(single_spin_rotation(2, axis, np.pi), -1j)


@functools.lru_cache(maxsize=None)
def encoder_set(kind: str) -> tuple:
    """The four particle-2 manipulations paired with the given decoding axis."""
    if kind == "y":
        ops = (
            identity(),
            compose([single_spin_rotation(2, "y", -np.pi / 2), _pauli_on_2("x")]),
            compose([single_spin_rotation(2, "y", np.pi / 2), _pauli_on_2("x")]),
            scaled(_pauli_on_2("y"), 1j),
        )
    elif kind == "x":
        ops = (
            identity(),
            compose([single_spin_rotation(2, "x", np.pi / 2), _pauli_on_2("z")]),
            compose([single_spin_rotation(2, "x", -np.pi / 2), _pauli_on_2("z")]),
            _pauli_on_2("x"),
        )
    else:
        raise ValueError(f"encoder-set kind must be x or y, got {kind!r}")
    return ops


@functools.lru_cache(maxsize=None)
def _encoder_stack(kind: str) -> np.ndarray:
    """The matrices of encoder_set(kind) as one read-only (4, 4, 4) array."""
    stack = np.stack([v.matrix for v in encoder_set(kind)])
    stack.setflags(write=False)
    return stack


def encoder(kind: str, k: int) -> Operator4:
    """The k-th (1..4) manipulation of the set paired with axis `kind`."""
    return encoder_set(kind)[checked_index(k, range(1, 5), "encoder index") - 1]


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    """Record of one protocol run; message is the 0-based two-bit value."""

    u_choice: UChoice
    message: int
    starting_bell: bell.BellVector
    encoded: bell.BellVector
    output_label: BasisLabel
    probabilities: dict


def run_protocol(c: UChoice, k: int) -> ProtocolTrace:
    """Full pipeline: G(c) on up-up, encoder k of c's axis, G^-1(c), measurement."""
    if not is_preset(c):
        raise ValueError("protocol runs require one of the eight named presets")
    g, g_inv = build_G_pair(c)
    return _pipeline(g, encoder(c.axis, k), g_inv, c, k)


def _pipeline(g: Operator4, v: Operator4, g_inv: Operator4, dec: UChoice, k: int) -> ProtocolTrace:
    """g on up-up, the manipulation v (encoder k), g_inv = G^-1(dec), measurement."""
    psi0 = g.matrix[:, 0]  # column 0 is g applied to up-up
    encoded = v.matrix @ psi0
    measurement = measure_basis(Ket4(g_inv.matrix @ encoded))
    return ProtocolTrace(
        u_choice=dec,
        message=k - 1,
        starting_bell=bell.BellVector(bell.BELL_ADJOINT @ psi0),
        encoded=bell.BellVector(bell.BELL_ADJOINT @ encoded),
        output_label=measurement.argmax,
        probabilities=measurement.probabilities,
    )


def _bell_column(psi0: np.ndarray) -> int:
    """1-based index of the pure Bell state with amplitudes psi0."""
    coords = bell.BELL_ADJOINT @ psi0
    idx = int(np.argmax(np.abs(coords)))
    if not abs(coords[idx]) >= 1.0 - 1e-9:
        raise ValueError("starting state is not a pure Bell state")
    return idx + 1


def _preset_outcomes(c: UChoice) -> tuple:
    """Starting Bell index of preset c and the output labels of its runs k = 1..4.

    The four runs share one G(c) and one G^-1(c) and are one stacked
    product: row k-1 of (V_k psi0) @ G^-1.T is G^-1 V_k psi0.
    """
    g, g_inv = build_G_pair(c)
    psi0 = g.matrix[:, 0]
    outputs = (_encoder_stack(c.axis) @ psi0) @ g_inv.matrix.T
    return _bell_column(psi0), [_LABELS[i] for i in np.abs(outputs).argmax(axis=1).tolist()]


def table2(kind: str = "y") -> dict:
    """Outcome grid keyed by (starting Bell index, k) over all 16 runs."""
    grid = {}
    for j in (1, 2, 3, 4):
        column, labels = _preset_outcomes(preset(kind, j))
        for k, label in enumerate(labels, start=1):
            grid[(column, k)] = label
    return grid


@functools.lru_cache(maxsize=None)
def _decode_map(axis: str, j: int) -> dict:
    _, labels = _preset_outcomes(preset(axis, j))
    mapping = {label: k for k, label in enumerate(labels, start=1)}
    # Injectivity of k -> label is what makes two-bit transmission work.
    if len(mapping) != 4:
        raise AssertionError(f"outcome map for preset {j} ({axis}) is not a bijection")
    return mapping


def decode(output: BasisLabel, c: UChoice) -> int:
    """Recover k from the measured label under the given preset."""
    j = preset_index(c)
    if j is None:
        raise ValueError("decoding requires one of the eight named presets")
    return _decode_map(c.axis, j)[output]


@dataclass(frozen=True)
class AncillaMessage:
    """Three-bit message: set selector bit plus an encoder index 1..4."""

    set_bit: int
    v_index: int

    def __post_init__(self):
        checked_index(self.set_bit, range(2), "set_bit")
        checked_index(self.v_index, range(1, 5), "v_index")

    @property
    def value(self) -> int:
        """The packed 3-bit value: set bit high, k-1 low."""
        return self.set_bit * 4 + (self.v_index - 1)

    @classmethod
    def from_value(cls, value: int) -> "AncillaMessage":
        checked_index(value, range(8), "ancilla message value")
        return cls(value >> 2, (value & 3) + 1)


class AncillaResult(NamedTuple):
    trace: ProtocolTrace
    recovered: AncillaMessage


def run_ancilla_protocol(m: AncillaMessage) -> AncillaResult:
    """Three-bit scheme over a shared psi1 and a classical ancilla bit.

    The pair starts in psi1 (synthesized by the y-form preset 1; the
    x-form preset 1 makes the same state up to phase).  The sender
    encodes with the set named by the ancilla bit, and the receiver
    reads the ancilla first, then decodes with the matching axis.
    """
    kind = "y" if m.set_bit == 0 else "x"
    c_dec = preset(kind, 1)
    g, _ = build_G_pair(preset("y", 1))
    _, g_inv = build_G_pair(c_dec)
    trace = _pipeline(g, encoder(kind, m.v_index), g_inv, c_dec, m.v_index)
    recovered = AncillaMessage(m.set_bit, decode(trace.output_label, c_dec))
    return AncillaResult(trace, recovered)
