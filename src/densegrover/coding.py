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
from .grover import UChoice, build_G, build_G_inverse, is_preset, preset, preset_index
from .qstate import (
    BasisLabel,
    Operator4,
    apply,
    compose,
    identity,
    ket_from_basis,
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


def encoder(kind: str, k: int) -> Operator4:
    """The k-th (1..4) manipulation of the set paired with axis `kind`."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"encoder index must be 1..4, got {k!r}")
    return encoder_set(kind)[k - 1]


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
    return _pipeline(build_G(c), encoder(c.axis, k), build_G_inverse(c), c, k)


def _pipeline(g: Operator4, v: Operator4, g_inv: Operator4, dec: UChoice, k: int) -> ProtocolTrace:
    """g on up-up, the manipulation v (encoder k), g_inv = G^-1(dec), measurement."""
    psi0 = apply(g, ket_from_basis(BasisLabel.UU))
    encoded_ket = apply(v, psi0)
    measurement = measure_basis(apply(g_inv, encoded_ket))
    return ProtocolTrace(
        u_choice=dec,
        message=k - 1,
        starting_bell=bell.to_bell_coords(psi0),
        encoded=bell.to_bell_coords(encoded_ket),
        output_label=measurement.argmax,
        probabilities=measurement.probabilities,
    )


def _preset_runs(c: UChoice) -> list[ProtocolTrace]:
    """The runs k = 1..4 of preset c, sharing one G(c) and one G^-1(c)."""
    g, g_inv = build_G(c), build_G_inverse(c)
    return [_pipeline(g, encoder(c.axis, k), g_inv, c, k) for k in (1, 2, 3, 4)]


def _bell_column(trace: ProtocolTrace) -> int:
    """1-based index of the pure Bell state a run starts from."""
    coords = trace.starting_bell.coords
    idx = int(np.argmax(np.abs(coords)))
    if not abs(coords[idx]) >= 1.0 - 1e-9:
        raise ValueError("starting state is not a pure Bell state")
    return idx + 1


def starting_bell_index(c: UChoice) -> int:
    """Which Bell state G(c) synthesizes from up-up (presets only)."""
    return _bell_column(run_protocol(c, 1))


def table2(kind: str = "y") -> dict:
    """Outcome grid keyed by (starting Bell index, k) over all 16 runs."""
    grid = {}
    for j in (1, 2, 3, 4):
        runs = _preset_runs(preset(kind, j))
        column = _bell_column(runs[0])
        for trace in runs:
            grid[(column, trace.message + 1)] = trace.output_label
    return grid


@functools.lru_cache(maxsize=None)
def _decode_map(axis: str, j: int) -> dict:
    mapping = {trace.output_label: trace.message + 1 for trace in _preset_runs(preset(axis, j))}
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
        if self.set_bit not in (0, 1):
            raise ValueError(f"set_bit must be 0 or 1, got {self.set_bit!r}")
        if self.v_index not in (1, 2, 3, 4):
            raise ValueError(f"v_index must be 1..4, got {self.v_index!r}")

    @property
    def value(self) -> int:
        """The packed 3-bit value: set bit high, k-1 low."""
        return self.set_bit * 4 + (self.v_index - 1)

    @classmethod
    def from_value(cls, value: int) -> "AncillaMessage":
        if value not in range(8):
            raise ValueError(f"ancilla message value must be 0..7, got {value!r}")
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
    trace = _pipeline(
        build_G(preset("y", 1)), encoder(kind, m.v_index), build_G_inverse(c_dec), c_dec, m.v_index
    )
    recovered = AncillaMessage(m.set_bit, decode(trace.output_label, c_dec))
    return AncillaResult(trace, recovered)
