"""Dense-coding protocol: synthesize, encode, decode, measure.

One party prepares a Bell state from up-up with G, the other encodes
two bits by one of four manipulations of particle 2 alone, and the
first party decodes with G^-1 followed by a product-basis measurement.
An ancilla bit extends the scheme to three bits by switching between
the y-kind and x-kind encoder sets.

Each kind's encoder set and Table-2 grid, each preset's four runs and
starting column (keyed on kind and (kind, j), each outcome map's
bijection checked then), the eight ancilla messages and their runs are
values built at import. An entry point checks its arguments and hands
out a copy: a fresh grid dict, or a trace copied from the stored run's
instance dict with its own probabilities. The four y-set ancilla runs
are preset y1's own runs, so `_pipeline` runs 36 times per process: 32
preset runs and the four x-set ancilla runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bell
from .grover import _AXES, PRESETS, UChoice, preset, preset_index
from .qstate import (
    CLASSIFY_TOL,
    BasisLabel,
    Ket4,
    Operator4,
    checked_index,
    checked_member,
    compose,
    identity,
    measure_basis,
    scaled,
    single_spin_rotation,
)


def _pauli_on_2(axis: str) -> Operator4:
    # sigma = -i R(pi); the scalar passes through the tensor embedding.
    return scaled(single_spin_rotation(2, axis, np.pi), -1j)


_ENCODER_SETS = {
    "y": (
        identity(),
        compose([single_spin_rotation(2, "y", -np.pi / 2), _pauli_on_2("x")]),
        compose([single_spin_rotation(2, "y", np.pi / 2), _pauli_on_2("x")]),
        scaled(_pauli_on_2("y"), 1j),
    ),
    "x": (
        identity(),
        compose([single_spin_rotation(2, "x", np.pi / 2), _pauli_on_2("z")]),
        compose([single_spin_rotation(2, "x", -np.pi / 2), _pauli_on_2("z")]),
        _pauli_on_2("x"),
    ),
}


def encoder_set(kind: str) -> tuple:
    """The four particle-2 manipulations paired with the given decoding axis."""
    return _ENCODER_SETS[checked_member(kind, _AXES, "encoder-set kind")]


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
    """G(c) on up-up, encoder k of c's axis, G^-1(c), measurement: the run built at import."""
    j = preset_index(c)
    if j is None:
        raise ValueError("protocol runs require one of the eight named presets")
    return _handed_out(_RUNS[c.axis, j][checked_index(k, range(1, 5), "encoder index") - 1], c)


def _handed_out(run: ProtocolTrace, c: UChoice) -> ProtocolTrace:
    """A stored run under choice c; its own probabilities keep an edit from the stored run.

    Copied from the run's instance dict, past the frozen `__setattr__`, as
    `nmr._store` writes; ProtocolTrace has no `__post_init__` to skip.
    """
    trace = object.__new__(ProtocolTrace)
    trace.__dict__.update(run.__dict__, u_choice=c, probabilities=dict(run.probabilities))
    return trace


def _pipeline(g: Operator4, v: Operator4, g_inv: Operator4, dec: UChoice, k: int) -> ProtocolTrace:
    """g on up-up, the manipulation v (encoder k), g_inv = G^-1(dec), measurement."""
    psi0 = g.matrix[:, 0]  # column 0 is g applied to up-up
    encoded = v.matrix @ psi0
    measurement = measure_basis(Ket4(g_inv.matrix @ encoded))
    return ProtocolTrace(dec, k - 1, bell.BellVector(bell.BELL_ADJOINT @ psi0),
                         bell.BellVector(bell.BELL_ADJOINT @ encoded), measurement.argmax,
                         measurement.probabilities)


def _bell_column(coords: np.ndarray) -> int:
    """1-based index of the pure Bell state with Bell coordinates coords."""
    idx = int(np.argmax(np.abs(coords)))
    if not abs(coords[idx]) >= 1.0 - CLASSIFY_TOL:
        raise ValueError("starting state is not a pure Bell state")
    return idx + 1


def _preset_runs(kind: str, j: int) -> tuple[ProtocolTrace, ...]:
    """Runs k = 1..4 of preset (kind, j): `_pipeline` of its `PRESETS` G and G^-1, encoder k."""
    c = preset(kind, j)
    g, g_inv, _ = PRESETS[kind, j]
    runs = tuple(_pipeline(g, v, g_inv, c, k) for k, v in enumerate(_ENCODER_SETS[kind], start=1))
    # Injectivity of k -> label is what makes two-bit transmission work.
    if len({run.output_label for run in runs}) != 4:
        raise AssertionError(f"outcome map for preset {j} ({kind}) is not a bijection")
    return runs


_RUNS = {(kind, j): _preset_runs(kind, j) for kind, j in PRESETS}
# Each preset's starting Bell index: its column of its kind's grid.
_COLUMNS = {key: _bell_column(runs[0].starting_bell.coords) for key, runs in _RUNS.items()}
# Each kind's outcome grid, keyed by (starting Bell index, k): the one copy of the outcomes.
_GRIDS = {kind: {(_COLUMNS[kind, j], k): run.output_label
                 for j in (1, 2, 3, 4) for k, run in enumerate(_RUNS[kind, j], start=1)}
          for kind in _AXES}


def table2(kind: str = "y") -> dict:
    """Outcome grid keyed by (starting Bell index, k) over all 16 runs."""
    return dict(_GRIDS[checked_member(kind, _AXES, "axis")])


def decode(output: BasisLabel, c: UChoice) -> int:
    """Recover k from the measured label under the given preset."""
    j = preset_index(c)
    if j is None:
        raise ValueError("decoding requires one of the eight named presets")
    grid, column = _GRIDS[c.axis], _COLUMNS[c.axis, j]
    for k in (1, 2, 3, 4):
        if grid[column, k] == output:
            return k
    raise ValueError(f"{output!r} is not an output of preset {j} ({c.axis})")


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

    @staticmethod
    def from_value(value: int) -> "AncillaMessage":
        """The message built at import whose packed value is `value` (0..7)."""
        return _MESSAGES[checked_index(value, range(8), "ancilla message value")]


class AncillaResult(NamedTuple):
    trace: ProtocolTrace
    recovered: AncillaMessage


def run_ancilla_protocol(m: AncillaMessage) -> AncillaResult:
    """Three-bit scheme over a shared psi1 and a classical ancilla bit; built at import.

    The pair starts in psi1 (synthesized by the y-form preset 1; the
    x-form preset 1 makes the same state up to phase).  The sender
    encodes with the set named by the ancilla bit, and the receiver
    reads the ancilla first, then decodes with the matching axis.
    """
    trace, recovered = _ANCILLA_RUNS[m.value]
    return AncillaResult(_handed_out(trace, trace.u_choice), recovered)


def _ancilla_run(m: AncillaMessage) -> AncillaResult:
    kind = "y" if m.set_bit == 0 else "x"
    c_dec = preset(kind, 1)
    if kind == "y":
        # The y set decodes with preset y1 itself, so the run is that preset's run k.
        trace = _RUNS["y", 1][m.v_index - 1]
    else:
        trace = _pipeline(PRESETS["y", 1].g, encoder("x", m.v_index), PRESETS["x", 1].g_inverse,
                          c_dec, m.v_index)
    return AncillaResult(trace, AncillaMessage(m.set_bit, decode(trace.output_label, c_dec)))


# The eight messages, indexed by packed value, and their runs.
_MESSAGES = tuple(AncillaMessage(value >> 2, (value & 3) + 1) for value in range(8))
_ANCILLA_RUNS = tuple(_ancilla_run(m) for m in _MESSAGES)
