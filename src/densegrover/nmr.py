"""Pulse-level realization on a heteronuclear two-spin system.

Gates become sequences of on-resonance rf pulses, scalar-coupling
delays, and z-gradient crushes, simulated in the doubly-rotating
frame where only the coupling term 2*pi*J*Iz1*Iz2 evolves between
pulses.  Mixed states are carried as traceless deviation matrices;
the gradient is modeled as a full crush of off-diagonal entries.

Pulse text format, one element per line, applied top to bottom:

    rf <spin|both> <x|y> <angle_expr>     angle_expr like pi/4, -3pi/4, or a float (radians)
    delay <expr>                          expr like 1/4J, or a float (seconds)
    grad z

A program acts on deviation matrices as one linear map, its 16x16
transfer matrix (`_transfer`), which acts on the row-major vec of rho:
vec(rho)[4*i + j] = rho[i, j].  A gradient-free run with net unitary U
is kron(U, conj U) there, and a full crush keeps only the 4 population
entries vec(rho)[0, 5, 10, 15] and zeroes the other 12.

Every memo here is keyed on a program and one J (`_j_key`).  The frame
reads no constant but J, and an n/dJ delay turns the coupling by
2*pi*n/d at every J != 0, so the key is J where the program holds a
delay given in seconds or where J = 0, and None otherwise: at J = 0 an
n/dJ delay misses and raises.  The transfer is the first run followed
by the memoised map of the runs after the first crush (`_after_crush`),
which programs that differ only before that crush share.  A cold call,
the prep under fresh constants (its alpha pulse reads gamma_ratio),
builds and validates its 9-element program once, lowers only the alpha
pulse, builds only the 4 population rows of that pulse's superoperator
and reuses the memoised tail: with the equilibrium and result
`DeviationMatrix` checks, about 80-90 us by `timeit` on a 2-vCPU Xeon
(Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .grover import phase_shift_s, preset, sign_flip_target
from .qstate import (
    BasisLabel,
    Operator4,
    _frozen_array,
    checked_index,
    kron2,
    phase_fit,
    rotation_2x2,
)
from . import coding
from . import grover

_IZ = np.diag([0.5, -0.5]).astype(complex)
_I2 = np.eye(2, dtype=complex)
IZ1 = kron2(_IZ, _I2)
IZ2 = kron2(_I2, _IZ)
IZIZ = kron2(_IZ, _IZ)
_IZIZ_DIAGONAL = np.diag(IZIZ)

# Bounds of the memo caches.  The 16 protocol programs and the gate library
# fit at a few sets of constants; a sweep that draws fresh constants (and
# with them a fresh prep angle) cycles through the caches instead.
_PROGRAMS = 128


@dataclass(frozen=True)
class PhysicalConstants:
    """Spectrometer constants; gamma_ratio defaults to nu2/nu1."""

    nu1_hz: float = 125.76e6
    nu2_hz: float = 500.13e6
    j_hz: float = 215.0
    gamma_ratio: float | None = None

    def __post_init__(self):
        for field in ("nu1_hz", "nu2_hz"):
            if not 0 < getattr(self, field) < np.inf:
                raise ValueError(f"{field} must be positive and finite")
        if self.gamma_ratio is None:
            object.__setattr__(self, "gamma_ratio", self.nu2_hz / self.nu1_hz)
        if not 0 < self.gamma_ratio < np.inf:
            raise ValueError("gamma_ratio must be positive and finite")
        # An uncoupled pair (J = 0) is a valid frame even though the
        # J-relative delay expressions cannot be resolved in it.
        if not 0 <= self.j_hz < np.inf:
            raise ValueError("j_hz must be nonnegative and finite")


DEFAULT_CONSTANTS = PhysicalConstants()

_ANGLE_RE = re.compile(r"^([+-]?)(\d*)pi(?:/(\d+))?$")
_DELAY_RE = re.compile(r"^(\d+)/(\d*)J$")

# The most significant digits an integer below the float maximum (1.8e308) has.
_FLOAT_DIGITS = 309


def _parse_int(digits: str, what: str) -> int:
    """The integer a run of decimal digits spells; `what` names the expression.

    The length is checked before int() sees the text, because int()
    refuses text past the interpreter's digit limit (4300 by default)
    with a message about that limit instead of the expression.
    """
    significant = digits.lstrip("0")
    if len(significant) > _FLOAT_DIGITS:
        raise ValueError(f"{what} holds an integer too large for a float")
    return int(significant or "0")


def parse_angle(expr: str) -> float:
    """Radians from an expression like pi/4, -3pi/4, pi, or a float literal."""
    m = _ANGLE_RE.match(expr)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        what = f"angle expression {expr!r}"
        num = _parse_int(m.group(2), what) if m.group(2) else 1
        den = _parse_int(m.group(3), what) if m.group(3) else 1
        if den == 0:
            raise ValueError(f"zero denominator in angle expression {expr!r}")
        try:
            return sign * num * np.pi / den
        except OverflowError:
            raise ValueError(f"angle expression {expr!r} holds an integer too large "
                             "for a float") from None
    try:
        return float(expr)
    except ValueError:
        raise ValueError(f"cannot parse angle expression {expr!r}") from None


def pi_fraction(num: int, den: int = 1) -> str:
    """Canonical angle expression for num*pi/den."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    sign = "-" if num < 0 else ""
    n = abs(num)
    head = "pi" if n == 1 else f"{n}pi"
    return f"{sign}{head}" + ("" if den == 1 else f"/{den}")


def _check_no_padding(what: str, expr: str) -> None:
    # float() strips whitespace, but the text format splits on it, so a
    # padded expression would not survive a round trip.
    if expr != expr.strip():
        raise ValueError(f"{what} expression {expr!r} has surrounding whitespace")


# The pulse dataclasses derive their values and their hash once, at
# construction, and keep them beside the fields, so repr, == and the text
# format do not see them: a program hashes every element each time it is a
# memo key.  They pickle by their fields, so a load recomputes and revalidates
# them; a stored hash would be stale under another PYTHONHASHSEED.

def _store(obj, **values) -> None:
    # Into the instance dict, past the __setattr__ that a frozen dataclass refuses.
    obj.__dict__.update(values)


def _stored_hash(obj) -> int:
    return obj._hash


def _by_fields(obj) -> tuple:
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


def _j_fraction(duration: str) -> tuple | None:
    """(n, d) of a J-relative duration n/dJ; None for one in seconds."""
    m = _DELAY_RE.match(duration)
    if not m:
        return None
    what = f"delay expression {duration!r}"
    num = _parse_int(m.group(1), what)
    den = _parse_int(m.group(2), what) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in delay expression {duration!r}")
    return num, den


@dataclass(frozen=True)
class Rf:
    """On-resonance pulse; spin is 1, 2, or "both" for a hard pulse.

    The angle is kept as its source expression so sequences round-trip
    through the text format bit-exactly; `angle_rad` is its value,
    parsed once.
    """

    spin: object
    axis: str
    angle: str

    __hash__ = _stored_hash
    __reduce__ = _by_fields

    def __post_init__(self):
        # type() rejects True and 1.0, which equal 1 but print as other text.
        if not (self.spin == "both" or (type(self.spin) is int and self.spin in (1, 2))):
            raise ValueError(f"rf spin must be 1, 2, or 'both', got {self.spin!r}")
        if self.axis not in ("x", "y"):
            raise ValueError(f"rf axis must be x or y, got {self.axis!r}")
        angle_rad = parse_angle(self.angle)
        if not math.isfinite(angle_rad):
            raise ValueError(f"rf angle must be finite, got {self.angle!r}")
        _check_no_padding("rf angle", self.angle)
        _store(self, angle_rad=angle_rad, _hash=hash((self.spin, self.axis, self.angle)))


@dataclass(frozen=True)
class Delay:
    """Free evolution under the coupling; duration like 1/4J or seconds.

    `j_fraction` is (n, d) for a J-relative duration n/dJ and None for
    one in seconds, parsed once.
    """

    duration: str

    __hash__ = _stored_hash
    __reduce__ = _by_fields

    def __post_init__(self):
        _store(self, j_fraction=_j_fraction(self.duration))
        try:
            seconds = self.seconds(DEFAULT_CONSTANTS)
        except OverflowError:
            raise ValueError(f"delay expression {self.duration!r} holds an integer too large "
                             "for a float") from None
        if not 0 <= seconds < np.inf:
            raise ValueError(f"delay must be nonnegative and finite, got {self.duration!r}")
        _check_no_padding("delay", self.duration)
        _store(self, _hash=hash((self.duration,)))

    def _check_coupled(self, consts: PhysicalConstants) -> None:
        if self.j_fraction is not None and consts.j_hz == 0:
            raise ValueError(f"delay {self.duration} is undefined for an uncoupled pair (j_hz = 0)")

    def seconds(self, consts: PhysicalConstants) -> float:
        if self.j_fraction is None:
            try:
                return float(self.duration)
            except ValueError:
                raise ValueError(f"cannot parse delay expression {self.duration!r}") from None
        self._check_coupled(consts)
        num, den = self.j_fraction
        return num / (den * consts.j_hz)

    def coupling_phase(self, consts: PhysicalConstants) -> float:
        """The angle 2*pi*J*tau the coupling turns through; 2*pi*n/d for n/dJ at any J != 0."""
        if self.j_fraction is None:
            phase = 2 * np.pi * consts.j_hz * self.seconds(consts)
        else:
            self._check_coupled(consts)
            phase = 2 * np.pi * self.j_fraction[0] / self.j_fraction[1]
        if not math.isfinite(phase):
            raise ValueError(f"delay {self.duration} turns the coupling by a non-finite angle "
                             f"at j_hz = {consts.j_hz!r}")
        return phase


@dataclass(frozen=True)
class Gradient:
    """Field-gradient crush along z; destroys all coherences in the model."""

    axis: str = "z"

    __hash__ = _stored_hash
    __reduce__ = _by_fields

    def __post_init__(self):
        if self.axis != "z":
            raise ValueError(f"gradient axis must be z, got {self.axis!r}")
        _store(self, _hash=hash((self.axis,)))


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse elements, applied left to right.

    Validated in one pass at construction, which also derives:
    `segments`, the gradient-free runs, n + 1 for n gradients, each a
    tuple of elements; and `reads_j`, whether the program holds a delay
    given in seconds, so lowering it reads J.
    """

    elements: tuple

    __hash__ = _stored_hash
    __reduce__ = _by_fields

    def __post_init__(self):
        elements = tuple(self.elements)
        cuts, reads_j = [], False
        for i, e in enumerate(elements):
            if isinstance(e, Gradient):
                cuts.append(i)
            elif isinstance(e, Delay):
                reads_j = reads_j or e.j_fraction is None
            elif not isinstance(e, Rf):
                raise TypeError(f"unsupported pulse element {e!r}")
        bounds = zip([-1, *cuts], [*cuts, len(elements)])
        _store(self, elements=elements, reads_j=reads_j, _hash=hash(elements),
               segments=tuple(elements[start + 1:stop] for start, stop in bounds))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __add__(self, other: "PulseSequence") -> "PulseSequence":
        return PulseSequence(self.elements + tuple(other))

    def inverse(self) -> "PulseSequence":
        """Time reverse of an rf-only program: reversed order, negated angles.

        Angles are negated as text, so the result round-trips through the
        text format.  Coupling delays and gradients have no rf inverse.
        """
        if not all(isinstance(e, Rf) for e in self.elements):
            raise ValueError("only rf-only programs can be inverted")
        return PulseSequence(tuple(
            Rf(e.spin, e.axis, e.angle[1:] if e.angle.startswith("-") else "-" + e.angle.lstrip("+"))
            for e in reversed(self.elements)
        ))

    def to_text(self) -> str:
        lines = []
        for e in self.elements:
            if isinstance(e, Rf):
                lines.append(f"rf {e.spin} {e.axis} {e.angle}")
            elif isinstance(e, Delay):
                lines.append(f"delay {e.duration}")
            else:
                lines.append(f"grad {e.axis}")
        return "\n".join(lines) + ("\n" if lines else "")


def parse_sequence(text: str) -> PulseSequence:
    """Parse the pulse text format; inverse of PulseSequence.to_text."""
    elements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "rf" and len(tokens) == 4:
                spin = tokens[1] if tokens[1] == "both" else int(tokens[1])
                elements.append(Rf(spin, tokens[2], tokens[3]))
            elif tokens[0] == "delay" and len(tokens) == 2:
                elements.append(Delay(tokens[1]))
            elif tokens[0] == "grad" and len(tokens) == 2:
                elements.append(Gradient(tokens[1]))
            else:
                raise ValueError(f"unrecognized pulse line {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return PulseSequence(tuple(elements))


@dataclass(frozen=True, eq=False)
class DeviationMatrix:
    """Traceless Hermitian 4x4 matrix carrying the observable signal."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, (4, 4)))
        m = self.entries
        if not np.abs(m - m.conj().T).max() < 1e-12:  # written so that NaN fails
            raise ValueError("deviation matrix must be Hermitian")
        if not abs(m.trace()) < 1e-12:
            raise ValueError("deviation matrix must be traceless")


def element_unitary(e, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Unitary matrix of one rf pulse or delay; gradients have none."""
    if isinstance(e, Rf):
        # The rotating frame makes an rf pulse independent of the constants.
        r = rotation_2x2(e.axis, e.angle_rad)
        return kron2(_I2 if e.spin == 2 else r, _I2 if e.spin == 1 else r)
    if isinstance(e, Delay):
        # exp(-i tau H) with H = 2*pi*J*Iz1*Iz2 diagonal: entrywise in the coupling phase.
        return np.diag(np.exp(-1j * e.coupling_phase(consts) * _IZIZ_DIAGONAL))
    raise ValueError("a gradient pulse has no unitary representation")


def lower(seq: PulseSequence, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> tuple:
    """Net unitaries of the gradient-free runs of `seq`, in order.

    A full crush separates each pair, so a program with n gradients has
    n + 1 segments; a leading, trailing or doubled gradient gives an
    identity segment.  Each array is read-only and checked unitary.  It
    keeps no memo; its callers' memos are keyed on the program and `_j_key`.
    """
    return tuple(_lower_run(run, consts) for run in seq.segments)


def _j_key(seq: PulseSequence, consts: PhysicalConstants) -> float | None:
    """The J in the memo keys of `seq`; None where lowering it reads no J."""
    return consts.j_hz if seq.reads_j or consts.j_hz == 0 else None


def _frame(j_hz: float | None) -> PhysicalConstants:
    # With no J in the key, J != 0 and the program reads no J (see `_j_key`).
    return DEFAULT_CONSTANTS if j_hz is None else PhysicalConstants(j_hz=j_hz)


def _lower_run(run: tuple, consts: PhysicalConstants) -> np.ndarray:
    net = element_unitary(run[0], consts) if run else np.eye(4, dtype=complex)
    for e in run[1:]:
        net = element_unitary(e, consts) @ net
    return Operator4(net).matrix


# The row-major vec indices of the populations rho[i, i], all a full crush keeps.
_POPULATIONS = np.array([0, 5, 10, 15])


def _superoperator(u: np.ndarray) -> np.ndarray:
    """kron(u, conj u), which maps vec(rho) to vec(u rho u^dagger)."""
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(16, 16)


@functools.lru_cache(maxsize=_PROGRAMS)
def _transfer(seq: PulseSequence, j_hz: float | None) -> np.ndarray:
    first, *rest = seq.segments
    u = _lower_run(first, _frame(j_hz))
    if rest:
        # A crush reads only the population rows 5i of kron(u, conj u),
        # which are u[i, :] (x) conj u[i, :].
        rows = (u[:, :, None] * u.conj()[:, None, :]).reshape(4, 16)
        t = _after_crush(tuple(rest), j_hz) @ rows
    else:
        t = _superoperator(u)
    t.setflags(write=False)
    return t


@functools.lru_cache(maxsize=_PROGRAMS)
def _after_crush(runs: tuple, j_hz: float | None) -> np.ndarray:
    # The 16x4 map from the populations a crush leaves to vec of the state after
    # `runs` (crushed between each pair), folded in a loop, not by recursion.
    consts = _frame(j_hz)
    t = np.eye(16)[:, _POPULATIONS]
    for run in runs:
        t = _superoperator(_lower_run(run, consts))[:, _POPULATIONS] @ t[_POPULATIONS]
    t.setflags(write=False)
    return t


def simulate_sequence(
    seq: PulseSequence,
    rho0: DeviationMatrix,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> DeviationMatrix:
    """Apply the program's 16x16 transfer matrix to vec(rho0).

    vec is row-major, vec(rho)[4*i + j] = rho[i, j], so a lowered run
    with net unitary U acts as kron(U, conj U).  A gradient between two
    runs is the crush mask diag(vec(I4)): it keeps the 4 populations,
    vec entries 0, 5, 10 and 15, and zeroes every coherence.  The
    transfer is memoised on the program and its `_j_key`, so a warm
    call lowers nothing; at J = 0 an n/dJ delay's key misses and the
    delay raises.
    """
    t = _transfer(seq, _j_key(seq, consts))
    return DeviationMatrix((t @ rho0.entries.reshape(16)).reshape(4, 4))


def _rf(spin, axis, num, den=1) -> Rf:
    return Rf(spin, axis, pi_fraction(num, den))


# Equivalent to the coupled-spin evolution [1/2J].  Like a Hahn echo,
# the opposite-phase hard pulses refocus resonance offsets during the
# delays; they do not cancel rf-amplitude errors, which stay first order.
_REFOCUSED_HALF_J = (Delay("1/4J"), _rf("both", "x", 1), Delay("1/4J"), _rf("both", "x", -1))


def alpha_angle(consts: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Initial proton flip angle arccos(gamma1 / (2 gamma2)) for the prep."""
    if not consts.gamma_ratio >= 0.5:
        raise ValueError(f"the pseudo-pure prep needs gamma_ratio >= 0.5, got {consts.gamma_ratio!r}")
    return float(np.arccos(1.0 / (2.0 * consts.gamma_ratio)))


# Built once, so the tail memo matches the preps' shared runs by identity.
_PREP_AFTER_ALPHA = (Gradient(), _rf(1, "x", 1, 4), *_REFOCUSED_HALF_J, _rf(1, "y", -1, 4),
                     Gradient())


def _pseudo_pure_prep(consts: PhysicalConstants) -> PulseSequence:
    return PulseSequence((Rf(2, "x", repr(alpha_angle(consts))), *_PREP_AFTER_ALPHA))


class Gate(NamedTuple):
    """A library gate: its pulse builder and, if it has one, its ideal unitary per kind."""

    pulses: Callable[[PhysicalConstants], PulseSequence]
    ideal: Callable[[str], Operator4] | None = None


def _fixed(*elements) -> Callable[[PhysicalConstants], PulseSequence]:
    seq = PulseSequence(elements)
    return lambda consts: seq


def _u_gate(j: int) -> Gate:
    # U_j = R_y^1(phi1) R_y^2(phi2) in quarter turns; equal angles make one hard pulse.
    c = preset("y", j)
    q1, q2 = (round(4 * phi / np.pi) for phi in (c.phi1, c.phi2))
    pulses = (_rf("both", "y", q1, 4),) if q1 == q2 else (_rf(1, "y", q1, 4), _rf(2, "y", q2, 4))
    return Gate(_fixed(*pulses), lambda kind: grover.build_U(preset(kind, j)))


def _inverse(gate: Gate) -> Gate:
    # Only fixed (rf-only) programs have an inverse, so it is built once.
    return Gate(_fixed(*gate.pulses(DEFAULT_CONSTANTS).inverse()),
                lambda kind: gate.ideal(kind).adjoint())


# The gate library, in the order `verify --all` checks it.
GATES = {
    "U1": _u_gate(1),
    "U2": _u_gate(2),
    "U3": _u_gate(3),
    "U4": _u_gate(4),
    "U1-inv": _inverse(_u_gate(1)),
    "U2-inv": _inverse(_u_gate(2)),
    "U3-inv": _inverse(_u_gate(3)),
    "U4-inv": _inverse(_u_gate(4)),
    "I_t": Gate(
        _fixed(Delay("1/2J"), _rf("both", "x", 1), Delay("1/2J"), _rf("both", "x", -1)),
        lambda kind: sign_flip_target(),
    ),
    "I_s": Gate(
        _fixed(*_REFOCUSED_HALF_J,
               _rf("both", "y", -1, 2), _rf("both", "x", -1, 2), _rf("both", "y", 1, 2)),
        lambda kind: phase_shift_s(),
    ),
    "V2": Gate(_fixed(_rf(2, "x", 1), _rf(2, "y", -1, 2)), lambda kind: coding.encoder(kind, 2)),
    "V3": Gate(_fixed(_rf(2, "x", 1), _rf(2, "y", 1, 2)), lambda kind: coding.encoder(kind, 3)),
    "V4": Gate(_fixed(_rf(2, "y", 1)), lambda kind: coding.encoder(kind, 4)),
    "pseudo-pure-prep": Gate(_pseudo_pure_prep),
    "readout-carbon": Gate(_fixed(_rf(1, "y", 1, 2))),
    "readout-proton": Gate(_fixed(_rf(2, "y", 1, 2))),
}


def _gate(name: str) -> Gate:
    if name not in GATES:
        raise ValueError(f"unknown gate {name!r}; known gates: {', '.join(GATES)}")
    return GATES[name]


def gate_library(
    name: str,
    kind: str = "y",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> PulseSequence:
    """Pulse realization of a named gate (y-kind presets only)."""
    if kind != "y":
        raise ValueError("the pulse library covers only the y-kind presets")
    return _gate(name).pulses(consts)


def ideal_gate_unitary(name: str, kind: str = "y") -> Operator4:
    """The exact operator a library gate is meant to realize."""
    ideal = _gate(name).ideal
    if ideal is None:
        raise ValueError(f"gate {name!r} has no unitary target")
    return ideal(kind)


class GateCheck(NamedTuple):
    ok: bool
    distance: float
    phase: complex


def verify_realization(
    name: str,
    kind: str = "y",
    tol: float = 1e-9,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> GateCheck:
    """Compare a gate's net pulse unitary to its ideal, up to global phase.

    The check is memoised on the gate's program and its `_j_key`, so a
    library gate is fitted once and then reused under any constants that
    leave that key unchanged.  A miss lowers the program, which raises
    for an n/dJ delay at J = 0.
    """
    if not tol > 0:  # written so that NaN fails
        raise ValueError("tolerance must be positive")
    seq = gate_library(name, kind, consts)
    if len(seq.segments) > 1:
        raise ValueError(f"gate {name!r} contains gradients; no net unitary exists")
    return _gate_check(name, kind, tol, seq, _j_key(seq, consts))


@functools.lru_cache(maxsize=_PROGRAMS)
def _gate_check(name: str, kind: str, tol: float, seq: PulseSequence,
                j_hz: float | None) -> GateCheck:
    (u,) = lower(seq, _frame(j_hz))
    phase, distance = phase_fit(u, ideal_gate_unitary(name, kind).matrix)
    return GateCheck(distance < tol, distance, phase)


@functools.lru_cache(maxsize=_PROGRAMS)
def equilibrium_state(consts: PhysicalConstants = DEFAULT_CONSTANTS) -> DeviationMatrix:
    """Thermal deviation matrix gamma1*Iz1 + gamma2*Iz2 with gamma1 = 1.

    Memoised per constants; the result is immutable.
    """
    return DeviationMatrix(IZ1 + consts.gamma_ratio * IZ2)


def target_pseudo_pure() -> np.ndarray:
    """Iz1/2 + Iz2/2 + Iz1*Iz2, identical to |uu><uu| - I/4."""
    return IZ1 / 2 + IZ2 / 2 + IZIZ


def basis_pseudo_pure(label: BasisLabel) -> DeviationMatrix:
    """|label><label| - I/4."""
    proj = np.zeros((4, 4), dtype=complex)
    proj[label.index, label.index] = 1.0
    return DeviationMatrix(proj - np.eye(4) / 4.0)


def prepare_pseudo_pure(consts: PhysicalConstants = DEFAULT_CONSTANTS) -> DeviationMatrix:
    """Run the spatial-averaging prep sequence on the equilibrium state."""
    seq = gate_library("pseudo-pure-prep", consts=consts)
    return simulate_sequence(seq, equilibrium_state(consts), consts)


@dataclass(frozen=True)
class SpectrumLine:
    """One doublet component, labeled by the partner spin's state."""

    spin: int
    line: str
    offset_hz: float
    amplitude: complex


# Per spin: its readout gate and the vec indices of the (partner-up, partner-down)
# coherences read after it, rho[2, 0], rho[3, 1] (spin 1) or rho[1, 0], rho[3, 2].
_READOUTS = {1: ("readout-carbon", [8, 13]), 2: ("readout-proton", [4, 14])}
_LINES = ("partner_up", "partner_down")


@functools.lru_cache(maxsize=2)
def _readout(spin: int) -> np.ndarray:
    # The two rows of the readout's transfer (an rf pulse reads no J, so
    # its key is None), divided by the uu reference's partner-up line.
    name, coherences = _READOUTS[spin]
    rows = _transfer(gate_library(name), None)[coherences]
    reference = rows[0] @ basis_pseudo_pure(BasisLabel.UU).entries.reshape(16)
    return _frozen_array(rows / reference, (2, 16))


def predict_spectrum(
    rho: DeviationMatrix,
    spin: int,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> list:
    """Both doublet lines of one spin, calibrated against the uu reference.

    The calibration constant is fixed so the uu pseudo-pure state shows
    +1 on its nonzero (partner-up) line; which signed frequency offset
    carries the partner-up label is a convention, set here to +J/2.
    """
    # type() rejects True and 1.0, as Rf does.
    if not (type(spin) is int and spin in (1, 2)):
        raise ValueError(f"spin must be 1 or 2, got {spin!r}")
    up, down = (_readout(spin) @ rho.entries.reshape(16)).tolist()
    half_j = consts.j_hz / 2.0
    return [
        SpectrumLine(spin, _LINES[0], +half_j, up),
        SpectrumLine(spin, _LINES[1], -half_j, down),
    ]


@dataclass(frozen=True)
class Fingerprint:
    """Per-spin (nonzero line, sign) pattern; distinct for each basis state."""

    spin1: tuple
    spin2: tuple


def spectrum_fingerprint(rho: DeviationMatrix) -> Fingerprint:
    """Identify which basis pseudo-pure state produced the spectrum.

    A basis state shows one real line per spin, so a spin is refused if
    its weaker line, or its dominant line's imaginary part, exceeds 1e-9
    times the dominant line; the tests are relative, so the fingerprint
    does not depend on the state's scale.
    """
    signatures = []
    for spin in (1, 2):
        amplitudes = (_readout(spin) @ rho.entries.reshape(16)).tolist()
        line = int(abs(amplitudes[1]) > abs(amplitudes[0]))
        dominant, weaker = amplitudes[line], abs(amplitudes[1 - line])
        problem = None
        if abs(dominant) < 1e-9:
            problem = "line amplitudes are all below 1e-9"
        elif weaker > 1e-9 * abs(dominant):
            problem = f"shows both doublet lines ({abs(dominant):.3g} and {weaker:.3g})"
        elif abs(dominant.imag) > 1e-9 * abs(dominant):
            problem = f"line {dominant:.3g} is 90 degrees out of phase"
        if problem:
            raise ValueError(f"spin {spin} {problem}; not a basis pseudo-pure state")
        signatures.append((_LINES[line], 1 if dominant.real > 0 else -1))
    return Fingerprint(*signatures)


def _g_gates(j: int) -> list:
    # G = -U I_s U^-1 I_t U in time order; the sign is a global phase.
    return [f"U{j}", "I_t", f"U{j}-inv", "I_s", f"U{j}"]


def _program(names, kind: str) -> PulseSequence:
    return PulseSequence(tuple(e for name in names for e in gate_library(name, kind)))


def synthesis_sequence(j: int, kind: str = "y") -> PulseSequence:
    """Pulse program for G (preset j): U, I_t, U^-1, I_s, U, left to right."""
    return _program(_g_gates(j), kind)


def decoding_sequence(j: int, kind: str = "y") -> PulseSequence:
    """Pulse program for G^-1 (preset j): U^-1, I_s, U, I_t, U^-1.

    These are G's gates in reverse with U and U^-1 swapped; I_s and I_t
    are involutions, so their pulse blocks are reused as they are.
    """
    swap = {f"U{j}": f"U{j}-inv", f"U{j}-inv": f"U{j}"}
    return _program([swap.get(name, name) for name in reversed(_g_gates(j))], kind)


@functools.lru_cache(maxsize=_PROGRAMS, typed=True)
def protocol_sequence(
    j: int,
    k: int,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> PulseSequence:
    """Complete program: prep, G, encoder k (k=1 does nothing), G^-1.

    Memoised per (j, k, consts) with the argument types in the key, so a
    cached (2, 1) does not answer for (2.0, 1) or (2, True).
    """
    checked_index(j, range(1, 5), "preset index")
    checked_index(k, range(1, 5), "encoder index")
    seq = gate_library("pseudo-pure-prep", consts=consts) + synthesis_sequence(j)
    if k > 1:
        seq = seq + gate_library(f"V{k}")
    return seq + decoding_sequence(j)
