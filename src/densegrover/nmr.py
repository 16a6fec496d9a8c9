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

A program acts on deviation matrices as one linear map on the row-major
vec of rho, vec(rho)[4*i + j] = rho[i, j]: a gradient-free run with net
unitary U is kron(U, conj U), and a full crush keeps only the 4 population
entries vec(rho)[0, 5, 10, 15].  `_fold`, with no memo, is the one general
fold, of the state, not the map: the first run's population rows, then the
16x4 map of the runs after the first crush; with no crush, the first run's
16x16 map.  The prep, whose thermal start is diagonal, folds populations alone,
through spin 2's 2x2 population map: it builds no 4x4 before `_PREP_TAIL`.

The frame reads no constant but J, and an n/dJ delay turns the coupling
by 2*pi*n/d at every J != 0.  At J = 0 lowering raises at the program's
first n/dJ delay (`PulseSequence.j_delay`).  No library program holds a
delay in seconds, so each lowers alike at every J != 0, and three library
results are values built at import: each gate's phase fit (`Gate.fit`),
the readout rows (`_READOUT_ROWS`) and the prep's map after its first
crush (`_PREP_TAIL`).  The fits and `_PREP_TAIL` refuse J = 0 through
`j_delay`, as lowering would.

The programs of G and G^-1 join library gates in the time order of
`grover.G_FACTORS` and `grover.G_INVERSE_FACTORS`, U read as preset j's `U{j}`.

The three memos, each for a result that repeats across protocol runs:

- `_simulate`: the simulated state, keyed on the program, J and the
  starting state, by identity.  A memoised state is shared and
  immutable; both spins' spectrum amplitudes, their lines at the J last
  asked and the state's fingerprint are read off it once and kept on it.
- `protocol_sequence`: the assembled protocol program, whose building
  costs more than the rest of a warm protocol run.
- `equilibrium_state`: the thermal state per set of constants, so a
  warm protocol run starts from the same `_simulate` key.

The tolerances are `qstate`'s: `VERIFY_TOL` bounds a gate's distance and
the prep's deviation, read at the call, and `CLASSIFY_TOL` a zero line.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qstate import (
    _EYE2,
    CLASSIFY_TOL,
    SPINS,
    BasisLabel,
    Operator4,
    _by_fields,
    _frozen_array,
    check_hermitian,
    checked_index,
    checked_member,
    kron2,
    phase_fit,
    rotation_2x2,
)
from . import coding, grover, qstate

_IZ = np.diag([0.5, -0.5]).astype(complex)
IZ1 = kron2(_IZ, _EYE2)
IZ2 = kron2(_EYE2, _IZ)
IZIZ = kron2(_IZ, _IZ)
_IZIZ_DIAGONAL = np.diag(IZIZ)

# Bound of each memo.  The 16 protocol programs and their states fit at a
# few sets of constants; a sweep that draws fresh constants touches no memo,
# because its prep reads 4 thermal floats and its verify calls read the stored fits.
_PROGRAMS = 128


@dataclass(frozen=True)
class PhysicalConstants:
    """Spectrometer constants; gamma_ratio defaults to nu2/nu1."""

    nu1_hz: float = 125.76e6
    nu2_hz: float = 500.13e6
    j_hz: float = 215.0
    gamma_ratio: float | None = None

    def __post_init__(self):
        if not 0 < self.nu1_hz < math.inf:
            raise ValueError("nu1_hz must be positive and finite")
        if not 0 < self.nu2_hz < math.inf:
            raise ValueError("nu2_hz must be positive and finite")
        if self.gamma_ratio is None:
            object.__setattr__(self, "gamma_ratio", self.nu2_hz / self.nu1_hz)
        if not 0 < self.gamma_ratio < math.inf:
            raise ValueError("gamma_ratio must be positive and finite")
        # An uncoupled pair (J = 0) is a valid frame even though the
        # J-relative delay expressions cannot be resolved in it.
        if not 0 <= self.j_hz < math.inf:
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


# The pulse dataclasses derive their values once, at construction, and keep
# them beside the fields, so repr, == and the text format do not see them; a
# program also keeps its hash, because it is `_simulate`'s memo key.  They
# pickle by their fields, so a load recomputes and revalidates them; a stored
# hash would be stale under another PYTHONHASHSEED.

def _store(obj, **values) -> None:
    # Into the instance dict, past the __setattr__ that a frozen dataclass refuses.
    obj.__dict__.update(values)


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

    __reduce__ = _by_fields

    def __post_init__(self):
        # type() rejects True and 1.0, which equal 1 but print as other text.
        if not (self.spin == "both" or (type(self.spin) is int and self.spin in (1, 2))):
            raise ValueError(f"rf spin must be 1, 2, or 'both', got {self.spin!r}")
        checked_member(self.axis, ("x", "y"), "rf axis")
        angle_rad = parse_angle(self.angle)
        if not math.isfinite(angle_rad):
            raise ValueError(f"rf angle must be finite, got {self.angle!r}")
        _check_no_padding("rf angle", self.angle)
        _store(self, angle_rad=angle_rad)


@dataclass(frozen=True)
class Delay:
    """Free evolution under the coupling; duration like 1/4J or seconds.

    `j_fraction` is (n, d) for a J-relative duration n/dJ and None for
    one in seconds, parsed once.
    """

    duration: str

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

    __reduce__ = _by_fields

    def __post_init__(self):
        checked_member(self.axis, ("z",), "gradient axis")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse elements, applied left to right.

    Validated in one pass at construction, which also derives:
    `segments`, the gradient-free runs, n + 1 for n gradients, each a
    tuple of elements; and `j_delay`, its first n/dJ delay (None without
    one), which lowering it at J = 0 raises for.
    """

    elements: tuple

    __reduce__ = _by_fields

    def __hash__(self):
        return self._hash

    def __post_init__(self):
        elements = tuple(self.elements)
        cuts, j_delay = [], None
        for i, e in enumerate(elements):
            if isinstance(e, Gradient):
                cuts.append(i)
            elif isinstance(e, Delay):
                if j_delay is None and e.j_fraction is not None:
                    j_delay = e
            elif not isinstance(e, Rf):
                raise TypeError(f"unsupported pulse element {e!r}")
        bounds = zip([-1, *cuts], [*cuts, len(elements)])
        _store(self, elements=elements, j_delay=j_delay, _hash=hash(elements),
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
    """Traceless Hermitian 4x4 matrix carrying the observable signal.

    Its spectrum read-out is stored on it: the amplitudes (`_amplitudes`),
    the lines at the J last asked (`_lines`) and the fingerprint.  It
    pickles by its entries, so a load checks and freezes them again and
    carries none of these.
    """

    entries: np.ndarray

    __reduce__ = _by_fields

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, (4, 4)))
        check_hermitian(self.entries, 0, "deviation matrix")


def element_unitary(e, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Unitary matrix of one rf pulse or delay; gradients have none."""
    if isinstance(e, Rf):
        r = rotation_2x2(e.axis, e.angle_rad)  # the rotating frame makes a pulse read no constant
        return kron2(_EYE2 if e.spin == 2 else r, _EYE2 if e.spin == 1 else r)
    if isinstance(e, Delay):
        # exp(-i tau H) with H = 2*pi*J*Iz1*Iz2 diagonal: entrywise in the coupling phase.
        return np.diag(np.exp(-1j * e.coupling_phase(consts) * _IZIZ_DIAGONAL))
    raise ValueError("a gradient pulse has no unitary representation")


def lower(seq: PulseSequence, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> tuple:
    """Net unitaries of the gradient-free runs of `seq`, in order.

    A full crush separates each pair, so a program with n gradients has
    n + 1 segments; a leading, trailing or doubled gradient gives an
    identity segment.  Each array is read-only and checked unitary.  At
    J = 0 it raises at the program's first n/dJ delay.  It keeps no memo.
    """
    return tuple(_lower_run(run, consts) for run in seq.segments)


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


def _fold(u: np.ndarray, tail: np.ndarray | None, v: np.ndarray) -> np.ndarray:
    # vec(rho) `v` after a first run with net unitary `u`, then `tail`, the map
    # of the runs after a crush (`_after_crush`); None where no crush follows.
    if tail is None:
        return _superoperator(u) @ v
    # A crush reads only the population rows 5i of kron(u, conj u), u[i, :] (x) conj u[i, :].
    rows = (u[:, :, None] * u.conj()[:, None, :]).reshape(4, 16)
    return tail @ (rows @ v)


def _after_crush(runs, consts: PhysicalConstants) -> np.ndarray:
    # The 16x4 map from the populations a crush leaves to vec of the state after
    # `runs` (crushed between each pair), folded in a loop, not by recursion; a
    # run acts by the population columns 5k of kron(u, conj u), u[:, k] (x) conj u[:, k].
    t = np.eye(16)[:, _POPULATIONS]
    for u in (_lower_run(run, consts) for run in runs):
        t = (u[:, None, :] * u.conj()[None, :, :]).reshape(16, 4) @ t[_POPULATIONS]
    return t


def simulate_sequence(
    seq: PulseSequence,
    rho0: DeviationMatrix,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> DeviationMatrix:
    """Fold vec(rho0) through the program's runs (`_fold`).

    vec is row-major, vec(rho)[4*i + j] = rho[i, j], so a lowered run
    with net unitary U acts as kron(U, conj U).  A gradient between two
    runs keeps the 4 populations, vec entries 0, 5, 10 and 15, so only the
    first run's 4 population rows act where a crush follows it.

    The result is memoised on (program, J, rho0), with rho0 keyed by
    identity (`DeviationMatrix` compares by identity; the memo holds
    rho0, so its id is not reused while the entry lives).  A warm call
    lowers nothing and returns the same state, built and checked once,
    which is immutable and shared, as `equilibrium_state`'s is; an equal
    rho0 built apart is a new key.  At J = 0 lowering raises at the
    program's first n/dJ delay, so no entry is stored and every call raises.
    """
    return _simulate(seq, consts.j_hz, rho0)


@functools.lru_cache(maxsize=_PROGRAMS)
def _simulate(seq: PulseSequence, j_hz: float, rho0: DeviationMatrix) -> DeviationMatrix:
    consts = PhysicalConstants(j_hz=j_hz)  # the frame reads no constant but J
    first, *later = seq.segments
    u, tail = _lower_run(first, consts), _after_crush(later, consts) if later else None
    return DeviationMatrix(_fold(u, tail, rho0.entries.reshape(16)).reshape(4, 4))


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


# The prep after its alpha pulse; it holds no delay in seconds, so one `_PREP_TAIL`
# serves every J != 0, and its `j_delay` refuses J = 0.
_PREP_AFTER_ALPHA = PulseSequence((Gradient(), _rf(1, "x", 1, 4), *_REFOCUSED_HALF_J,
                                   _rf(1, "y", -1, 4), Gradient()))
_PREP_TAIL = _frozen_array(_after_crush(_PREP_AFTER_ALPHA.segments[1:], DEFAULT_CONSTANTS), (16, 4))


@dataclass(frozen=True)
class Gate:
    """A library gate: its program and, if it has one, its y-kind ideal unitary.

    Both are built once, at import, and shared; the library holds only
    the y-kind presets.  The prep's program reads the constants, so it
    is built per call (`pulses` is None), and the prep and the readouts
    have no unitary target (`ideal` is None).  `fit`, derived at
    construction, is the program's (phase, distance) against the target,
    or None.  A program with a target is one run, as its net unitary is
    what is fit, and holds no delay in seconds, so the fit holds at every
    J != 0; its `j_delay` refuses J = 0.
    """

    pulses: PulseSequence | None
    ideal: Operator4 | None = None

    __reduce__ = _by_fields

    def __post_init__(self):
        if self.ideal is not None and len(self.pulses.segments) > 1:
            raise ValueError("a gate with a target contains a gradient; no net unitary exists")
        if self.ideal is not None and any(isinstance(e, Delay) and e.j_fraction is None
                                          for e in self.pulses):
            raise ValueError("a gate with a target holds a delay in seconds; its fit would hold "
                             "at one J only")
        fit = None if self.ideal is None else phase_fit(*lower(self.pulses), self.ideal.matrix)
        _store(self, fit=fit)


def _u_gate(j: int) -> Gate:
    # U_j = R_y^1(phi1) R_y^2(phi2) in quarter turns; equal angles make one hard pulse.
    c = grover.preset("y", j)
    q1, q2 = (round(4 * phi / np.pi) for phi in (c.phi1, c.phi2))
    pulses = (_rf("both", "y", q1, 4),) if q1 == q2 else (_rf(1, "y", q1, 4), _rf(2, "y", q2, 4))
    return Gate(PulseSequence(pulses), grover.build_U(c))


_U_GATES = {j: _u_gate(j) for j in (1, 2, 3, 4)}

# The gate library, in the order `verify --all` checks it; U{j}-inv time-reverses U{j}.
GATES = {
    **{f"U{j}": u for j, u in _U_GATES.items()},
    **{f"U{j}-inv": Gate(u.pulses.inverse(), u.ideal.adjoint()) for j, u in _U_GATES.items()},
    "I_t": Gate(
        PulseSequence((Delay("1/2J"), _rf("both", "x", 1), Delay("1/2J"), _rf("both", "x", -1))),
        grover.SIGN_FLIP_TARGET,
    ),
    "I_s": Gate(
        PulseSequence((*_REFOCUSED_HALF_J,
                       _rf("both", "y", -1, 2), _rf("both", "x", -1, 2), _rf("both", "y", 1, 2))),
        grover.PHASE_SHIFT_S,
    ),
    "V2": Gate(PulseSequence((_rf(2, "x", 1), _rf(2, "y", -1, 2))), coding.encoder("y", 2)),
    "V3": Gate(PulseSequence((_rf(2, "x", 1), _rf(2, "y", 1, 2))), coding.encoder("y", 3)),
    "V4": Gate(PulseSequence((_rf(2, "y", 1),)), coding.encoder("y", 4)),
    "pseudo-pure-prep": Gate(None),
    "readout-carbon": Gate(PulseSequence((_rf(1, "y", 1, 2),))),
    "readout-proton": Gate(PulseSequence((_rf(2, "y", 1, 2),))),
}


def _gate(name: str, kind: str) -> Gate:
    if kind != "y":
        raise ValueError("the pulse library covers only the y-kind presets")
    if name not in GATES:
        raise ValueError(f"unknown gate {name!r}; known gates: {', '.join(GATES)}")
    return GATES[name]


def gate_library(
    name: str,
    kind: str = "y",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> PulseSequence:
    """Pulse realization of a named gate (y-kind presets only)."""
    seq = _gate(name, kind).pulses
    if seq is None:  # the prep, whose alpha pulse turns by an angle that reads gamma_ratio
        seq = PulseSequence((Rf(2, "x", repr(alpha_angle(consts))), *_PREP_AFTER_ALPHA))
    return seq


def ideal_gate_unitary(name: str, kind: str = "y") -> Operator4:
    """The exact operator a library gate is meant to realize (y-kind presets only)."""
    ideal = _gate(name, kind).ideal
    if ideal is None:
        raise ValueError(f"gate {name!r} has no unitary target")
    return ideal


class GateCheck(NamedTuple):
    ok: bool
    distance: float
    phase: complex


def verify_realization(
    name: str,
    kind: str = "y",
    tol: float | None = None,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> GateCheck:
    """Compare a gate's net pulse unitary to its ideal, up to global phase.

    It reads the gate's `fit`, made once at import, under any tolerance (no
    tol reads `qstate.VERIFY_TOL` at the call) and any constants; at J = 0
    its program's `j_delay` raises.  The check is built on the first call
    for a tolerance and stored on the gate; a call with another tolerance
    replaces it, so each call returns the check of the tolerance it was given.
    """
    if tol is None:
        tol = qstate.VERIFY_TOL
    elif not tol > 0:  # written so that NaN fails
        raise ValueError("tolerance must be positive")
    gate = _gate(name, kind)
    if gate.fit is None:  # a fitted gate's program is one run, as `Gate` checks
        seq = gate_library(name, kind, consts) if gate.pulses is None else gate.pulses
        if len(seq.segments) > 1:
            raise ValueError(f"gate {name!r} contains gradients; no net unitary exists")
        ideal_gate_unitary(name, kind)  # raises: a gate without a fit has no target
    if consts.j_hz == 0 and gate.pulses.j_delay is not None:
        gate.pulses.j_delay._check_coupled(consts)
    stored = getattr(gate, "_check", None)
    if stored is None or stored[0] != tol:
        phase, distance = gate.fit
        stored = tol, GateCheck(distance < tol, distance, phase)
        _store(gate, _check=stored)
    return stored[1]


@functools.lru_cache(maxsize=_PROGRAMS)
def equilibrium_state(consts: PhysicalConstants = DEFAULT_CONSTANTS) -> DeviationMatrix:
    """Thermal deviation matrix gamma1*Iz1 + gamma2*Iz2 with gamma1 = 1.

    Memoised per constants; the result is immutable.
    """
    return DeviationMatrix(IZ1 + consts.gamma_ratio * IZ2)


def target_pseudo_pure() -> np.ndarray:
    """|uu><uu| - I/4, identical to Iz1/2 + Iz2/2 + Iz1*Iz2; read-only."""
    return basis_pseudo_pure(BasisLabel.UU).entries


def pseudo_pure_fit(rho: DeviationMatrix) -> tuple[float, float]:
    """(scale, deviation) of rho against the pseudo-pure target.

    scale is the projection of rho on the target; deviation is the largest
    entry of rho - scale * target relative to the largest of scale * target.
    """
    entries = rho.entries
    target = target_pseudo_pure()
    scale = float(np.real(np.trace(entries @ target) / np.trace(target @ target)))
    deviation = float(np.abs(entries - scale * target).max() / np.abs(scale * target).max())
    return scale, deviation


def basis_pseudo_pure(label: BasisLabel) -> DeviationMatrix:
    """|label><label| - I/4."""
    proj = np.zeros((4, 4), dtype=complex)
    proj[label.index, label.index] = 1.0
    return DeviationMatrix(proj - np.eye(4) / 4.0)


def prepare_pseudo_pure(consts: PhysicalConstants = DEFAULT_CONSTANTS) -> DeviationMatrix:
    """Run the spatial-averaging prep sequence on the equilibrium state.

    Byte for byte `simulate_sequence` of the program, with no 4x4 before
    `_PREP_TAIL`: the thermal start is the diagonal of `equilibrium_state`,
    and the alpha pulse kron(I, r), r = `rotation_2x2("x", alpha)`, maps it to
    the populations a crush keeps by kron(I, [[c^2, s^2], [s^2, c^2]]), for
    c, s = cos, sin(alpha / 2).  In the program's order it checks the
    gamma_ratio domain, r unitary (kron(I, r) has r's defect), J != 0, the
    thermal entries as `check_hermitian` would and the result; it adds no
    memo entry, so each call returns a new, checked state.
    """
    r = rotation_2x2("x", alpha_angle(consts))
    qstate._check_unitary(r)
    _PREP_AFTER_ALPHA.j_delay._check_coupled(consts)
    half = 0.5 * consts.gamma_ratio
    # A real diagonal is Hermitian if finite; each +-0.5 +- half is finite exactly when half is.
    if not math.isfinite(half):
        raise ValueError("deviation matrix must be Hermitian")
    d0, d1, d2, d3 = 0.5 + half, 0.5 - half, -0.5 + half, -0.5 - half  # diag(Iz1 + g Iz2)
    if not abs((d0 + d1) + (d2 + d3)) < qstate.EXACT_TOL:
        raise ValueError("deviation matrix must have trace 0")
    (c, s), _ = r.tolist()
    c2, s2 = c.real * c.real, s.imag * s.imag  # products, as in |alpha|^2; c ** 2 may round apart
    populations = [c2 * d0 + s2 * d1, s2 * d0 + c2 * d1, c2 * d2 + s2 * d3, s2 * d2 + c2 * d3]
    return DeviationMatrix(_PREP_TAIL.dot(populations).reshape(4, 4))


@dataclass(frozen=True)
class SpectrumLine:
    """One doublet component, labeled by the partner spin's state."""

    spin: int
    line: str
    offset_hz: float
    amplitude: complex


_LINES = ("partner_up", "partner_down")


def _readout_rows(name: str, coherences: list) -> np.ndarray:
    # The two rows of the readout's map (one rf pulse, which reads no
    # constant), divided by the uu reference's partner-up line.
    rows = _superoperator(*lower(GATES[name].pulses))[coherences]
    reference = rows[0] @ basis_pseudo_pure(BasisLabel.UU).entries.reshape(16)
    return _frozen_array(rows / reference, (2, 16))


# Per spin, the rows of the (partner-up, partner-down) coherences read after its
# readout gate: rho[2, 0], rho[3, 1] (spin 1) or rho[1, 0], rho[3, 2] (spin 2).
_READOUT_ROWS = (_readout_rows("readout-carbon", [8, 13]), _readout_rows("readout-proton", [4, 14]))


def _amplitudes(rho: DeviationMatrix) -> tuple:
    # Each spin's (partner-up, partner-down) amplitudes, read on the first call
    # and stored on the immutable state, so they live exactly as long as it does.
    pairs = getattr(rho, "_pairs", None)
    if pairs is None:
        v = rho.entries.reshape(16)
        pairs = tuple(tuple((rows @ v).tolist()) for rows in _READOUT_ROWS)
        _store(rho, _pairs=pairs)
    return pairs


def _lines(rho: DeviationMatrix, j_hz: float) -> tuple:
    # Each spin's (partner-up, partner-down) lines at J j_hz, built on the first
    # call for that J and stored on the state; a call at another J replaces them.
    # +0.0 and -0.0 compare equal but give the offsets other signs, so a zero J
    # is matched by its sign too.
    stored = getattr(rho, "_lines", None)
    if (stored is None or stored[0] != j_hz
            or j_hz == 0 and math.copysign(1.0, stored[0]) != math.copysign(1.0, j_hz)):
        half_j = j_hz / 2.0
        stored = j_hz, tuple(
            (SpectrumLine(spin, _LINES[0], +half_j, up), SpectrumLine(spin, _LINES[1], -half_j, down))
            for spin, (up, down) in zip((1, 2), _amplitudes(rho)))
        _store(rho, _lines=stored)
    return stored[1]


def predict_spectrum(
    rho: DeviationMatrix,
    spin: int,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> list:
    """Both doublet lines of one spin, calibrated against the uu reference.

    The calibration constant is fixed so the uu pseudo-pure state shows
    +1 on its nonzero (partner-up) line; which signed frequency offset
    carries the partner-up label is a convention, set here to +J/2.
    Both spins' amplitudes are read off a state once (`_amplitudes`), and
    both spins' lines are built once per state for the J last asked and
    kept on it (`_lines`).  Each call returns a fresh list, but its lines
    are shared and frozen, and carry the int spin 1 or 2.
    """
    checked_index(spin, SPINS, "spin")
    return list(_lines(rho, consts.j_hz)[spin - 1])


@dataclass(frozen=True)
class Fingerprint:
    """Per-spin (nonzero line, sign) pattern; distinct for each basis state."""

    spin1: tuple
    spin2: tuple


def spectrum_fingerprint(rho: DeviationMatrix) -> Fingerprint:
    """Identify which basis pseudo-pure state produced the spectrum.

    A basis state shows one real line per spin, so a spin is refused if
    its lines are all below `qstate.CLASSIFY_TOL` times the state's largest
    entry, or its weaker line, or its dominant line's imaginary part,
    exceeds CLASSIFY_TOL times the dominant line; all three tests are
    relative, so the fingerprint does not depend on the state's scale, and
    the zero state and NaN are refused.  A state is classified once and
    its fingerprint kept on it; a refused state keeps nothing, so each
    call raises the same error again.
    """
    fingerprint = getattr(rho, "_fingerprint", None)
    if fingerprint is not None:
        return fingerprint
    signatures, scale = [], np.abs(rho.entries).max()
    for spin, amplitudes in zip((1, 2), _amplitudes(rho)):
        line = int(abs(amplitudes[1]) > abs(amplitudes[0]))
        dominant, weaker = amplitudes[line], abs(amplitudes[1 - line])
        problem = None
        if not abs(dominant) > CLASSIFY_TOL * scale:
            problem = "line amplitudes are all below 1e-9 of the state's largest entry"
        elif weaker > CLASSIFY_TOL * abs(dominant):
            problem = f"shows both doublet lines ({abs(dominant):.3g} and {weaker:.3g})"
        elif abs(dominant.imag) > CLASSIFY_TOL * abs(dominant):
            problem = f"line {dominant:.3g} is 90 degrees out of phase"
        if problem:
            raise ValueError(f"spin {spin} {problem}; not a basis pseudo-pure state")
        signatures.append((_LINES[line], 1 if dominant.real > 0 else -1))
    fingerprint = Fingerprint(*signatures)
    _store(rho, _fingerprint=fingerprint)
    return fingerprint


def _program(factors, j: int, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> PulseSequence:
    # The library programs of `factors` in turn, `grover`'s U and U-inv read as preset j's gates.
    names = {"U": f"U{j}", "U-inv": f"U{j}-inv"}
    programs = (gate_library(names.get(f, f), consts=consts) for f in factors)
    return PulseSequence(tuple(e for seq in programs for e in seq))


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
    encode = [f"V{k}"] if k > 1 else []
    factors = ("pseudo-pure-prep", *grover.G_FACTORS, *encode, *grover.G_INVERSE_FACTORS)
    return _program(factors, j, consts)
