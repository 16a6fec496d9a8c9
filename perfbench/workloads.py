"""Seeded inputs, timed operations and output oracles of the workloads.

Every workload is a closed loop with one client: the next operation is
issued only after the previous one has returned and been checked.  The
operations come in cycles of a fixed mix (`Workload.cycle` operations),
so every whole cycle does the same kinds of work in a seeded order with
seeded arguments.  Only `execute` is timed; `check` is the oracle and
runs outside the timed region.  The program is reached only through its
public modules, by module attribute, so the tracer's wrappers see every
call.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from densegrover import cli, coding, grover, nmr
from densegrover.qstate import BasisLabel

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
CHILD = HERE / "cli_child.py"

# The gates `densegrover verify --all` checks besides the prep.
VERIFIED_GATES = (
    "U1", "U2", "U3", "U4",
    "U1-inv", "U2-inv", "U3-inv", "U4-inv",
    "I_t", "I_s", "V2", "V3", "V4",
)

_HALF = 1.0 / math.sqrt(2.0)
_TOL = 1e-9


def _label(short: str) -> BasisLabel:
    return BasisLabel.from_string(short)


def _bell_index(coords) -> int:
    return int(np.argmax(np.abs(np.asarray(coords, dtype=complex)))) + 1


def _same_state(coords, reference) -> bool:
    """Unit vectors equal up to a global phase: |<ref|v>| = 1."""
    v = np.asarray(coords, dtype=complex)
    ref = np.asarray(reference, dtype=complex)
    return (abs(np.linalg.norm(v) - 1.0) < _TOL
            and abs(abs(np.vdot(ref, v)) - 1.0) < _TOL)


def _bell_pattern(coords) -> int:
    """1 or 2 for one Bell state or an equal-weight pair of two, else 0."""
    mags = sorted(np.abs(np.asarray(coords, dtype=complex)))
    for count, weight in ((1, 1.0), (2, _HALF)):
        if all(abs(m) < _TOL for m in mags[:4 - count]) and all(
            abs(m - weight) < _TOL for m in mags[4 - count:]
        ):
            return count
    return 0


# Which Bell state each y-kind preset synthesizes from up-up.
START_BELL_Y = {j: _bell_index(rows[0]) for j, rows in cli.TABLE1_Y_REFERENCE.items()}


def expected_y_label(j: int, k: int) -> BasisLabel:
    """Outcome of the y-kind protocol with preset j and encoder k."""
    return _label(cli.TABLE2_Y_REFERENCE[(START_BELL_Y[j], k)])


class Workload:
    name = ""
    cycle = 16
    # Operations in one traced pass; fixed, so call counts repeat exactly.
    trace_ops = 16
    # Each operation runs the program in a child process of its own.
    spawns_processes = False

    def ops(self, rng):
        """Endless stream of operation specs drawn from `rng`."""
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, output) -> bool:
        raise NotImplementedError

    def domain_probes(self, rng) -> list:
        """Untimed operations whose expected outcome is a ValueError."""
        return []

    def outcome(self, op, **kwargs):
        """The output of `op`, or the exception it raised."""
        try:
            return self.execute(op, **kwargs)
        except Exception as exc:  # the oracle decides whether it was expected
            return exc

    def warm_up(self, rng) -> None:
        """Run and check one cycle untimed so lazy caches are filled."""
        for op in islice(self.ops(rng), self.cycle):
            self.check(op, self.outcome(op))


class GateProtocol(Workload):
    """The ideal gate-level pipeline: G, encoder, G^-1, measurement."""

    name = "gate_protocol"
    _DECK = ("run",) * 8 + ("ancilla",) * 3 + ("table1",) * 2 + ("table2",) * 3
    cycle = len(_DECK)
    trace_ops = 2 * cycle

    def ops(self, rng):
        while True:
            deck = list(self._DECK)
            rng.shuffle(deck)
            for kind in deck:
                if kind == "run":
                    yield ("run", rng.choice("xy"), rng.randint(1, 4), rng.randint(1, 4))
                elif kind == "ancilla":
                    yield ("ancilla", rng.randrange(8))
                elif kind == "table1":
                    yield ("table1", rng.choice("xy"), rng.randint(1, 4))
                else:
                    yield ("table2", rng.choice("xy"))

    def execute(self, op):
        kind = op[0]
        if kind == "run":
            return coding.run_protocol(grover.preset(op[1], op[2]), op[3])
        if kind == "ancilla":
            return coding.run_ancilla_protocol(coding.AncillaMessage.from_value(op[1]))
        if kind == "table1":
            return grover.table1(grover.preset(op[1], op[2]))
        return coding.table2(op[1])

    def check(self, op, output) -> bool:
        if isinstance(output, Exception):
            return False
        kind = op[0]
        if kind == "run":
            return self._check_run(op[1], op[2], op[3], output)
        if kind == "ancilla":
            return self._check_ancilla(op[1], output)
        if kind == "table1":
            return self._check_table1(op[1], op[2], output)
        return self._check_table2(op[1], output)

    @staticmethod
    def _certain(trace) -> bool:
        return trace.probabilities[trace.output_label] > 1.0 - _TOL

    def _check_run(self, axis, j, k, trace) -> bool:
        if trace.message != k - 1 or not self._certain(trace):
            return False
        if axis == "y":
            return (trace.output_label is expected_y_label(j, k)
                    and _same_state(trace.starting_bell.coords, cli.TABLE1_Y_REFERENCE[j][0]))
        if j in cli.TABLE1_X_REFERENCE:
            if trace.output_label is not _label(cli.TABLE2_X_REFERENCE[(_bell_index(
                    cli.TABLE1_X_REFERENCE[j][0]), k)]):
                return False
            if not _same_state(trace.starting_bell.coords, cli.TABLE1_X_REFERENCE[j][0]):
                return False
        # Cells the reference tables leave out: the message must decode.
        return (_bell_pattern(trace.starting_bell.coords) == 1
                and coding.decode(trace.output_label, grover.preset(axis, j)) == k)

    def _check_ancilla(self, value, result) -> bool:
        message = coding.AncillaMessage.from_value(value)
        table = cli.TABLE2_Y_REFERENCE if message.set_bit == 0 else cli.TABLE2_X_REFERENCE
        trace = result.trace
        return (result.recovered.value == value
                and self._certain(trace)
                and trace.output_label is _label(table[(1, message.v_index)])
                and _same_state(trace.starting_bell.coords, cli.TABLE1_Y_REFERENCE[1][0]))

    def _check_table1(self, axis, j, entries) -> bool:
        if [e.input for e in entries] != list(BasisLabel):
            return False
        table = cli.TABLE1_Y_REFERENCE if axis == "y" else cli.TABLE1_X_REFERENCE
        if j in table:
            return all(_same_state(e.output.coords, ref) for e, ref in zip(entries, table[j]))
        # Unlisted rows: up-up goes to one Bell state, every input to one
        # Bell state or an equal-weight pair, and G being unitary, the
        # four images are orthonormal.
        patterns = [_bell_pattern(e.output.coords) for e in entries]
        images = np.array([e.output.coords for e in entries])
        gram = images.conj() @ images.T
        return patterns[0] == 1 and all(patterns) and np.abs(gram - np.eye(4)).max() < _TOL

    def _check_table2(self, axis, grid) -> bool:
        cells = {(col, k) for col in (1, 2, 3, 4) for k in (1, 2, 3, 4)}
        if set(grid) != cells:
            return False
        table = cli.TABLE2_Y_REFERENCE if axis == "y" else cli.TABLE2_X_REFERENCE
        if any(grid[cell] is not _label(short) for cell, short in table.items()):
            return False
        # Every column must be decodable: four messages, four outcomes.
        return all({grid[(col, k)] for k in (1, 2, 3, 4)} == set(BasisLabel)
                   for col in (1, 2, 3, 4))


class PulseProtocol(Workload):
    """Prep, pulse program and spectrum of the 16 y-kind protocol runs."""

    name = "pulse_protocol"

    def __init__(self):
        self.reference = {}
        for label in BasisLabel:
            rho = nmr.basis_pseudo_pure(label)
            lines = nmr.predict_spectrum(rho, 1) + nmr.predict_spectrum(rho, 2)
            self.reference[label] = (lines, nmr.spectrum_fingerprint(rho))
        if len({fp for _, fp in self.reference.values()}) != len(self.reference):
            raise RuntimeError("basis fingerprints are not distinct; the oracle cannot tell states apart")

    def ops(self, rng):
        while True:
            yield (rng.randint(1, 4), rng.randint(1, 4))

    def execute(self, op):
        j, k = op
        seq = nmr.protocol_sequence(j, k)
        rho = nmr.simulate_sequence(seq, nmr.equilibrium_state())
        lines = nmr.predict_spectrum(rho, 1) + nmr.predict_spectrum(rho, 2)
        return lines, nmr.spectrum_fingerprint(rho)

    def check(self, op, output) -> bool:
        if isinstance(output, Exception):
            return False
        lines, fingerprint = output
        ref_lines, ref_fingerprint = self.reference[expected_y_label(*op)]
        return (fingerprint == ref_fingerprint
                and len(lines) == len(ref_lines)
                and all(a.spin == b.spin and a.line == b.line
                        and abs(a.offset_hz - b.offset_hz) <= _TOL
                        and abs(a.amplitude - b.amplitude) <= _TOL
                        for a, b in zip(lines, ref_lines)))


# |uu><uu| - I/4, the state the prep must reach up to a positive scale.
_PSEUDO_PURE_UU = np.diag([0.75, -0.25, -0.25, -0.25])


class PulseVerifySweep(Workload):
    """`verify --all` under fresh physical constants on every operation.

    Timed operations draw constants inside the domain only.  The three
    out-of-domain cases (gamma_ratio < 0.5, j_hz = 0, j_hz = inf), whose
    expected outcome is a ValueError, are `domain_probes`: run once per
    run, untimed, and reported apart from the timed operations.
    """

    name = "pulse_verify_sweep"

    def ops(self, rng):
        while True:
            yield (
                ("nu1_hz", rng.uniform(20e6, 200e6)),
                ("nu2_hz", rng.uniform(200e6, 900e6)),
                ("j_hz", rng.uniform(1.0, 1000.0)),
                ("gamma_ratio", rng.uniform(0.5, 12.0)),
            )

    def domain_probes(self, rng) -> list:
        base = dict(next(self.ops(rng)))
        return [tuple(dict(base, **change).items()) for change in (
            {"gamma_ratio": rng.uniform(0.05, 0.45)}, {"j_hz": 0.0}, {"j_hz": math.inf})]

    def execute(self, op):
        consts = nmr.PhysicalConstants(**dict(op))
        checks = [nmr.verify_realization(name, consts=consts) for name in VERIFIED_GATES]
        return checks, nmr.prepare_pseudo_pure(consts)

    def check(self, op, output) -> bool:
        if isinstance(output, Exception):
            return False
        checks, prep = output
        if not all(c.ok and c.distance < _TOL for c in checks):
            return False
        rho = np.asarray(prep.entries)
        target = _PSEUDO_PURE_UU
        scale = float(np.real(np.trace(rho @ target) / np.trace(target @ target)))
        if not scale > 0:
            return False
        deviation = float(np.abs(rho - scale * target).max() / np.abs(scale * target).max())
        return deviation < _TOL


_NUMBER = re.compile(r"[+-]?\d+(?:\.\d+)?(?:e[+-]?\d+)?")
# Entry point as installed by the project's console script.
CLI_ENTRY = "import sys; from densegrover.cli import main; sys.exit(main())"


def same_text(actual: str, expected: str, tol: float = 1e-6) -> bool:
    """Equal text, with every number equal within `tol`.

    Round-off such as a verification distance of 1e-16 or the sign of a
    printed zero is not a change of output.
    """
    if _NUMBER.sub("#", actual) != _NUMBER.sub("#", expected):
        return False
    a, e = _NUMBER.findall(actual), _NUMBER.findall(expected)
    return len(a) == len(e) and all(abs(float(x) - float(y)) <= tol for x, y in zip(a, e))


class CliProcess(Workload):
    """Fresh `densegrover` processes, one command each, run in sequence.

    Expected stdout is stored under golden/; `spectra --protocol J M`
    must print the CSV of the basis state the protocol table names.
    """

    name = "cli_process"
    _DECK = (
        ("tables", "2", "y"),
        ("tables", "1", "x"),
        ("run", "2", "y", "2", "--trace"),
        ("run", "--ancilla", "7"),
        ("verify", "--all"),
        ("spectra", "--protocol"),
        ("compile", "pseudo-pure-prep"),
    )
    cycle = len(_DECK)
    trace_ops = cycle
    spawns_processes = True

    def __init__(self):
        self.golden = {path.stem: path.read_text(encoding="utf-8")
                       for path in GOLDEN_DIR.glob("*.txt")}
        self.env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))

    def ops(self, rng):
        while True:
            deck = list(self._DECK)
            rng.shuffle(deck)
            for args in deck:
                if args[0] == "spectra":
                    args = args + (str(rng.randint(1, 4)), str(rng.randrange(4)))
                yield args

    def golden_key(self, args) -> str:
        if args[0] == "spectra":
            return "spectra_" + expected_y_label(int(args[2]), int(args[3]) + 1).short
        return "_".join(a.lstrip("-") for a in args)

    def execute(self, op, traced: bool = False):
        entry = [str(CHILD)] if traced else ["-c", CLI_ENTRY]
        done = subprocess.run([sys.executable, *entry, *op], env=self.env, capture_output=True,
                              text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def check(self, op, output) -> bool:
        if isinstance(output, Exception):
            return False
        returncode, stdout, _ = output
        expected = self.golden.get(self.golden_key(op))
        return returncode == 0 and expected is not None and same_text(stdout, expected)

    def warm_up(self, rng) -> None:
        # Each operation is a new process; nothing in this one to warm.
        pass


WORKLOADS = {w.name: w for w in (GateProtocol, PulseProtocol, PulseVerifySweep, CliProcess)}
