"""Command-line front end.

Subcommands:
    tables   print a classification or protocol-outcome table and check
             it against the built-in reference copy
    run      execute one protocol run (or the 3-bit ancilla variant)
    verify   compare pulse realizations against their ideal operators
    spectra  emit the two-spin spectrum as CSV
    compile  print the pulse text for a named gate

Messages on the command line are 0-based: message m applies the
manipulation V_{m+1}.  Ancilla messages pack the set-selector bit as
the high bit and m as the low two bits.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import bell, coding, grover, nmr, qstate
from .qstate import DISPLAY_ZERO, REFERENCE_TOL, BasisLabel, checked_index, equal_up_to_phase

_S = 1.0 / np.sqrt(2.0)

# The keys of a --constants file, all required, in the order messages list them.
_CONSTANT_KEYS = tuple(field.name for field in dataclasses.fields(nmr.PhysicalConstants))

# Reference copies of the published classification results, as Bell
# coordinates (psi1..psi4); comparisons ignore the overall phase.
TABLE1_Y_REFERENCE = {
    1: ((-1, 0, 0, 0), (0, -_S, -_S, 0), (0, -_S, _S, 0), (0, 0, 0, -1)),
    2: ((0, -1, 0, 0), (_S, 0, 0, -_S), (-_S, 0, 0, -_S), (0, 0, -1, 0)),
    3: ((0, 0, -1, 0), (_S, 0, 0, _S), (_S, 0, 0, -_S), (0, 1, 0, 0)),
    4: ((0, 0, 0, 1), (0, -_S, _S, 0), (0, _S, _S, 0), (-1, 0, 0, 0)),
}
TABLE1_X_REFERENCE = {
    1: ((1, 0, 0, 0), (0, _S, 0, 1j * _S), (0, _S, 0, -1j * _S), (0, 0, 1, 0)),
}

# Reference protocol outcomes keyed by (starting Bell index, k).
TABLE2_Y_REFERENCE = {
    (1, 1): "uu", (2, 1): "uu", (3, 1): "uu", (4, 1): "uu",
    (1, 2): "du", (2, 2): "ud", (3, 2): "ud", (4, 2): "du",
    (1, 3): "ud", (2, 3): "du", (3, 3): "du", (4, 3): "ud",
    (1, 4): "dd", (2, 4): "dd", (3, 4): "dd", (4, 4): "dd",
}
TABLE2_X_REFERENCE = {
    (1, 1): "uu", (1, 2): "ud", (1, 3): "du", (1, 4): "dd",
}


def _fmt_csv_number(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"refusing to write a non-finite CSV value ({x!r})")
    # Snap residue from pulse-level simulation to an exact 0 so
    # protocol CSVs match the ideal reference CSVs byte for byte.
    if abs(x) < DISPLAY_ZERO:
        x = 0.0
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}i"


def _fmt_coords(v: bell.BellVector) -> str:
    return "  ".join(
        f"ψ{k + 1} {_fmt_complex(complex(z))}" for k, z in enumerate(v.coords)
    )


def _load_constants(parser: argparse.ArgumentParser, path: str | None):
    if path is None:
        return nmr.DEFAULT_CONSTANTS
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or key not in _CONSTANT_KEYS:
                    parser.error(f"{path}: line {lineno}: expected <key>=<value> "
                                 f"with key in {', '.join(_CONSTANT_KEYS)}")
                if key in values:
                    parser.error(f"{path}: line {lineno}: duplicate key {key}")
                try:
                    values[key] = float(value.strip())
                except ValueError:
                    parser.error(f"{path}: line {lineno}: bad number {value.strip()!r}")
    except OSError as exc:
        parser.error(f"cannot read constants file {path}: {exc}")
    missing = [key for key in _CONSTANT_KEYS if key not in values]
    if missing:
        parser.error(f"{path}: missing constants: {', '.join(missing)}")
    try:
        return nmr.PhysicalConstants(**values)
    except ValueError as exc:
        parser.error(f"{path}: {exc}")


def cmd_tables(args, parser) -> int:
    kind = args.kind
    mismatches = []
    if args.table == 1:
        rows = [["", "|↑↑>", "|↑↓>", "|↓↑>", "|↓↓>"]]
        for j in (1, 2, 3, 4):
            entries = grover.table1(grover.preset(kind, j))
            rows.append([f"G{j}"] + [entry.display for entry in entries])
            reference = (TABLE1_Y_REFERENCE if kind == "y" else TABLE1_X_REFERENCE).get(j)
            if reference is None:
                continue
            for entry, ref_coords in zip(entries, reference):
                ref = bell.BellVector(np.array(ref_coords, dtype=complex))
                if not equal_up_to_phase(entry.output, ref, tol=REFERENCE_TOL).equal:
                    mismatches.append(
                        f"mismatch: G{j} on |{entry.input.arrows}>: computed "
                        f"{entry.display}, reference {grover.bell_combination_str(ref)}"
                    )
        checked = "all rows" if kind == "y" else "G1 row"
    else:
        grid = coding.table2(kind)
        reference = TABLE2_Y_REFERENCE if kind == "y" else TABLE2_X_REFERENCE
        rows = [["", "|ψ1>", "|ψ2>", "|ψ3>", "|ψ4>"]]
        for k in (1, 2, 3, 4):
            rows.append([f"V{k}"] + [f"|{grid[(col, k)].arrows}>" for col in (1, 2, 3, 4)])
        for (col, k), expected in reference.items():
            actual = grid[(col, k)]
            if actual is not BasisLabel.from_string(expected):
                mismatches.append(
                    f"mismatch: column ψ{col}, V{k}: computed |{actual.arrows}>, "
                    f"reference |{BasisLabel.from_string(expected).arrows}>"
                )
        checked = "all cells" if kind == "y" else "ψ1 column"
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if mismatches:
        for line in mismatches:
            print(line)
        return 1
    print(f"ok: matches the reference table ({checked})")
    return 0


def cmd_run(args, parser) -> int:
    if (args.preset, args.kind, args.message).count(None) != (0 if args.ancilla is None else 3):
        parser.error("expected: run PRESET KIND MESSAGE, or run --ancilla MESSAGE")
    if args.ancilla is not None:
        message = coding.AncillaMessage.from_value(args.ancilla)
        result = coding.run_ancilla_protocol(message)
        trace, decoded = result.trace, result.recovered.value
        print(f"ancilla bit: {message.set_bit} ({trace.u_choice.axis} set)")
        print(f"encoder: V{message.v_index}")
    else:
        c = grover.preset(args.kind, args.preset)
        trace = coding.run_protocol(c, args.message + 1)
        decoded = coding.decode(trace.output_label, c) - 1
        print(f"preset: {args.preset} ({args.kind} kind)")
        print(f"message: {args.message} (applies V{args.message + 1})")
    print(f"output: |{trace.output_label.arrows}>")
    print(f"decoded message: {decoded}")
    if args.trace:
        print(f"starting state: {_fmt_coords(trace.starting_bell)}")
        print(f"encoded state:  {_fmt_coords(trace.encoded)}")
        if args.ancilla is None:
            probs = "  ".join(
                f"{label.short} {trace.probabilities[label]:.6f}" for label in BasisLabel
            )
            print(f"output probabilities: {probs}")
    return 0


def cmd_verify(args, parser) -> int:
    consts = _load_constants(parser, args.constants)
    verifiable = [name for name, g in nmr.GATES.items() if g.ideal is not None] + ["pseudo-pure-prep"]
    if not args.all and args.gate not in verifiable:
        parser.error(
            f"unknown or unverifiable gate {args.gate!r}; choose from {', '.join(verifiable)}"
        )
    names = verifiable if args.all else [args.gate]
    failures = 0
    unrealizable = []
    for name in names:
        try:
            if name == "pseudo-pure-prep":
                scale, deviation = nmr.pseudo_pure_fit(nmr.prepare_pseudo_pure(consts))
                ok = scale > 0 and deviation < qstate.VERIFY_TOL
                detail = f"relative deviation {deviation:.3e}  scale {scale:.6f}"
            else:
                check = nmr.verify_realization(name, consts=consts)
                ok = check.ok
                detail = f"distance {check.distance:.3e}  phase {_fmt_complex(check.phase)}"
        except ValueError as exc:
            # The constants put this gate outside the model's domain; the
            # other gates are still reported before the usage error.
            unrealizable.append(str(exc))
            print(f"{name:<16} {'n/a':<4} cannot be realized: {exc}")
            continue
        print(f"{name:<16} {'ok' if ok else 'FAIL':<4} {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} gate(s) failed verification")
    if unrealizable:
        parser.error(unrealizable[0])
    return 1 if failures else 0


def cmd_spectra(args, parser) -> int:
    consts = _load_constants(parser, args.constants)
    if args.protocol is not None:
        preset_index, message = args.protocol
        checked_index(preset_index, range(1, 5), "preset")
        checked_index(message, range(4), "message")
        seq = nmr.protocol_sequence(preset_index, message + 1, consts)
        rho = nmr.simulate_sequence(seq, nmr.equilibrium_state(consts), consts)
    else:
        rho = nmr.basis_pseudo_pure(BasisLabel.from_string(args.state))
    lines = ["spin,line_label,offset_hz,amp_real,amp_imag"]
    for spin in (1, 2):
        for line in nmr.predict_spectrum(rho, spin, consts):
            lines.append(
                f"{line.spin},{line.line},{_fmt_csv_number(line.offset_hz)},"
                f"{_fmt_csv_number(line.amplitude.real)},{_fmt_csv_number(line.amplitude.imag)}"
            )
    text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def cmd_compile(args, parser) -> int:
    consts = _load_constants(parser, args.constants)
    sys.stdout.write(nmr.gate_library(args.gate, consts=consts).to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densegrover",
        description="Dense coding over a generalized amplitude-amplification "
                    "operator, with a pulse-level realization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser(
        "tables", help="print a classification or outcome table and check it"
    )
    p_tables.add_argument("table", type=int, choices=(1, 2),
                          help="1: Bell classification of G; 2: protocol outcomes")
    p_tables.add_argument("kind", choices=("x", "y"), help="rotation axis of U")
    p_tables.set_defaults(func=cmd_tables, parser=p_tables)

    p_run = sub.add_parser(
        "run",
        help="run the protocol once",
        description="run PRESET KIND MESSAGE, or run --ancilla MESSAGE. "
                    "MESSAGE is 0-based: message m applies V_{m+1}. Ancilla "
                    "messages are 0..7 with the set bit high, m low.",
    )
    p_run.add_argument("preset", nargs="?", type=int, choices=range(1, 5), metavar="PRESET",
                       help="preset 1..4 of U")
    p_run.add_argument("kind", nargs="?", choices=("x", "y"), metavar="KIND",
                       help="rotation axis of U, x or y")
    p_run.add_argument("message", nargs="?", type=int, choices=range(4), metavar="MESSAGE",
                       help="message 0..3")
    p_run.add_argument("--ancilla", type=int, choices=range(8), metavar="MESSAGE",
                       help="run the 3-bit ancilla scheme with message 0..7")
    p_run.add_argument("--trace", action="store_true",
                       help="also print Bell coordinates at each stage")
    p_run.set_defaults(func=cmd_run, parser=p_run)

    p_verify = sub.add_parser(
        "verify", help="check pulse realizations against ideal operators"
    )
    target = p_verify.add_mutually_exclusive_group(required=True)
    target.add_argument("gate", nargs="?", help="gate name, e.g. I_t or U2")
    target.add_argument("--all", action="store_true", help="verify every library gate")
    p_verify.set_defaults(func=cmd_verify, parser=p_verify)

    p_spectra = sub.add_parser(
        "spectra", help="emit the two-spin spectrum as CSV"
    )
    source = p_spectra.add_mutually_exclusive_group(required=True)
    source.add_argument("state", nargs="?", choices=("uu", "ud", "du", "dd"),
                        help="basis pseudo-pure state to read out")
    source.add_argument("--protocol", nargs=2, type=int, metavar=("PRESET", "MESSAGE"),
                        help="simulate the full pulse program first (y kind)")
    p_spectra.add_argument("--output", metavar="FILE", help="write CSV here instead of stdout")
    p_spectra.set_defaults(func=cmd_spectra, parser=p_spectra)

    p_compile = sub.add_parser(
        "compile", help="print the pulse text for a named gate"
    )
    p_compile.add_argument("gate", help="gate name, e.g. I_s or pseudo-pure-prep")
    p_compile.set_defaults(func=cmd_compile, parser=p_compile)

    for p in (p_verify, p_spectra, p_compile):
        p.add_argument("--constants", metavar="FILE",
                       help=f"key=value file overriding {', '.join(_CONSTANT_KEYS)}")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # densegrover takes no option but -h, so leftovers before the
        # subcommand are the top-level parser's; the rest are the subcommand's.
        owner = args.parser if argv[0] == args.command else parser
        owner.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        # Each command reports usage errors through its own subparser.
        return args.func(args, args.parser)
    except ValueError as exc:
        # A library ValueError names an input outside the model's domain.
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
