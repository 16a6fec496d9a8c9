"""Each tolerance in `qstate` sits well inside the margin the library shows.

For each tolerance this measures the worst float error its checks see on
right answers over the library, and the smallest gap a wrong answer
shows.  A tolerance sits at least 1e3 above the first (EXACT_TOL, the
bound of exact-arithmetic identities, at least 100) and at least 1e3
below the second, so a tolerance tightened into rounding noise, or
loosened far enough to pass a wrong answer, fails here.
"""

import random

import numpy as np
import pytest

from densegrover import cli, coding, grover, nmr, qstate
from densegrover.qstate import BasisLabel, Ket4, partial_trace, phase_fit

TOLERANCES = ["EXACT_TOL", "VERIFY_TOL", "REFERENCE_TOL", "CLASSIFY_TOL", "DISPLAY_ZERO",
              "PRESET_TOL", "SIGN_TOL"]
UNITARY_GATES = [name for name, gate in nmr.GATES.items() if gate.ideal is not None]
PRESETS = [(kind, j) for kind in ("x", "y") for j in (1, 2, 3, 4)]
# The presets' angles as quarter turns (phi1, phi2), written apart from grover's table.
QUARTER_TURNS = {
    ("y", 1): (1, 3), ("y", 2): (1, -3), ("y", 3): (1, 1), ("y", 4): (1, -1),
    ("x", 1): (1, -3), ("x", 2): (1, 3), ("x", 3): (1, 1), ("x", 4): (1, -1),
}
SIGNS = (1.0, -1.0, 1j, -1j)


def drawn_constants(count: int, seed: int) -> list:
    """Seeded constants in the prep's domain: gamma_ratio >= 0.5, J away from 0."""
    rng = random.Random(seed)
    return [nmr.PhysicalConstants(nu1_hz=rng.uniform(20e6, 200e6), nu2_hz=rng.uniform(200e6, 900e6),
                                  j_hz=rng.uniform(1.0, 1000.0), gamma_ratio=rng.uniform(0.5, 12.0))
            for _ in range(count)]


CONSTANTS = [nmr.DEFAULT_CONSTANTS, *drawn_constants(200, 29)]
# The prep's domain edge and gamma_ratio values far above the drawn ones.
EDGE_CONSTANTS = [nmr.PhysicalConstants(gamma_ratio=g) for g in (0.5, 1e7, 1e15)]


def fit_error(a, b) -> float:
    """How far a is from a unit multiple of b: both of equal_up_to_phase's tests in one number."""
    lam, residual = phase_fit(np.asarray(a), np.asarray(b))
    return max(abs(abs(lam) - 1.0), residual)


def unitarity_defect(m) -> float:
    return float(np.abs(m @ m.conj().T - np.eye(len(m))).max())


def hermitian_errors(m, trace) -> tuple:
    """check_hermitian's two residues: the largest skew and the trace's distance."""
    return float(np.abs(m - m.conj().T).max()), abs(complex(np.trace(m)) - trace)


def display_terms(coords) -> tuple:
    """bell_combination_str's view of coords: its nonzero indices and phase-fixed, scaled terms."""
    nonzero = [k for k in range(4) if abs(coords[k]) > qstate.CLASSIFY_TOL]
    lead = coords[nonzero[0]]
    normalized = coords * (lead.conjugate() / abs(lead))
    return nonzero, normalized / abs(normalized[nonzero[0]])


def line_ratios(rho) -> list:
    """Per spin, spectrum_fingerprint's (dominant line, weaker/dominant, imaginary/dominant)."""
    ratios = []
    for amplitudes in ([line.amplitude for line in nmr.predict_spectrum(rho, spin)] for spin in (1, 2)):
        line = int(abs(amplitudes[1]) > abs(amplitudes[0]))
        dominant = amplitudes[line]
        ratios.append((abs(dominant), abs(amplitudes[1 - line]) / abs(dominant),
                       abs(dominant.imag) / abs(dominant)))
    return ratios


@pytest.fixture(scope="module")
def margins() -> dict:
    """Per tolerance, ({right answer: worst float error}, {wrong answer: smallest gap})."""
    # The 16 protocol programs' final states at 41 sets of constants.
    runs = [(c, nmr.simulate_sequence(nmr.protocol_sequence(j, k, c), nmr.equilibrium_state(c), c))
            for c in CONSTANTS[:41] for j in (1, 2, 3, 4) for k in (1, 2, 3, 4)]
    states = [rho for _, rho in runs]
    entries = {key: grover.table1(grover.preset(*key)) for key in PRESETS}
    coords = [entry.output.coords for row in entries.values() for entry in row]
    starts = [coding.run_protocol(grover.preset(*key), 1).starting_bell.coords for key in PRESETS]
    csv = [x for c, rho in runs for spin in (1, 2)
           for line in nmr.predict_spectrum(rho, spin, c)
           for x in (line.offset_hz, line.amplitude.real, line.amplitude.imag)]
    lowered = {name: nmr.lower(nmr.GATES[name].pulses)[0] for name in UNITARY_GATES}
    # Two different gates: a program fitted to the other's target, and the two targets.
    other_gates = [phase_fit(lowered[a], nmr.GATES[b].ideal.matrix)[1]
                   for a in UNITARY_GATES for b in UNITARY_GATES if a != b]
    other_targets = [fit_error(nmr.GATES[a].ideal.matrix, nmr.GATES[b].ideal.matrix)
                     for a in UNITARY_GATES for b in UNITARY_GATES if a != b]
    # A right Bell state's residue after the display normalization, and a two-term one's weight.
    terms = [display_terms(v) for v in coords]
    zeros = [abs(v[k]) for v in coords for k in range(4) if abs(v[k]) <= qstate.CLASSIFY_TOL]
    weights = [abs(abs(t[k]) - 1.0) for nonzero, t in terms for k in nonzero]
    weights += [abs(abs(v[k]) - 2 ** -0.5) for v, (nonzero, _) in zip(coords, terms)
                if len(nonzero) == 2 for k in nonzero]
    signs = [min(abs(t[k] - s) for s in SIGNS) for nonzero, t in terms for k in nonzero]
    # A state that is no basis state: uu turned by a 90-degree x pulse on spin 1.
    turned = line_ratios(nmr.simulate_sequence(nmr.parse_sequence("rf 1 x pi/2"),
                                               nmr.basis_pseudo_pure(BasisLabel.UU)))
    ratios = [r for rho in states for r in line_ratios(rho)]
    reduced_starts = [partial_trace(Ket4(grover.PRESETS[key].g.matrix[:, 0]), spin)
                      for key in PRESETS for spin in (1, 2)]
    references = [(entries["y", j], rows) for j, rows in cli.TABLE1_Y_REFERENCE.items()]
    references += [(entries["x", j], rows) for j, rows in cli.TABLE1_X_REFERENCE.items()]
    return {
        "EXACT_TOL": ({
            "unitarity of the library's operators": max(
                [unitarity_defect(op.matrix) for key in PRESETS for op in grover.PRESETS[key][:2]]
                + [unitarity_defect(grover.build_U(grover.preset(*key)).matrix) for key in PRESETS]
                + [unitarity_defect(coding.encoder(kind, k).matrix)
                   for kind in "xy" for k in (1, 2, 3, 4)]
                + [unitarity_defect(u) for u in lowered.values()]),
            "unitarity of the prep's 2x2 rotation": max(
                unitarity_defect(qstate.rotation_2x2("x", nmr.alpha_angle(c)))
                for c in CONSTANTS + EDGE_CONSTANTS),
            "Hermitian skew and trace of the protocol states": max(
                max(hermitian_errors(rho.entries, 0)) for rho in states),
            "Hermitian skew and trace of the reduced starting states": max(
                max(hermitian_errors(reduced.entries, 1)) for reduced in reduced_starts),
            "x1's state against y1's": fit_error(grover.PRESETS["x", 1].g.matrix[:, 0],
                                                 grover.PRESETS["y", 1].g.matrix[:, 0]),
        }, {
            "two gates' targets": min(other_targets),
        }),
        "VERIFY_TOL": ({
            "gate distance": max(nmr.verify_realization(name).distance for name in UNITARY_GATES),
            "prep relative deviation": max(nmr.pseudo_pure_fit(nmr.prepare_pseudo_pure(c))[1]
                                           for c in CONSTANTS),
        }, {
            "a program fitted to another gate's target": min(other_gates),
            "the equilibrium state, not prepared": nmr.pseudo_pure_fit(nmr.equilibrium_state())[1],
        }),
        "REFERENCE_TOL": ({
            "Table-1 entry against its reference": max(
                fit_error(entry.output.coords, np.array(ref, dtype=complex))
                for row, refs in references for entry, ref in zip(row, refs)),
        }, {
            "Table-1 entry against another input's reference": min(
                fit_error(entry.output.coords, np.array(ref, dtype=complex))
                for row, refs in references for i, entry in enumerate(row)
                for i_ref, ref in enumerate(refs) if i_ref != i),
        }),
        "CLASSIFY_TOL": ({
            "starting Bell column, 1 - max|c|": max(1.0 - np.abs(v).max() for v in starts),
            "Table-1 coordinates read as zero": max(zeros),
            "Table-1 terms' weight": max(weights),
            "protocol lines, weaker/dominant": max(r[1] for r in ratios),
            "protocol lines, imaginary/dominant": max(r[2] for r in ratios),
        }, {
            "a two-Bell Table-1 column, 1 - max|c|": min(
                1.0 - np.abs(v).max() for v, (nonzero, _) in zip(coords, terms) if len(nonzero) == 2),
            "Table-1 coordinates read as nonzero": min(
                abs(v[k]) for v in coords for k in range(4) if abs(v[k]) > qstate.CLASSIFY_TOL),
            "an untabulated weight, 1/2 against 1/sqrt2": abs(0.5 - 2 ** -0.5),
            "a protocol state's dominant line, against none": min(r[0] for r in ratios),
            "a turned state, weaker/dominant": max(r[1] for r in turned),
            "a turned state, imaginary/dominant": max(r[2] for r in turned),
        }),
        "DISPLAY_ZERO": ({
            "CSV residue snapped to 0": max(abs(x) for x in csv if abs(x) < qstate.DISPLAY_ZERO),
        }, {
            "CSV value printed": min(abs(x) for x in csv if abs(x) >= qstate.DISPLAY_ZERO),
        }),
        "PRESET_TOL": ({
            "preset angle against its quarter turns": max(
                abs(getattr(grover.preset(*key), phi) - q * np.pi / 4)
                for key, turns in QUARTER_TURNS.items() for phi, q in zip(("phi1", "phi2"), turns)),
        }, {
            "two presets of one axis": min(
                max(abs(a.phi1 - b.phi1), abs(a.phi2 - b.phi2))
                for kind in "xy" for a in map(grover.preset, kind * 4, (1, 2, 3, 4))
                for b in map(grover.preset, kind * 4, (1, 2, 3, 4)) if a != b),
        }),
        "SIGN_TOL": ({
            "display coefficient against its sign": max(signs),
        }, {
            "two signs": min(abs(a - b) for a in SIGNS for b in SIGNS if a != b),
        }),
    }


def test_every_named_tolerance_is_measured(margins):
    assert sorted(margins) == sorted(TOLERANCES)


@pytest.mark.parametrize("name", TOLERANCES)
def test_the_tolerance_sits_well_above_the_float_error(margins, name):
    errors, _ = margins[name]
    factor = 100 if name == "EXACT_TOL" else 1e3
    assert max(errors.values()) * factor <= getattr(qstate, name), errors


@pytest.mark.parametrize("name", TOLERANCES)
def test_the_tolerance_sits_well_below_a_wrong_answers_gap(margins, name):
    _, gaps = margins[name]
    assert getattr(qstate, name) * 1e3 <= min(gaps.values()), gaps
