"""Acceptance gate: one test per criterion, at the stated tolerance.

Run with -v for one pass/fail line per criterion; each test also prints
an ACCEPTANCE line visible under -s.
"""

import numpy as np

from densegrover import bell, coding, grover, nmr
from densegrover.bell import bell_state, from_bell_coords, rotate_epr, to_bell_coords
from densegrover.qstate import (
    BasisLabel,
    Ket4,
    apply,
    equal_up_to_phase,
    ket_from_basis,
    partial_trace,
    single_spin_rotation,
)

RNG_SEED = 20260819
_S = 1.0 / np.sqrt(2.0)


def starting_bell_column(c):
    """1-based index of the Bell state G(c) makes from up-up, asserted pure."""
    coords = coding.run_protocol(c, 1).starting_bell.coords
    column = int(np.argmax(np.abs(coords)))
    assert abs(coords[column]) >= 1.0 - 1e-9
    return column + 1


# Published composite-operator matrices for the four y presets.
GOLDEN_G = {
    1: np.array(
        [[-np.sqrt(2), -1, -1, 0],
         [0, -1, 1, -np.sqrt(2)],
         [0, -1, 1, np.sqrt(2)],
         [-np.sqrt(2), 1, 1, 0]]
    ) / 2.0,
    2: np.array(
        [[-np.sqrt(2), 1, -1, 0],
         [0, -1, -1, -np.sqrt(2)],
         [0, 1, 1, -np.sqrt(2)],
         [np.sqrt(2), 1, -1, 0]]
    ) / 2.0,
    3: np.array(
        [[0, 1, 1, np.sqrt(2)],
         [-np.sqrt(2), 1, -1, 0],
         [-np.sqrt(2), -1, 1, 0],
         [0, 1, 1, -np.sqrt(2)]]
    ) / 2.0,
    4: np.array(
        [[0, -1, 1, -np.sqrt(2)],
         [np.sqrt(2), 1, 1, 0],
         [-np.sqrt(2), 1, 1, 0],
         [0, 1, -1, -np.sqrt(2)]]
    ) / 2.0,
}

# Published classification of G on the product basis, as Bell coordinates.
GOLDEN_TABLE1_Y = {
    1: ((-1, 0, 0, 0), (0, -_S, -_S, 0), (0, -_S, _S, 0), (0, 0, 0, -1)),
    2: ((0, -1, 0, 0), (_S, 0, 0, -_S), (-_S, 0, 0, -_S), (0, 0, -1, 0)),
    3: ((0, 0, -1, 0), (_S, 0, 0, _S), (_S, 0, 0, -_S), (0, 1, 0, 0)),
    4: ((0, 0, 0, 1), (0, -_S, _S, 0), (0, _S, _S, 0), (-1, 0, 0, 0)),
}
GOLDEN_TABLE1_X1 = ((1, 0, 0, 0), (0, _S, 0, 1j * _S), (0, _S, 0, -1j * _S), (0, 0, 1, 0))

# Published protocol outcomes keyed by (starting Bell index, k).
GOLDEN_TABLE2_Y = {
    (1, 1): "uu", (2, 1): "uu", (3, 1): "uu", (4, 1): "uu",
    (1, 2): "du", (2, 2): "ud", (3, 2): "ud", (4, 2): "du",
    (1, 3): "ud", (2, 3): "du", (3, 3): "du", (4, 3): "ud",
    (1, 4): "dd", (2, 4): "dd", (3, 4): "dd", (4, 4): "dd",
}


def random_ket(rng) -> Ket4:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return Ket4(amps / np.linalg.norm(amps))


def test_criterion_01_golden_composite_matrices():
    for j, expected in GOLDEN_G.items():
        g = grover.build_G(grover.preset("y", j)).matrix
        assert np.abs(g - expected).max() < 1e-12
    print("ACCEPTANCE 1: PASS — y-preset G matrices match the published "
          "forms entrywise, max deviation < 1e-12")


def test_criterion_02_classification_table():
    for j in (1, 2, 3, 4):
        entries = grover.table1(grover.preset("y", j))
        for entry, ref in zip(entries, GOLDEN_TABLE1_Y[j]):
            match = equal_up_to_phase(
                entry.output, bell.BellVector(np.array(ref, dtype=complex)), tol=1e-9
            )
            assert match.equal, f"y preset {j}, input {entry.input.short}"
    entries = grover.table1(grover.preset("x", 1))
    for entry, ref in zip(entries, GOLDEN_TABLE1_X1):
        match = equal_up_to_phase(
            entry.output, bell.BellVector(np.array(ref, dtype=complex)), tol=1e-9
        )
        assert match.equal, f"x preset 1, input {entry.input.short}"
    print("ACCEPTANCE 2: PASS — classification table reproduced for all four "
          "y presets plus the four quoted x-kind results, up to phase at 1e-9")


def test_criterion_03_outcome_table_and_bijectivity():
    for j in (1, 2, 3, 4):
        c = grover.preset("y", j)
        column = starting_bell_column(c)
        outputs = set()
        for k in (1, 2, 3, 4):
            trace = coding.run_protocol(c, k)
            expected = BasisLabel.from_string(GOLDEN_TABLE2_Y[(column, k)])
            assert trace.output_label is expected
            assert trace.probabilities[expected] >= 1.0 - 1e-9
            outputs.add(trace.output_label)
        assert len(outputs) == 4
    print("ACCEPTANCE 3: PASS — all 16 y-kind protocol runs land on the "
          "tabulated label with probability >= 1-1e-9, bijectively per preset")


def test_criterion_04_x_kind_protocol():
    c = grover.preset("x", 1)
    expected = [BasisLabel.UU, BasisLabel.UD, BasisLabel.DU, BasisLabel.DD]
    for k, label in zip((1, 2, 3, 4), expected):
        trace = coding.run_protocol(c, k)
        assert trace.output_label is label
        assert trace.probabilities[label] >= 1.0 - 1e-9
    print("ACCEPTANCE 4: PASS — x-kind preset 1 outputs the four basis "
          "labels in order for the primed manipulation set")


def test_criterion_05_ancilla_round_trip():
    for value in range(8):
        message = coding.AncillaMessage.from_value(value)
        result = coding.run_ancilla_protocol(message)
        assert result.recovered == message
        assert result.recovered.value == value
    print("ACCEPTANCE 5: PASS — all 8 ancilla messages round-trip exactly")


def test_criterion_06_encoded_states_stay_maximally_entangled():
    for axis in ("y", "x"):
        for j in (1, 2, 3, 4):
            c = grover.preset(axis, j)
            for k in (1, 2, 3, 4):
                trace = coding.run_protocol(c, k)
                encoded = from_bell_coords(trace.encoded)
                for spin in (1, 2):
                    reduced = partial_trace(encoded, spin).entries
                    assert np.abs(reduced - np.eye(2) / 2).max() < 1e-12
    print("ACCEPTANCE 6: PASS — encoded reduced density matrices equal I/2 "
          "within 1e-12 for all 8 presets x 4 manipulations")


def test_criterion_07_pulse_compiler_verification():
    names = (
        "U1", "U2", "U3", "U4",
        "U1-inv", "U2-inv", "U3-inv", "U4-inv",
        "I_t", "I_s", "V2", "V3", "V4",
    )
    for name in names:
        check = nmr.verify_realization(name, tol=1e-9)
        assert check.ok, f"{name}: distance {check.distance}"
    rng = np.random.default_rng(RNG_SEED)
    refocused = nmr.PulseSequence((
        nmr.Delay("1/4J"), nmr.Rf("both", "x", "pi"),
        nmr.Delay("1/4J"), nmr.Rf("both", "x", "-pi"),
    ))
    plain = nmr.PulseSequence((nmr.Delay("1/2J"),))
    for _ in range(10):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = raw + raw.conj().T
        herm -= np.trace(herm) / 4.0 * np.eye(4)
        rho = nmr.DeviationMatrix(herm)
        a = nmr.simulate_sequence(refocused, rho)
        b = nmr.simulate_sequence(plain, rho)
        assert np.abs(a.entries - b.entries).max() < 1e-12
    print("ACCEPTANCE 7: PASS — all 13 unitary pulse realizations match "
          "their targets below 1e-9; refocusing pair equals the half-coupling "
          "delay channel within 1e-12")


def test_criterion_08_pseudo_pure_preparation():
    rho = nmr.prepare_pseudo_pure().entries
    target = nmr.target_pseudo_pure()
    scale = float(np.real(np.trace(rho @ target) / np.trace(target @ target)))
    assert scale > 0
    assert np.abs(rho - scale * target).max() / np.abs(scale * target).max() < 1e-9
    projector_form = np.zeros((4, 4), dtype=complex)
    projector_form[0, 0] = 1.0
    projector_form -= np.eye(4) / 4.0
    assert np.abs(target - projector_form).max() < 1e-12
    print("ACCEPTANCE 8: PASS — preparation sequence output is a positive "
          "multiple of the pseudo-pure target (rel. deviation < 1e-9), and "
          "the target equals the up-up projector minus I/4")


def test_criterion_09_pulse_level_fingerprints():
    fingerprints = {
        label: nmr.spectrum_fingerprint(nmr.basis_pseudo_pure(label))
        for label in BasisLabel
    }
    assert len(set(fingerprints.values())) == 4
    for j in (1, 2, 3, 4):
        column = starting_bell_column(grover.preset("y", j))
        for k in (1, 2, 3, 4):
            seq = nmr.protocol_sequence(j, k)
            rho = nmr.simulate_sequence(seq, nmr.equilibrium_state())
            expected = BasisLabel.from_string(GOLDEN_TABLE2_Y[(column, k)])
            assert nmr.spectrum_fingerprint(rho) == fingerprints[expected]
    print("ACCEPTANCE 9: PASS — four distinct basis fingerprints; all 16 "
          "pulse-level protocol runs reproduce the tabulated outcome's "
          "fingerprint")


def test_criterion_10_randomized_property_suites():
    rng = np.random.default_rng(RNG_SEED)

    # Unitarity of the composite operator at arbitrary angles.
    for _ in range(100):
        c = grover.UChoice(
            rng.choice(["x", "y"]),
            rng.uniform(-2 * np.pi, 2 * np.pi),
            rng.uniform(-2 * np.pi, 2 * np.pi),
        )
        g = grover.build_G(c).matrix
        assert np.abs(g @ g.conj().T - np.eye(4)).max() < 1e-12

    # Norm preservation under the composite operator.
    for _ in range(100):
        c = grover.UChoice(
            rng.choice(["x", "y"]),
            rng.uniform(-2 * np.pi, 2 * np.pi),
            rng.uniform(-2 * np.pi, 2 * np.pi),
        )
        psi = random_ket(rng)
        assert abs(apply(grover.build_G(c), psi).norm - 1.0) < 1e-12

    # equal_up_to_phase is an equivalence relation on phase orbits.
    for _ in range(100):
        base = random_ket(rng)
        pa, pb = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        a = Ket4(pa * base.amplitudes)
        b = Ket4(pb * base.amplitudes)
        self_match = equal_up_to_phase(a, a)
        assert self_match.equal and abs(self_match.phase - 1.0) < 1e-12
        ab = equal_up_to_phase(a, b)
        ba = equal_up_to_phase(b, a)
        assert ab.equal and ba.equal
        assert abs(ab.phase * ba.phase - 1.0) < 1e-12
        bc = equal_up_to_phase(b, base)
        ac = equal_up_to_phase(a, base)
        assert abs(ab.phase * bc.phase - ac.phase) < 1e-12
        other = random_ket(rng)
        assert not equal_up_to_phase(a, other).equal

    # Closed-form rotations of Bell states agree with the matrix path.
    for _ in range(100):
        i = int(rng.integers(1, 5))
        axis = str(rng.choice(["x", "y"]))
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        closed = rotate_epr(i, axis, theta).coords
        matrix_path = to_bell_coords(
            apply(single_spin_rotation(2, axis, theta), bell_state(i))
        ).coords
        assert np.abs(closed - matrix_path).max() < 1e-12

    print("ACCEPTANCE 10: PASS — unitarity, norm preservation, phase-"
          "equivalence laws, and closed-form rotation agreement hold over "
          "100 randomized cases each at 1e-12")
