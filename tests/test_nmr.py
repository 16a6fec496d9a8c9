import dataclasses
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from densegrover import coding, grover, nmr
from densegrover.nmr import (
    DEFAULT_CONSTANTS,
    GATES,
    Delay,
    DeviationMatrix,
    Fingerprint,
    Gate,
    Gradient,
    IZ1,
    IZ2,
    IZIZ,
    PhysicalConstants,
    PulseSequence,
    Rf,
    alpha_angle,
    basis_pseudo_pure,
    decoding_sequence,
    element_unitary,
    equilibrium_state,
    gate_library,
    ideal_gate_unitary,
    lower,
    parse_angle,
    parse_sequence,
    pi_fraction,
    predict_spectrum,
    prepare_pseudo_pure,
    protocol_sequence,
    simulate_sequence,
    spectrum_fingerprint,
    synthesis_sequence,
    target_pseudo_pure,
    verify_realization,
)
from densegrover.qstate import BasisLabel, phase_fit

RNG_SEED = 55511

UNITARY_GATES = (
    "U1", "U2", "U3", "U4",
    "U1-inv", "U2-inv", "U3-inv", "U4-inv",
    "I_t", "I_s", "V2", "V3", "V4",
)

TABLE2 = {
    (1, 1): "uu", (2, 1): "uu", (3, 1): "uu", (4, 1): "uu",
    (1, 2): "du", (2, 2): "ud", (3, 2): "ud", (4, 2): "du",
    (1, 3): "ud", (2, 3): "du", (3, 3): "du", (4, 3): "ud",
    (1, 4): "dd", (2, 4): "dd", (3, 4): "dd", (4, 4): "dd",
}


def random_deviation(rng):
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = raw + raw.conj().T
    herm -= np.trace(herm) / 4.0 * np.eye(4)
    return DeviationMatrix(herm)


def library_and_protocol_programs() -> list:
    programs = [gate_library(name) for name in GATES]
    return programs + [protocol_sequence(j, k) for j in (1, 2, 3, 4) for k in (1, 2, 3, 4)]


class TestConstants:
    def test_defaults(self):
        c = PhysicalConstants()
        assert c.nu1_hz == 125.76e6
        assert c.nu2_hz == 500.13e6
        assert c.j_hz == 215.0
        assert c.gamma_ratio == pytest.approx(500.13 / 125.76, rel=1e-12)

    def test_explicit_gamma_ratio_kept(self):
        c = PhysicalConstants(gamma_ratio=4.0)
        assert c.gamma_ratio == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalConstants(j_hz=-1.0)
        with pytest.raises(ValueError):
            PhysicalConstants(nu1_hz=0.0)
        with pytest.raises(ValueError):
            PhysicalConstants(gamma_ratio=-2.0)

    @pytest.mark.parametrize("field", ["nu1_hz", "nu2_hz", "j_hz", "gamma_ratio"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PhysicalConstants(**{field: value})

    def test_uncoupled_pair_has_no_j_delays(self):
        c = PhysicalConstants(j_hz=0.0)
        assert Delay("0.005").seconds(c) == 0.005
        with pytest.raises(ValueError, match="j_hz = 0"):
            Delay("1/4J").seconds(c)
        with pytest.raises(ValueError, match="j_hz = 0"):
            verify_realization("I_t", consts=c)
        with pytest.raises(ValueError, match="j_hz = 0"):
            prepare_pseudo_pure(c)

    def test_prep_domain_needs_gamma_ratio_of_half(self):
        c = PhysicalConstants(gamma_ratio=0.4)
        with pytest.raises(ValueError, match="gamma_ratio >= 0.5"):
            alpha_angle(c)
        with pytest.raises(ValueError, match="gamma_ratio >= 0.5"):
            prepare_pseudo_pure(c)
        assert alpha_angle(PhysicalConstants(gamma_ratio=0.5)) == 0.0


class TestPulseText:
    def test_angle_expressions(self):
        assert parse_angle("pi/4") == pytest.approx(np.pi / 4)
        assert parse_angle("-3pi/4") == pytest.approx(-3 * np.pi / 4)
        assert parse_angle("pi") == pytest.approx(np.pi)
        assert parse_angle("2pi") == pytest.approx(2 * np.pi)
        assert parse_angle("0.75") == 0.75

    def test_angle_errors(self):
        with pytest.raises(ValueError):
            parse_angle("pi/0")
        with pytest.raises(ValueError):
            parse_angle("four")

    def test_pi_fraction_formatting(self):
        assert pi_fraction(1, 4) == "pi/4"
        assert pi_fraction(-3, 4) == "-3pi/4"
        assert pi_fraction(1) == "pi"
        assert pi_fraction(-1) == "-pi"
        assert parse_angle(pi_fraction(-3, 4)) == pytest.approx(-3 * np.pi / 4)

    def test_element_validation(self):
        with pytest.raises(ValueError):
            Rf(3, "x", "pi")
        with pytest.raises(ValueError):
            Rf(1, "z", "pi")
        with pytest.raises(ValueError):
            Delay("-0.001")
        with pytest.raises(ValueError):
            Gradient("x")

    def test_delay_resolution(self):
        assert Delay("1/4J").seconds(DEFAULT_CONSTANTS) == pytest.approx(1 / (4 * 215.0))
        assert Delay("1/J").seconds(DEFAULT_CONSTANTS) == pytest.approx(1 / 215.0)
        assert Delay("0.005").seconds(DEFAULT_CONSTANTS) == 0.005

    def test_text_round_trip_from_sequence(self):
        for name in UNITARY_GATES + ("pseudo-pure-prep", "readout-carbon"):
            seq = gate_library(name)
            assert parse_sequence(seq.to_text()) == seq

    def test_padded_expressions_rejected(self):
        for angle in (" 0.5", "0.5 ", "\t-1e-3", "0.25\n"):
            with pytest.raises(ValueError, match="whitespace"):
                Rf(1, "x", angle)
        with pytest.raises(ValueError, match="whitespace"):
            Delay(" 0.001")

    def test_every_registry_and_protocol_program_round_trips(self):
        for seq in library_and_protocol_programs():
            assert parse_sequence(seq.to_text()) == seq

    @pytest.mark.parametrize("text", ["delay nan", "delay inf", "delay 1e400",
                                      "rf 1 x nan", "rf 2 y inf", "rf both x -inf"])
    def test_non_finite_expressions_rejected_with_their_line(self, text):
        expr = text.split()[-1]
        with pytest.raises(ValueError, match=f"must be .*finite, got '{expr}'"):
            parse_sequence(text)
        with pytest.raises(ValueError, match=f"^line 2: .*'{expr}'"):
            parse_sequence("rf 1 y pi/4\n" + text)

    @pytest.mark.parametrize("text", ["rf 1 x 1" + "0" * 400 + "pi", "rf 1 x pi/1" + "0" * 400,
                                      "delay 1" + "0" * 400 + "/J", "delay 1/1" + "0" * 400 + "J"])
    def test_integers_too_large_for_a_float_rejected_with_their_line(self, text):
        expr = text.split()[-1]
        with pytest.raises(ValueError, match=f"^line 1: .*'{expr}' holds an integer too large"):
            parse_sequence(text)

    @pytest.mark.parametrize("text", ["rf 1 x 1" + "0" * 5000 + "pi", "rf 1 x pi/1" + "0" * 5000,
                                      "delay 1/1" + "0" * 5000 + "J", "delay 1" + "0" * 5000 + "/J"],
                             ids=["angle-numerator", "angle-denominator",
                                  "delay-denominator", "delay-numerator"])
    def test_integers_past_the_interpreter_digit_limit_rejected_with_their_line(self, text):
        with pytest.raises(ValueError, match="^line 1: .* holds an integer too large for a float") as err:
            parse_sequence(text)
        assert "set_int_max_str_digits" not in str(err.value)

    def test_leading_zeros_are_not_significant_digits(self):
        assert parse_angle("0" * 5000 + "3pi/4") == 3 * np.pi / 4
        assert Delay("0" * 5000 + "1/4J").j_fraction == (1, 4)

    @pytest.mark.parametrize("spin", [True, False, 1.0, 2.0])
    def test_rf_spin_must_print_as_it_parses(self, spin):
        # True == 1 and 1.0 == 1, but "rf True x pi" and "rf 1.0 x pi" do not parse.
        with pytest.raises(ValueError, match="rf spin must be 1, 2, or 'both'"):
            Rf(spin, "x", "pi")

    def test_overflowing_coupling_phase_names_the_delay(self):
        seq = parse_sequence("delay 1e308")
        with pytest.raises(ValueError, match="delay 1e308 .* non-finite angle at j_hz = 215.0"):
            lower(seq)
        with pytest.raises(ValueError, match="delay 1e308"):
            element_unitary(seq.elements[0])

    def test_text_round_trip_from_text(self):
        text = "rf 1 y pi/4\nrf 2 y -3pi/4\ndelay 1/4J\ngrad z\nrf both x -pi\n"
        assert parse_sequence(text).to_text() == text

    def test_parse_reports_line_numbers(self):
        with pytest.raises(ValueError) as err:
            parse_sequence("rf 1 y pi/4\nwobble 3\n")
        assert "line 2" in str(err.value)

    def test_sequence_concatenation(self):
        combined = gate_library("U1") + gate_library("I_t")
        assert len(combined) == len(gate_library("U1")) + len(gate_library("I_t"))


class TestChannels:
    def test_spin_operators_equal_np_kron(self):
        iz, eye = np.diag([0.5, -0.5]).astype(complex), np.eye(2, dtype=complex)
        assert np.array_equal(IZ1, np.kron(iz, eye))
        assert np.array_equal(IZ2, np.kron(eye, iz))
        assert np.array_equal(IZIZ, np.kron(iz, iz))

    def test_half_coupling_delay_unitary(self):
        u = element_unitary(Delay("1/2J"), DEFAULT_CONSTANTS)
        phase = np.exp(-1j * np.pi / 4)
        expected = np.diag([phase, phase.conjugate(), phase.conjugate(), phase])
        assert np.abs(u - expected).max() < 1e-12

    def test_gradient_has_no_unitary(self):
        with pytest.raises(ValueError):
            element_unitary(Gradient())

    def test_hard_pulse_acts_on_both_spins(self):
        u = element_unitary(Rf("both", "x", "pi"))
        one = element_unitary(Rf(1, "x", "pi"))
        two = element_unitary(Rf(2, "x", "pi"))
        assert np.abs(u - one @ two).max() < 1e-12

    def test_gradient_fixes_diagonal_states(self):
        rho = DeviationMatrix(np.diag([0.75, -0.25, -0.25, -0.25]).astype(complex))
        out = simulate_sequence(PulseSequence((Gradient(),)), rho)
        assert np.array_equal(out.entries, rho.entries)

    def test_gradient_crushes_coherences(self):
        rng = np.random.default_rng(RNG_SEED)
        rho = random_deviation(rng)
        out = simulate_sequence(PulseSequence((Gradient(),)), rho)
        off_diagonal = out.entries - np.diag(np.diag(out.entries))
        assert np.abs(off_diagonal).max() == 0.0
        assert np.array_equal(np.diag(out.entries), np.diag(rho.entries))

    def test_opposite_hard_pulses_cancel(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        rho = random_deviation(rng)
        seq = PulseSequence((Rf("both", "x", "pi"), Rf("both", "x", "-pi")))
        out = simulate_sequence(seq, rho)
        assert np.abs(out.entries - rho.entries).max() < 1e-12

    def test_empty_sequence_is_identity(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        rho = random_deviation(rng)
        out = simulate_sequence(PulseSequence(()), rho)
        assert np.array_equal(out.entries, rho.entries)

    def test_deviation_matrix_validation(self):
        with pytest.raises(ValueError):
            DeviationMatrix(np.diag([1.0, 0, 0, 0]).astype(complex))
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            DeviationMatrix(bad)

    def test_deviation_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            DeviationMatrix(np.full((4, 4), np.nan))

    def test_refocusing_identity(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        refocused = PulseSequence(
            (Delay("1/4J"), Rf("both", "x", "pi"), Delay("1/4J"), Rf("both", "x", "-pi"))
        )
        plain = PulseSequence((Delay("1/2J"),))
        for _ in range(20):
            rho = random_deviation(rng)
            a = simulate_sequence(refocused, rho)
            b = simulate_sequence(plain, rho)
            assert np.abs(a.entries - b.entries).max() < 1e-12

    def test_sign_flip_sequence_matches_conjugation(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        it = grover.sign_flip_target().matrix
        for _ in range(10):
            rho = random_deviation(rng)
            out = simulate_sequence(gate_library("I_t"), rho)
            expected = it @ rho.entries @ it.conj().T
            assert np.abs(out.entries - expected).max() < 1e-12


def model_unitary(elements, offset_hz=0.0, pair_eps=0.0):
    """Net unitary of a gradient-free program under a test-local error model.

    Each delay also turns both spins about z by a resonance offset,
    H = 2*pi*J*Iz1*Iz2 + 2*pi*offset_hz*(Iz1 + Iz2), and each hard pi
    pulse (the refocusing pairs) turns by 1 + pair_eps times its angle.
    """
    net = np.eye(4, dtype=complex)
    for e in elements:
        if isinstance(e, Delay):
            turn = 2 * np.pi * offset_hz * e.seconds(DEFAULT_CONSTANTS)
            u = element_unitary(e) @ np.diag(np.exp(-1j * turn * np.diag(IZ1 + IZ2)))
        elif e.spin == "both" and abs(e.angle_rad) == np.pi:
            u = element_unitary(Rf(e.spin, e.axis, repr(e.angle_rad * (1 + pair_eps))))
        else:
            u = element_unitary(e)
        net = u @ net
    return net


class TestRefocusing:
    """What the opposite-phase hard pulses around the coupling delays buy."""

    def programs(self):
        # (gate, its ideal, the library program, the same gate with one bare delay)
        i_s = gate_library("I_s").elements
        assert i_s[:4] == nmr._REFOCUSED_HALF_J
        return [
            ("I_s", grover.phase_shift_s().matrix, i_s, (Delay("1/2J"),) + i_s[4:]),
            ("I_t", grover.sign_flip_target().matrix, gate_library("I_t").elements, (Delay("1/J"),)),
        ]

    @pytest.mark.parametrize("offset_hz", [1.0, 10.0, 50.0])
    def test_resonance_offsets_are_refocused(self, offset_hz):
        for name, ideal, refocused, bare in self.programs():
            assert phase_fit(model_unitary(bare), ideal)[1] <= 1e-12, name
            assert phase_fit(model_unitary(refocused, offset_hz), ideal)[1] <= 1e-12, name
            assert phase_fit(model_unitary(bare, offset_hz), ideal)[1] > 1e-2, name

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_rf_amplitude_errors_are_not_cancelled(self, eps):
        for name, ideal, refocused, _ in self.programs():
            distance = phase_fit(model_unitary(refocused, pair_eps=eps), ideal)[1]
            assert 1 <= distance / eps <= 3, name


class TestGateLibrary:
    def test_third_preset_is_one_hard_pulse(self):
        seq = gate_library("U3")
        assert seq.elements == (Rf("both", "y", "pi/4"),)

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            gate_library("Q7")

    def test_x_kind_library_not_provided(self):
        with pytest.raises(ValueError):
            gate_library("U1", kind="x")

    def test_alpha_angle(self):
        expected = np.arccos(125.76 / (2 * 500.13))
        assert alpha_angle() == pytest.approx(expected, abs=1e-15)
        assert alpha_angle() == pytest.approx(1.4448, abs=1e-3)

    def test_prep_embeds_alpha_literally(self):
        seq = gate_library("pseudo-pure-prep")
        first = seq.elements[0]
        assert isinstance(first, Rf)
        assert float(first.angle) == pytest.approx(alpha_angle(), abs=0.0)

    def test_hard_pi_pulses_come_in_opposite_pairs(self):
        for name in UNITARY_GATES + ("pseudo-pure-prep",):
            seq = gate_library(name)
            for axis in ("x", "y"):
                plus = sum(
                    1 for e in seq
                    if isinstance(e, Rf) and e.spin == "both" and e.axis == axis
                    and abs(e.angle_rad - np.pi) < 1e-12
                )
                minus = sum(
                    1 for e in seq
                    if isinstance(e, Rf) and e.spin == "both" and e.axis == axis
                    and abs(e.angle_rad + np.pi) < 1e-12
                )
                assert plus == minus


class TestInverse:
    def test_inverse_undoes_every_rf_only_gate(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        rf_only = [name for name in GATES
                   if all(isinstance(e, Rf) for e in gate_library(name))]
        assert set(UNITARY_GATES) - set(rf_only) == {"I_t", "I_s"}
        for name in rf_only:
            seq = gate_library(name)
            inverse = seq.inverse()
            assert parse_sequence(inverse.to_text()) == inverse
            rho = random_deviation(rng)
            out = simulate_sequence(seq + inverse, rho)
            assert np.abs(out.entries - rho.entries).max() < 1e-12, name

    def test_inverse_rejects_delays_and_gradients(self):
        for seq in (
            gate_library("I_t"),
            gate_library("pseudo-pure-prep"),
            PulseSequence((Rf(1, "x", "pi"), Delay("0.001"))),
            PulseSequence((Gradient(),)),
        ):
            with pytest.raises(ValueError):
                seq.inverse()

    def test_u_inverse_is_time_reversed_u(self):
        for j in (1, 2, 3, 4):
            assert gate_library(f"U{j}-inv") == gate_library(f"U{j}").inverse()

    def test_angle_text_is_negated(self):
        seq = parse_sequence("rf 1 x pi/2\nrf 2 y -3pi/4\nrf both x +0.25\nrf 1 y 1e-3\n")
        assert seq.inverse().to_text() == (
            "rf 1 y -1e-3\nrf both x -0.25\nrf 2 y 3pi/4\nrf 1 x -pi/2\n"
        )
        assert PulseSequence(()).inverse() == PulseSequence(())


class TestVerifier:
    def test_sign_flip_realization_phase(self):
        check = verify_realization("I_t")
        assert check.ok
        assert check.distance < 1e-12
        assert abs(check.phase + 1j) < 1e-9

    def test_rotation_gates_are_exact(self):
        check = verify_realization("U2", tol=1e-12)
        assert check.ok and check.distance < 1e-12

    def test_phase_shift_realization(self):
        check = verify_realization("I_s")
        assert check.ok and check.distance < 1e-9

    def test_all_unitary_gates_verify(self):
        for name in UNITARY_GATES:
            check = verify_realization(name)
            assert check.ok, f"{name} deviated by {check.distance}"

    def test_gradient_sequences_rejected(self):
        with pytest.raises(ValueError):
            verify_realization("pseudo-pure-prep")

    def test_readout_has_no_target(self):
        with pytest.raises(ValueError):
            ideal_gate_unitary("readout-carbon")

    def test_mismatch_reports_distance(self, monkeypatch):
        monkeypatch.setitem(GATES, "V2", Gate(GATES["V3"].pulses, GATES["V2"].ideal))
        check = verify_realization("V2")
        assert not check.ok
        assert check.distance > 0.5

    def test_encoder_targets_match_coding_module(self):
        for k in (2, 3, 4):
            target = ideal_gate_unitary(f"V{k}")
            assert np.abs(target.matrix - coding.encoder("y", k).matrix).max() == 0.0

    @pytest.mark.parametrize("tol", [0.0, -0.0, -1e-9, -np.inf, np.nan])
    def test_non_positive_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            verify_realization("I_t", tol=tol)


def sweep_constants(count: int, seed: int) -> list:
    """Seeded in-domain constants, J log-uniform from 1e-3 to 1e6 Hz."""
    rng = random.Random(seed)
    return [PhysicalConstants(nu1_hz=10 ** rng.uniform(6, 9), nu2_hz=10 ** rng.uniform(6, 9),
                              j_hz=10 ** rng.uniform(-3, 6),
                              gamma_ratio=10 ** rng.uniform(-0.3, 1.5))
            for _ in range(count)]


def same_bits(check, phase, distance) -> bool:
    return (np.float64(check.distance).tobytes() == np.float64(distance).tobytes()
            and np.complex128(check.phase).tobytes() == np.complex128(phase).tobytes())


class TestVerifierMemo:
    def test_memoised_check_is_bitwise_the_fresh_fit(self):
        for consts in [DEFAULT_CONSTANTS, *sweep_constants(12, RNG_SEED + 20)]:
            for name in UNITARY_GATES:
                (segment,) = lower(gate_library(name, consts=consts), consts)
                phase, distance = phase_fit(segment, ideal_gate_unitary(name).matrix)
                for _ in range(2):  # the miss, then the hit
                    check = verify_realization(name, consts=consts)
                    assert same_bits(check, phase, distance), (name, consts)
                    assert check.ok is (distance < 1e-9)

    def test_tolerance_is_part_of_the_key(self):
        distance = verify_realization("I_t").distance
        assert distance > 0
        assert not verify_realization("I_t", tol=distance).ok
        assert verify_realization("I_t", tol=np.nextafter(distance, 1.0)).ok
        assert verify_realization("I_t").ok

    def test_fresh_constants_make_no_phase_fits(self, monkeypatch):
        calls = []

        def counted(u, v):
            calls.append(u)
            return phase_fit(u, v)

        monkeypatch.setattr(nmr, "phase_fit", counted)
        nmr._gate_check.cache_clear()
        for name in UNITARY_GATES:
            verify_realization(name)
        assert len(calls) == len(UNITARY_GATES)
        calls.clear()
        for consts in sweep_constants(20, RNG_SEED + 21):
            for name in UNITARY_GATES:
                assert verify_realization(name, consts=consts).ok
        assert calls == []

    def test_fresh_constants_lower_and_fit_nothing(self, monkeypatch):
        for name in UNITARY_GATES:
            assert verify_realization(name).ok
        lowered, fitted = [], []
        monkeypatch.setattr(nmr, "lower", lambda *args: lowered.append(args) or lower(*args))
        monkeypatch.setattr(nmr, "phase_fit", lambda *args: fitted.append(args) or phase_fit(*args))
        fresh = PhysicalConstants(nu1_hz=81e6, nu2_hz=402e6, j_hz=151.125, gamma_ratio=1.875)
        for name in UNITARY_GATES:
            assert verify_realization(name, consts=fresh).ok
        assert lowered == [] and fitted == []

    def test_domain_errors_survive_a_warm_memo(self):
        for name in UNITARY_GATES:
            assert verify_realization(name, consts=PhysicalConstants(j_hz=300.0)).ok
        uncoupled = PhysicalConstants(j_hz=0.0)
        for name in ("I_t", "I_s"):
            with pytest.raises(ValueError, match="uncoupled pair"):
                verify_realization(name, consts=uncoupled)
        with pytest.raises(ValueError, match="contains gradients"):
            verify_realization("pseudo-pure-prep")
        for _ in range(2):
            with pytest.raises(ValueError, match="has no unitary target"):
                verify_realization("readout-carbon")


class TestPseudoPure:
    def test_target_equals_projector_form(self):
        projector = np.zeros((4, 4), dtype=complex)
        projector[0, 0] = 1.0
        assert np.abs(target_pseudo_pure() - (projector - np.eye(4) / 4)).max() < 1e-15

    def test_equilibrium_state(self):
        rho = equilibrium_state()
        expected = IZ1 + (500.13 / 125.76) * IZ2
        assert np.abs(rho.entries - expected).max() < 1e-12

    def test_preparation_is_proportional_to_target(self):
        rho = prepare_pseudo_pure().entries
        target = target_pseudo_pure()
        scale = np.real(np.trace(rho @ target) / np.trace(target @ target))
        assert scale > 0
        deviation = np.abs(rho - scale * target).max() / np.abs(scale * target).max()
        assert deviation < 1e-9

    def test_preparation_with_other_constants(self):
        c = PhysicalConstants(gamma_ratio=2.5)
        rho = prepare_pseudo_pure(c).entries
        target = target_pseudo_pure()
        scale = np.real(np.trace(rho @ target) / np.trace(target @ target))
        assert scale > 0
        assert np.abs(rho - scale * target).max() < 1e-9

    def test_basis_pseudo_pure_diagonals(self):
        rho = basis_pseudo_pure(BasisLabel.DU)
        assert np.abs(np.diag(rho.entries) - [-0.25, -0.25, 0.75, -0.25]).max() < 1e-15

    @pytest.mark.parametrize("gamma_ratio", [0.5, 0.75, 1.0, 3.97, 12.0])
    def test_alpha_pulse_and_crush_leave_iz1_plus_half_iz2(self, gamma_ratio):
        # gamma * cos(alpha) = 1/2 at every gamma_ratio >= 1/2, so the prep
        # reaches the same state after its first crush, and the target after.
        consts = PhysicalConstants(gamma_ratio=gamma_ratio)
        alpha = gate_library("pseudo-pure-prep", consts=consts).elements[0]
        rho = simulate_sequence(PulseSequence((alpha, Gradient())),
                                equilibrium_state(consts), consts)
        assert np.abs(rho.entries - (IZ1 + IZ2 / 2)).max() < 1e-14
        prep = prepare_pseudo_pure(consts).entries
        target = target_pseudo_pure()
        scale = np.real(np.trace(prep @ target) / np.trace(target @ target))
        assert scale > 0
        assert np.abs(prep - scale * target).max() < 1e-12 * np.abs(scale * target).max()

    def test_equilibrium_state_is_memoised_per_constants(self):
        consts = PhysicalConstants(gamma_ratio=2.5)
        rho = equilibrium_state(consts)
        assert equilibrium_state(PhysicalConstants(gamma_ratio=2.5)) is rho
        assert not rho.entries.flags.writeable
        assert np.abs(rho.entries - (IZ1 + 2.5 * IZ2)).max() == 0.0


class TestSpectra:
    def test_reference_state_calibration(self):
        rho = basis_pseudo_pure(BasisLabel.UU)
        for spin in (1, 2):
            lines = predict_spectrum(rho, spin)
            up = next(l for l in lines if l.line == "partner_up")
            down = next(l for l in lines if l.line == "partner_down")
            assert abs(up.amplitude - 1.0) < 1e-12
            assert abs(down.amplitude) < 1e-12
            assert up.offset_hz == pytest.approx(107.5)
            assert down.offset_hz == pytest.approx(-107.5)

    def test_flipped_partner_moves_the_line(self):
        rho = basis_pseudo_pure(BasisLabel.UD)
        lines1 = {l.line: l.amplitude for l in predict_spectrum(rho, 1)}
        assert abs(lines1["partner_down"] - 1.0) < 1e-12
        assert abs(lines1["partner_up"]) < 1e-12
        lines2 = {l.line: l.amplitude for l in predict_spectrum(rho, 2)}
        assert abs(lines2["partner_up"] + 1.0) < 1e-12

    def test_fingerprints_distinct_for_basis_states(self):
        fingerprints = {
            label: spectrum_fingerprint(basis_pseudo_pure(label)) for label in BasisLabel
        }
        assert len(set(fingerprints.values())) == 4
        assert fingerprints[BasisLabel.UU] == Fingerprint(("partner_up", 1), ("partner_up", 1))
        assert fingerprints[BasisLabel.UD] == Fingerprint(("partner_down", 1), ("partner_up", -1))
        assert fingerprints[BasisLabel.DU] == Fingerprint(("partner_up", -1), ("partner_down", 1))
        assert fingerprints[BasisLabel.DD] == Fingerprint(("partner_down", -1), ("partner_down", -1))

    def test_fingerprint_is_scale_invariant(self):
        rho = basis_pseudo_pure(BasisLabel.DU)
        scaled = DeviationMatrix(0.3 * rho.entries)
        assert spectrum_fingerprint(scaled) == spectrum_fingerprint(rho)

    def test_featureless_state_rejected(self):
        with pytest.raises(ValueError):
            spectrum_fingerprint(DeviationMatrix(np.zeros((4, 4), dtype=complex)))

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.6, 0.4), (0.4, 0.6), (1.0, 1e-6)],
                             ids=str)
    def test_mixtures_of_basis_states_are_not_fingerprinted(self, weights):
        # uu and dd light opposite lines of each spin; max() would name one of them.
        rho = DeviationMatrix(weights[0] * basis_pseudo_pure(BasisLabel.UU).entries
                              + weights[1] * basis_pseudo_pure(BasisLabel.DD).entries)
        with pytest.raises(ValueError, match="not a basis pseudo-pure state"):
            spectrum_fingerprint(rho)

    def test_weaker_line_is_judged_relative_to_the_dominant_one(self):
        residue = 1e-11 * basis_pseudo_pure(BasisLabel.DD).entries
        for scale in (1e-6, 1.0, 1e6):
            rho = DeviationMatrix(scale * (basis_pseudo_pure(BasisLabel.UD).entries + residue))
            assert spectrum_fingerprint(rho) == spectrum_fingerprint(basis_pseudo_pure(BasisLabel.UD))

    def test_out_of_phase_lines_are_not_fingerprinted(self):
        # The lines read -0.5j; the sign of their 1e-16 real residue named the state uu.
        seq = parse_sequence("rf both x pi/4\nrf both y -pi/2\ndelay 1/4J\n")
        rho = simulate_sequence(seq, basis_pseudo_pure(BasisLabel.UU))
        for spin in (1, 2):
            up, down = predict_spectrum(rho, spin)
            assert abs(up.amplitude + 0.5j) < 1e-12 and abs(down.amplitude) < 1e-12
        with pytest.raises(ValueError, match="not a basis pseudo-pure state"):
            spectrum_fingerprint(rho)

    def test_fingerprint_agrees_with_the_spectrum(self):
        states = [basis_pseudo_pure(label) for label in BasisLabel]
        states += [simulate_sequence(protocol_sequence(j, k), equilibrium_state())
                   for j in (1, 2, 3, 4) for k in (1, 2, 3, 4)]
        for rho in states:
            fingerprint = spectrum_fingerprint(rho)
            for spin, signature in ((1, fingerprint.spin1), (2, fingerprint.spin2)):
                up, down = predict_spectrum(rho, spin)
                larger = up if abs(up.amplitude) >= abs(down.amplitude) else down
                assert signature == (larger.line, 1 if larger.amplitude.real > 0 else -1)

    def test_spin_validated(self):
        with pytest.raises(ValueError):
            predict_spectrum(basis_pseudo_pure(BasisLabel.UU), 3)

    @pytest.mark.parametrize("spin", [True, 1.0, 2.0, np.int64(2), "1"], ids=repr)
    def test_spin_must_be_the_int_1_or_2(self, spin):
        # Equal to 1 or 2 is not enough: SpectrumLine would carry True or 1.0.
        with pytest.raises(ValueError, match="spin must be 1 or 2"):
            predict_spectrum(basis_pseudo_pure(BasisLabel.UU), spin)

    def test_warm_spectrum_lowers_nothing(self, monkeypatch):
        rho = basis_pseudo_pure(BasisLabel.UD)
        expected = [predict_spectrum(rho, spin) for spin in (1, 2)]
        calls = []
        monkeypatch.setattr(nmr, "lower", lambda *args: calls.append(args) or lower(*args))
        assert [predict_spectrum(rho, spin) for spin in (1, 2)] == expected
        assert calls == []


class TestPulseProtocol:
    def test_basis_transport_pulses(self):
        start = basis_pseudo_pure(BasisLabel.UU)
        cases = {
            BasisLabel.UD: PulseSequence((Rf(2, "x", "pi"),)),
            BasisLabel.DU: PulseSequence((Rf(1, "x", "pi"),)),
            BasisLabel.DD: PulseSequence((Rf("both", "x", "pi"),)),
        }
        for label, seq in cases.items():
            out = simulate_sequence(seq, start)
            assert np.abs(out.entries - basis_pseudo_pure(label).entries).max() < 1e-12

    def test_identity_manipulation_shortens_program(self):
        assert len(protocol_sequence(2, 1)) < len(protocol_sequence(2, 2))
        with pytest.raises(ValueError):
            protocol_sequence(2, 5)

    @pytest.mark.parametrize("j, k", [(2, True), (2.0, 1)])
    def test_indices_equal_to_a_cached_key_are_not_that_key(self, j, k):
        # 2.0 == 2 and True == 1, so an untyped memo would answer these with
        # the cached (2, 1) program, or raise only on a cold cache.
        protocol_sequence.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError):
                protocol_sequence(j, k)
            protocol_sequence(2, 1)

    @pytest.mark.parametrize("j, k, message", [
        (2, 1.0, "encoder index must be 1..4, got 1.0"),
        (2, 2.0, "encoder index must be 1..4, got 2.0"),
        (2, "2", "encoder index must be 1..4, got '2'"),
        (2.0, 2, "preset index must be 1..4, got 2.0"),
        (True, 2, "preset index must be 1..4, got True"),
        (5, 2, "preset index must be 1..4, got 5"),
    ])
    def test_indices_must_be_ints_in_range(self, j, k, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            protocol_sequence(j, k)

    def test_synthesis_and_decoding_compose_to_identity_channel(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        seq = synthesis_sequence(2) + decoding_sequence(2)
        for _ in range(5):
            rho = random_deviation(rng)
            out = simulate_sequence(seq, rho)
            assert np.abs(out.entries - rho.entries).max() < 1e-9

    def test_full_stack_matches_ideal_fingerprints(self):
        for j in (1, 2, 3, 4):
            for k in (1, 2, 3, 4):
                seq = protocol_sequence(j, k)
                rho = simulate_sequence(seq, equilibrium_state())
                expected_label = BasisLabel.from_string(TABLE2[(j, k)])
                expected = spectrum_fingerprint(basis_pseudo_pure(expected_label))
                assert spectrum_fingerprint(rho) == expected


def reference_fold(seq, rho, consts=DEFAULT_CONSTANTS):
    """Element by element: conjugate by each unitary, crush at each gradient."""
    m = rho.entries
    for e in seq:
        if isinstance(e, Gradient):
            m = np.diag(np.diag(m))
        else:
            u = element_unitary(e, consts)
            m = u @ m @ u.conj().T
    return m


EDGE_PROGRAMS = {
    "empty": (),
    "gradient only": (Gradient(),),
    "leading gradient": (Gradient(), Rf(1, "x", "pi/3"), Delay("1/4J")),
    "trailing gradient": (Rf(2, "y", "pi/5"), Delay("1/8J"), Gradient()),
    "two gradients in a row": (Rf(1, "x", "pi/3"), Gradient(), Gradient(), Rf(2, "y", "pi/2")),
}


def same_objects(a, b) -> bool:
    """Whether two lowerings hold the very same segment arrays, in order."""
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class TestLowering:
    def assert_matches_fold(self, seq, rho, consts=DEFAULT_CONSTANTS):
        out = simulate_sequence(seq, rho, consts)
        assert np.abs(out.entries - reference_fold(seq, rho, consts)).max() < 1e-12

    def test_protocol_programs_match_the_fold(self):
        for j in (1, 2, 3, 4):
            for k in (1, 2, 3, 4):
                self.assert_matches_fold(protocol_sequence(j, k), equilibrium_state())

    def test_prep_matches_the_fold(self):
        self.assert_matches_fold(gate_library("pseudo-pure-prep"), equilibrium_state())

    def test_every_registry_gate_matches_the_fold(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        for name in GATES:
            self.assert_matches_fold(gate_library(name), random_deviation(rng))

    @pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
    def test_edge_programs_match_the_fold(self, name):
        rng = np.random.default_rng(RNG_SEED + 8)
        self.assert_matches_fold(PulseSequence(EDGE_PROGRAMS[name]), random_deviation(rng))

    def test_segments_split_at_gradients(self):
        counts = {name: len(lower(PulseSequence(elements)))
                  for name, elements in EDGE_PROGRAMS.items()}
        assert counts == {"empty": 1, "gradient only": 2, "leading gradient": 2,
                          "trailing gradient": 2, "two gradients in a row": 3}
        first, middle, last = lower(PulseSequence(EDGE_PROGRAMS["two gradients in a row"]))
        assert np.array_equal(middle, np.eye(4))
        assert len(lower(protocol_sequence(2, 3))) == 3

    def test_segments_are_read_only(self):
        for u in lower(protocol_sequence(1, 2)):
            assert not u.flags.writeable
            with pytest.raises(ValueError):
                u[0, 0] = 0.0

    def test_second_call_returns_the_cached_object(self):
        # `lower` keeps no memo; the program's transfer is the cached object.
        seq = protocol_sequence(3, 4)
        first, second = lower(seq), lower(seq)
        assert not same_objects(first, second)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        assert transfer_of(seq) is transfer_of(seq)

    def test_changing_j_changes_the_segments(self):
        # An absolute delay: a 1/nJ delay's phase is the same at every J.
        seq = PulseSequence((Rf(1, "x", "pi/2"), Delay("0.001"), Rf(2, "y", "pi/2")))
        a, b = PhysicalConstants(j_hz=215.0), PhysicalConstants(j_hz=300.0)
        assert np.abs(lower(seq, a)[0] - lower(seq, b)[0]).max() > 1e-3
        rng = np.random.default_rng(RNG_SEED + 9)
        rho = random_deviation(rng)
        for consts in (a, b, a):
            self.assert_matches_fold(seq, rho, consts)

    def test_j_is_keyed_once_per_program(self):
        # A delay in seconds anywhere puts J in the key of the whole program.
        seconds = PulseSequence((Rf(1, "x", "pi/2"), Delay("0.001"), Gradient(),
                                 Delay("1/4J"), Rf(2, "y", "pi/3")))
        relative = PulseSequence(seconds.elements[3:])
        assert seconds.reads_j and not relative.reads_j
        a, b = PhysicalConstants(j_hz=215.0), PhysicalConstants(j_hz=300.0)
        uncoupled = PhysicalConstants(j_hz=0.0)
        assert [nmr._j_key(seconds, c) for c in (a, b, uncoupled)] == [215.0, 300.0, 0.0]
        assert [nmr._j_key(relative, c) for c in (a, b, uncoupled)] == [None, None, 0.0]
        assert transfer_of(seconds, a) is not transfer_of(seconds, b)
        assert transfer_of(relative, a) is transfer_of(relative, b)

    def test_cache_hit_builds_no_element_unitaries(self, monkeypatch):
        calls = []

        def counted(e, consts=DEFAULT_CONSTANTS):
            calls.append(e)
            return element_unitary(e, consts)

        seq = protocol_sequence(4, 2)
        rho = equilibrium_state()
        expected = simulate_sequence(seq, rho)
        monkeypatch.setattr(nmr, "element_unitary", counted)
        out = simulate_sequence(protocol_sequence(4, 2), rho)
        assert calls == []
        assert np.array_equal(out.entries, expected.entries)
        fresh = PulseSequence((Rf(1, "x", "0.123"), Gradient(), Delay("1/3J")))
        simulate_sequence(fresh, rho)
        assert calls == [fresh.elements[0], fresh.elements[2]]

    def test_gradient_program_has_no_net_unitary(self):
        with pytest.raises(ValueError, match="contains gradients"):
            verify_realization("pseudo-pure-prep")

    def test_frame_independent_programs_share_segments_across_constants(self):
        other = PhysicalConstants(nu1_hz=90e6, nu2_hz=700e6, j_hz=37.5, gamma_ratio=0.6)
        for name in GATES:
            if name == "pseudo-pure-prep":
                continue  # its first pulse turns by an angle that reads gamma_ratio
            seq = gate_library(name)
            assert transfer_of(seq, other) is transfer_of(seq, DEFAULT_CONSTANTS)

    @pytest.mark.parametrize("name", ["I_t", "pseudo-pure-prep"])
    def test_uncoupled_pair_raises_after_a_cache_hit(self, name):
        uncoupled = PhysicalConstants(j_hz=0.0)
        seq = gate_library(name, consts=uncoupled)
        assert transfer_of(seq) is transfer_of(seq)
        with pytest.raises(ValueError, match="uncoupled pair"):
            lower(seq, uncoupled)
        with pytest.raises(ValueError, match="uncoupled pair"):
            simulate_sequence(seq, equilibrium_state(uncoupled), uncoupled)

    def test_j_relative_delay_unitary_is_the_same_at_every_j(self):
        for text in ("1/4J", "1/2J", "3/8J", "2/3J"):
            delay = Delay(text)
            at_215 = element_unitary(delay, DEFAULT_CONSTANTS)
            for j_hz in (1.0, 123.25, 1000.0, 1e6):
                assert np.array_equal(element_unitary(delay, PhysicalConstants(j_hz=j_hz)), at_215)
            h = 2 * np.pi * DEFAULT_CONSTANTS.j_hz * IZIZ
            expected = np.diag(np.exp(-1j * delay.seconds(DEFAULT_CONSTANTS) * np.diag(h)))
            assert np.abs(at_215 - expected).max() < 1e-12

    def test_absolute_delay_is_the_exponential_of_the_hamiltonian(self):
        delay = Delay("0.001")
        for j_hz in (0.0, 215.0, 1000.0):
            consts = PhysicalConstants(j_hz=j_hz)
            h = 2 * np.pi * consts.j_hz * IZIZ
            assert np.array_equal(h, np.diag(np.diag(h)))  # so exp(-i tau H) is entrywise
            expected = np.diag(np.exp(-1j * 0.001 * np.diag(h)))
            assert np.abs(element_unitary(delay, consts) - expected).max() < 1e-14
            (segment,) = lower(PulseSequence((delay,)), consts)
            assert np.abs(segment - expected).max() < 1e-14

    def test_prep_programs_share_their_middle_segment_across_gamma_ratio(self):
        a, b = PhysicalConstants(gamma_ratio=0.75), PhysicalConstants(gamma_ratio=9.0)
        prep_a = gate_library("pseudo-pure-prep", consts=a)
        prep_b = gate_library("pseudo-pure-prep", consts=b)
        first_a, *rest_a = prep_a.segments
        first_b, *rest_b = prep_b.segments
        assert first_a != first_b and rest_a == rest_b
        tail_a = nmr._after_crush(tuple(rest_a), nmr._j_key(prep_a, a))
        assert nmr._after_crush(tuple(rest_b), nmr._j_key(prep_b, b)) is tail_a
        assert np.abs(transfer_of(prep_a, a) - transfer_of(prep_b, b)).max() > 1e-3

    def test_fresh_constants_build_only_the_prep_pulse(self, monkeypatch):
        calls = []

        def counted(e, consts=DEFAULT_CONSTANTS):
            calls.append(e)
            return element_unitary(e, consts)

        def verify_all(consts):
            for name in UNITARY_GATES:
                assert verify_realization(name, consts=consts).ok
            return prepare_pseudo_pure(consts)

        verify_all(DEFAULT_CONSTANTS)
        monkeypatch.setattr(nmr, "element_unitary", counted)
        fresh = PhysicalConstants(nu1_hz=77e6, nu2_hz=333e6, j_hz=123.25, gamma_ratio=2.345)
        verify_all(fresh)
        assert calls == [gate_library("pseudo-pure-prep", consts=fresh).elements[0]]


def superoperator_reference(seq, consts=DEFAULT_CONSTANTS):
    """The transfer matrix by np.kron, one element at a time, crushing by a mask."""
    crush = np.diag(np.eye(4).reshape(16)).astype(complex)
    t = np.eye(16, dtype=complex)
    for e in seq:
        if isinstance(e, Gradient):
            t = crush @ t
        else:
            u = element_unitary(e, consts)
            t = np.kron(u, u.conj()) @ t
    return t


def transfer_of(seq, consts=DEFAULT_CONSTANTS):
    """The memoised transfer matrix of `seq` under `consts`."""
    return nmr._transfer(seq, nmr._j_key(seq, consts))


def recorded(monkeypatch, name) -> list:
    """Patch nmr.<name> with a wrapper that records each call's arguments."""
    calls, original = [], getattr(nmr, name)
    monkeypatch.setattr(nmr, name, lambda *args: calls.append(args) or original(*args))
    return calls


class TestTransfer:
    def test_matches_the_kron_reference(self):
        programs = [protocol_sequence(j, k) for j in (1, 2, 3, 4) for k in (1, 2, 3, 4)]
        programs += [PulseSequence(elements) for elements in EDGE_PROGRAMS.values()]
        for seq in programs:
            t = transfer_of(seq)
            assert np.abs(t - superoperator_reference(seq)).max() < 1e-12

    def test_transfer_is_read_only(self):
        seq = protocol_sequence(1, 2)
        t = transfer_of(seq)
        assert t.shape == (16, 16)
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 0.0

    def test_warm_simulation_lowers_nothing(self, monkeypatch):
        rho = equilibrium_state()
        expected = {(j, k): simulate_sequence(protocol_sequence(j, k), rho).entries
                    for j in (1, 2, 3, 4) for k in (1, 2, 3, 4)}
        lowered, runs = recorded(monkeypatch, "lower"), recorded(monkeypatch, "_lower_run")
        for (j, k), entries in expected.items():
            out = simulate_sequence(protocol_sequence(j, k), rho)
            assert np.array_equal(out.entries, entries)
        assert lowered == [] and runs == []

    def test_fresh_constants_prep_lowers_only_its_alpha_pulse(self, monkeypatch):
        prepare_pseudo_pure(DEFAULT_CONSTANTS)
        memos = (nmr._transfer, nmr._after_crush)
        before = [memo.cache_info() for memo in memos]
        runs = recorded(monkeypatch, "_lower_run")
        fresh = PhysicalConstants(nu1_hz=61e6, nu2_hz=377e6, j_hz=97.5, gamma_ratio=4.125)
        prepare_pseudo_pure(fresh)
        alpha = gate_library("pseudo-pure-prep", consts=fresh).elements[0]
        assert [run for run, _ in runs] == [(alpha,)]
        # The prep's transfer misses and lowers its alpha run; the tail after
        # the first crush hits.
        misses, hits = zip(*((after.misses - b.misses, after.hits - b.hits)
                             for after, b in zip((m.cache_info() for m in memos), before)))
        assert misses == (1, 0)
        assert hits == (0, 1)

    def test_equal_programs_built_apart_hash_and_compare_equal(self):
        seq = protocol_sequence(2, 3)
        rebuilt = parse_sequence(seq.to_text())
        assert rebuilt is not seq and rebuilt.elements is not seq.elements
        assert rebuilt == seq and hash(rebuilt) == hash(seq)
        assert {seq: 1}[rebuilt] == 1
        other = protocol_sequence(2, 4)
        assert other != seq
        assert transfer_of(rebuilt) is transfer_of(seq)

    def test_many_gradients_fold_without_deep_recursion(self):
        rng = np.random.default_rng(RNG_SEED + 31)
        seq = PulseSequence((Rf(1, "x", "pi/3"), Gradient(), Rf(2, "y", "pi/5")) * 2000)
        rho = random_deviation(rng)
        out = simulate_sequence(seq, rho)
        assert np.abs(out.entries - reference_fold(seq, rho)).max() < 1e-12

    def test_uncoupled_pair_raises_after_a_warm_transfer(self):
        seq = protocol_sequence(2, 3)
        simulate_sequence(seq, equilibrium_state())
        uncoupled = PhysicalConstants(j_hz=0.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="uncoupled pair"):
                simulate_sequence(seq, equilibrium_state(uncoupled), uncoupled)

    def test_channel_of_a_j_relative_delay_raises_when_built_at_j_0(self):
        uncoupled = PhysicalConstants(j_hz=0.0)
        with pytest.raises(ValueError, match="uncoupled pair"):
            simulate_sequence(PulseSequence((Delay("1/2J"),)), equilibrium_state(uncoupled), uncoupled)


def random_program(rng: random.Random, index: int) -> PulseSequence:
    """A seeded program of rf pulses, delays and gradients.

    Pulses act on spin 1, 2 or both, about x or y, by a pi_fraction or a
    float angle; delays are n/dJ or seconds.  Every fourth program starts
    with a gradient, the next ends with one, and the next holds two in a row.
    """
    elements = []
    for _ in range(rng.randrange(8)):
        roll = rng.random()
        if roll < 0.5:
            angle = (pi_fraction(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(1, 9))
                     if rng.random() < 0.5 else repr(rng.uniform(-2 * np.pi, 2 * np.pi)))
            elements.append(Rf(rng.choice([1, 2, "both"]), rng.choice("xy"), angle))
        elif roll < 0.8:
            elements.append(Delay(f"{rng.randrange(1, 5)}/{rng.randrange(1, 9)}J"
                                  if rng.random() < 0.5 else repr(rng.uniform(0.0, 0.01))))
        else:
            elements.append(Gradient())
    cut = rng.randrange(len(elements) + 1)
    shape = index % 4
    if shape == 0:
        elements.insert(0, Gradient())
    elif shape == 1:
        elements.append(Gradient())
    elif shape == 2:
        elements[cut:cut] = [Gradient(), Gradient()]
    return PulseSequence(tuple(elements))


def fresh_prep_constants(count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [PhysicalConstants(nu1_hz=rng.uniform(20e6, 200e6), nu2_hz=rng.uniform(200e6, 900e6),
                              j_hz=rng.uniform(1.0, 1000.0), gamma_ratio=rng.uniform(0.5, 12.0))
            for _ in range(count)]


class TestFold:
    """The transfer built from the head run's population rows, on random programs."""

    @pytest.mark.parametrize("j_hz", [215.0, 37.5])
    def test_random_programs_match_the_kron_reference(self, j_hz):
        rng = random.Random(RNG_SEED + 41)
        consts = PhysicalConstants(j_hz=j_hz)
        programs = [random_program(rng, index) for index in range(200)]
        assert sum(len(seq.segments) > 1 for seq in programs) > 150
        for seq in programs:
            t = transfer_of(seq, consts)
            assert not t.flags.writeable
            assert np.abs(t - superoperator_reference(seq, consts)).max() < 1e-12, seq.to_text()

    def test_fresh_constants_preps_match_the_fold(self):
        for consts in fresh_prep_constants(50, RNG_SEED + 43):
            seq = gate_library("pseudo-pure-prep", consts=consts)
            rho = equilibrium_state(consts)
            out = prepare_pseudo_pure(consts)
            assert np.abs(out.entries - reference_fold(seq, rho, consts)).max() < 1e-12

    @pytest.mark.parametrize("run", [(Rf(1, "x", "pi/2"),), (Rf(1, "x", "pi/2"), Delay("1/4J"))],
                             ids=["one element", "two elements"])
    def test_every_run_is_checked_unitary(self, monkeypatch, run):
        monkeypatch.setattr(nmr, "element_unitary", lambda e, consts=DEFAULT_CONSTANTS: 2 * np.eye(4))
        with pytest.raises(ValueError, match="unitarity"):
            nmr._lower_run(run, DEFAULT_CONSTANTS)


def old_j_fraction(duration: str):
    m = re.fullmatch(r"(\d+)/(\d*)J", duration)
    return None if m is None else (int(m.group(1)), int(m.group(2) or "1"))


def old_segments(seq: PulseSequence) -> tuple:
    runs, run = [], []
    for e in seq.elements:
        if isinstance(e, Gradient):
            runs.append(tuple(run))
            run = []
        else:
            run.append(e)
    return tuple(runs + [tuple(run)])


class TestBuildOnce:
    """Values derived at construction keep the semantics of the fields."""

    def test_fields_and_repr_are_unchanged(self):
        names = {cls: [f.name for f in dataclasses.fields(cls)]
                 for cls in (Rf, Delay, Gradient, PulseSequence)}
        assert names == {Rf: ["spin", "axis", "angle"], Delay: ["duration"],
                         Gradient: ["axis"], PulseSequence: ["elements"]}
        seq = PulseSequence((Rf(1, "x", "pi/2"), Delay("1/4J"), Gradient()))
        assert repr(seq) == ("PulseSequence(elements=(Rf(spin=1, axis='x', angle='pi/2'), "
                             "Delay(duration='1/4J'), Gradient(axis='z')))")

    def test_derived_values_equal_their_old_derivations(self):
        for seq in library_and_protocol_programs():
            assert seq.segments == old_segments(seq)
            assert seq.reads_j is any(isinstance(e, Delay) and old_j_fraction(e.duration) is None
                                      for e in seq)
            for e in seq:
                if isinstance(e, Rf):
                    assert e.angle_rad == parse_angle(e.angle)
                elif isinstance(e, Delay):
                    assert e.j_fraction == old_j_fraction(e.duration)
        for text in ("0.001", "0", "3/8J", "2/J"):
            assert Delay(text).j_fraction == old_j_fraction(text)

    def test_copies_built_apart_compare_and_hash_equal(self):
        for seq in library_and_protocol_programs():
            rebuilt = parse_sequence(seq.to_text())
            replaced = dataclasses.replace(seq, elements=list(seq.elements))
            for other in (rebuilt, replaced):
                assert other == seq and hash(other) == hash(seq) and other.to_text() == seq.to_text()
            for e, r in zip(seq, rebuilt):
                assert r == e and hash(r) == hash(e) and repr(r) == repr(e)
                assert dataclasses.replace(e) == e and hash(dataclasses.replace(e)) == hash(e)

    def test_replace_derives_and_validates_again(self):
        rf = dataclasses.replace(Rf(1, "x", "pi/2"), angle="-3pi/4")
        assert rf.angle_rad == parse_angle("-3pi/4") and rf == Rf(1, "x", "-3pi/4")
        assert dataclasses.replace(Delay("1/4J"), duration="0.002").j_fraction is None
        seq = dataclasses.replace(PulseSequence((Rf(1, "x", "pi"),)), elements=(Gradient(),))
        assert seq.segments == ((), ()) and seq == PulseSequence((Gradient(),))
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(rf, angle="inf")
        with pytest.raises(ValueError, match="nonnegative"):
            dataclasses.replace(Delay("1/4J"), duration="-1")
        with pytest.raises(TypeError, match="unsupported pulse element"):
            dataclasses.replace(seq, elements=("grad z",))


PICKLE_PROGRAM = """
import pickle, sys
from densegrover import nmr
seq = nmr.protocol_sequence(2, 3)
rf = nmr.Rf(1, "y", "-3pi/4")
delay = nmr.Delay("0.0025")
values = (seq, rf, delay, nmr.Gradient(), nmr.parse_sequence(seq.to_text()))
"""


class TestPickle:
    """A pickle rebuilds from the fields, so a stored hash cannot go stale."""

    def run_python(self, code: str, seed: str, data: bytes = b"") -> bytes:
        src = Path(nmr.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                              capture_output=True, check=True, timeout=60).stdout

    def test_a_hashed_program_loads_under_another_hash_seed(self):
        dumped = self.run_python(PICKLE_PROGRAM + """
for v in values:
    hash(v)
sys.stdout.buffer.write(pickle.dumps(values))
""", seed="1")
        report = self.run_python(PICKLE_PROGRAM + """
for loaded, fresh in zip(pickle.loads(sys.stdin.buffer.read()), values):
    print(loaded == fresh, hash(loaded) == hash(fresh), loaded in {fresh}, fresh in {loaded})
print(nmr.simulate_sequence(pickle.loads(pickle.dumps(seq)), nmr.equilibrium_state()).entries.tobytes()
      == nmr.simulate_sequence(seq, nmr.equilibrium_state()).entries.tobytes())
""", seed="2", data=dumped)
        lines = report.decode().split("\n")
        assert lines[:-2] == ["True True True True"] * 5 and lines[-2:] == ["True", ""]

    def test_a_load_derives_and_validates_again(self):
        seq = protocol_sequence(1, 2)
        loaded = pickle.loads(pickle.dumps(seq))
        assert loaded == seq and loaded.segments == seq.segments and loaded.reads_j == seq.reads_j
        rf = pickle.loads(pickle.dumps(Rf(2, "x", "0.25")))
        assert rf.angle_rad == 0.25
        # A payload that names a bad field value fails where the constructor would.
        bad = pickle.dumps(Rf(2, "x", "0.25")).replace(b"0.25", b"nan!")
        with pytest.raises(ValueError, match="nan!"):
            pickle.loads(bad)


def constants_cases() -> list:
    """Edges of the constants domain, then seeded draws in and out of it."""
    cases = [{"gamma_ratio": 0.5}, {"gamma_ratio": 0.49},
             {"j_hz": 1e-3}, {"j_hz": 1e6}, {"j_hz": 0.0}]
    rng = random.Random(RNG_SEED)
    for _ in range(16):
        cases.append({
            "nu1_hz": 10 ** rng.uniform(6, 9),
            "nu2_hz": 10 ** rng.uniform(6, 9),
            "j_hz": 0.0 if rng.random() < 0.2 else 10 ** rng.uniform(-3, 6),
            "gamma_ratio": 10 ** rng.uniform(-1, 1.5),
        })
    return cases


class TestConstantsDomain:
    @pytest.mark.parametrize("fields", constants_cases(), ids=str)
    def test_finite_result_or_value_error(self, fields):
        consts = PhysicalConstants(**fields)
        uncoupled = consts.j_hz == 0
        for name in UNITARY_GATES:
            if uncoupled and any(isinstance(e, Delay) for e in gate_library(name, consts=consts)):
                with pytest.raises(ValueError, match="uncoupled pair"):
                    verify_realization(name, consts=consts)
                continue
            check = verify_realization(name, consts=consts)
            assert np.isfinite(check.distance) and np.isfinite(check.phase)
            assert check.ok
        if uncoupled or consts.gamma_ratio < 0.5:
            with pytest.raises(ValueError, match="uncoupled pair|gamma_ratio >= 0.5"):
                prepare_pseudo_pure(consts)
            rho = basis_pseudo_pure(BasisLabel.UU)
        else:
            rho = prepare_pseudo_pure(consts)
            target = target_pseudo_pure()
            scale = np.real(np.trace(rho.entries @ target) / np.trace(target @ target))
            assert np.isfinite(rho.entries).all() and scale > 0
            assert np.abs(rho.entries - scale * target).max() < 1e-9 * scale
        for spin in (1, 2):
            for line in predict_spectrum(rho, spin, consts):
                assert np.isfinite(line.offset_hz) and np.isfinite(line.amplitude)
