import dataclasses
import functools
import inspect
import operator
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from densegrover import coding, grover, nmr, qstate
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
    pseudo_pure_fit,
    simulate_sequence,
    spectrum_fingerprint,
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
        # The exact texts, one per field.
        for field, value, text in [("nu1_hz", 0.0, "nu1_hz must be positive and finite"),
                                   ("nu2_hz", -5.0, "nu2_hz must be positive and finite"),
                                   ("gamma_ratio", 0.0, "gamma_ratio must be positive and finite"),
                                   ("j_hz", -1.0, "j_hz must be nonnegative and finite")]:
            with pytest.raises(ValueError) as err:
                PhysicalConstants(**{field: value})
            assert str(err.value) == text
        # Two invalid fields report the first tested: nu1, nu2, gamma_ratio, then J.
        for bad, text in [(dict(nu1_hz=0.0, j_hz=-1.0), "nu1_hz must be positive and finite"),
                          (dict(nu2_hz=np.nan, nu1_hz=-1.0), "nu1_hz must be positive and finite"),
                          (dict(gamma_ratio=np.inf, nu2_hz=0.0), "nu2_hz must be positive and finite"),
                          (dict(j_hz=np.nan, gamma_ratio=-1.0), "gamma_ratio must be positive and finite")]:
            with pytest.raises(ValueError) as err:
                PhysicalConstants(**bad)
            assert str(err.value) == text, bad
        # A derived ratio that underflows to 0 is refused as an explicit 0 is.
        with pytest.raises(ValueError) as err:
            PhysicalConstants(nu1_hz=1e300, nu2_hz=1e-300)
        assert str(err.value) == "gamma_ratio must be positive and finite"

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
        # An unhashable axis raises the same ValueError.
        with pytest.raises(ValueError, match=re.escape("rf axis must be x or y, got ['x']")):
            Rf(1, ["x"], "pi")
        with pytest.raises(ValueError, match=re.escape("gradient axis must be z, got ['z']")):
            Gradient(["z"])

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
        it = grover.SIGN_FLIP_TARGET.matrix
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
        assert i_s[:4] == (Delay("1/4J"), Rf("both", "x", "pi"), Delay("1/4J"), Rf("both", "x", "-pi"))
        return [
            ("I_s", grover.PHASE_SHIFT_S.matrix, i_s, (Delay("1/2J"),) + i_s[4:]),
            ("I_t", grover.SIGN_FLIP_TARGET.matrix, gate_library("I_t").elements, (Delay("1/J"),)),
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

    def test_default_tolerance_is_the_named_one(self, monkeypatch):
        # With no tol, the bound is qstate.VERIFY_TOL as it reads at the call.
        assert inspect.signature(verify_realization).parameters["tol"].default is None
        assert qstate.VERIFY_TOL == 1e-9
        distance = verify_realization("I_t").distance
        monkeypatch.setattr(qstate, "VERIFY_TOL", distance)
        assert not verify_realization("I_t").ok
        monkeypatch.setattr(qstate, "VERIFY_TOL", np.nextafter(distance, np.inf))
        assert verify_realization("I_t").ok

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

    def test_second_tolerance_refits_nothing_and_ok_flips_at_the_distance(self, recorded):
        warm = {name: verify_realization(name) for name in UNITARY_GATES}
        ran = recorded((nmr, "lower"), (nmr, "phase_fit"))
        for name, check in warm.items():
            # tol = distance is refused where the distance is exactly 0.
            tols = [t for t in (check.distance, np.nextafter(check.distance, 1.0), 0.5) if t > 0]
            for tol in tols:
                again = verify_realization(name, tol=tol)
                assert same_bits(again, check.phase, check.distance)
                assert again.ok is (check.distance < tol)
        assert warm["I_t"].distance > 0  # so the loop checks tol = distance at least once
        assert ran == []

    def test_fresh_constants_make_no_phase_fits(self, recorded):
        # A sweep op: the 13 checks and the prep.  Every fit was made at
        # import, so the op fits nothing and lowers no element, not even the
        # prep's alpha pulse, and its prep is the prep program's state.
        ran = recorded((nmr, "phase_fit"), (nmr, "element_unitary"))
        for consts in fresh_prep_constants(20, RNG_SEED + 21):
            for name in UNITARY_GATES:
                assert verify_realization(name, consts=consts).ok
            prep = prepare_pseudo_pure(consts)
            assert ran == []
            assert prep.entries.tobytes() == prep_by_program(consts).entries.tobytes()
            ran.clear()

    def test_fresh_constants_lower_and_fit_nothing(self, recorded):
        assert all(verify_realization(name).ok for name in UNITARY_GATES)
        ran = recorded((nmr, "lower"), (nmr, "phase_fit"))
        fresh = PhysicalConstants(nu1_hz=81e6, nu2_hz=402e6, j_hz=151.125, gamma_ratio=1.875)
        assert all(verify_realization(name, consts=fresh).ok for name in UNITARY_GATES)
        assert ran == []

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


class TestStoredCheck:
    """Each gate keeps the check of the tolerance it was last asked for."""

    def test_a_warm_call_builds_no_check(self, recorded):
        fresh = PhysicalConstants(nu1_hz=81e6, nu2_hz=402e6, j_hz=151.125, gamma_ratio=1.875)
        warm = {name: verify_realization(name) for name in UNITARY_GATES}
        built = recorded((nmr, "GateCheck"))
        for consts in (DEFAULT_CONSTANTS, fresh):
            for name, check in warm.items():
                assert verify_realization(name, consts=consts) is check
                assert verify_realization(name, tol=qstate.VERIFY_TOL, consts=consts) is check
        assert built == []

    def test_a_unitary_gate_reads_no_program(self, recorded):
        # The fit and the program's first n/dJ delay were derived at import, so
        # a call neither assembles nor lowers the gate's program, at any J.
        ran = recorded((nmr, "gate_library"), (nmr, "lower"))
        uncoupled = PhysicalConstants(j_hz=0.0)
        first_delays = {"I_t": "1/2J", "I_s": "1/4J"}
        for consts in (DEFAULT_CONSTANTS, *fresh_prep_constants(5, RNG_SEED + 81), uncoupled):
            for name in UNITARY_GATES:
                check = outcome(verify_realization, name, consts=consts)
                if consts is uncoupled and name in first_delays:
                    assert check == (f"ValueError: delay {first_delays[name]} is undefined "
                                     "for an uncoupled pair (j_hz = 0)")
                else:
                    assert check.ok
        assert ran == []

    def test_each_call_gets_the_ok_of_its_own_tolerance(self, monkeypatch):
        consts = PhysicalConstants(nu1_hz=90e6, nu2_hz=700e6, j_hz=37.5, gamma_ratio=0.6)
        default = qstate.VERIFY_TOL
        for name in UNITARY_GATES:
            distance = verify_realization(name).distance
            just_above = np.nextafter(distance, 1.0)
            # (patched VERIFY_TOL, explicit tol): each differs from the call before it, or
            # repeats its tolerance by the other route.
            calls = [(default, None), (default, distance or just_above), (just_above, None),
                     (default, None), (default, 0.5), (0.5, None), (np.nan, None),
                     (distance or just_above, None), (default, just_above), (default, None)]
            for patched, tol in calls:
                monkeypatch.setattr(qstate, "VERIFY_TOL", patched)
                effective = patched if tol is None else tol
                check = verify_realization(name, tol=tol, consts=consts)
                assert check.ok is (distance < effective), (name, patched, tol)
                expected = refitted_check(name, "y", consts, tol=effective)
                assert same_bits(check, expected.phase, expected.distance) and check == expected

    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan], ids=repr)
    def test_a_bad_tolerance_raises_and_keeps_the_stored_check(self, tol):
        check = verify_realization("I_s")
        with pytest.raises(ValueError, match="tolerance must be positive"):
            verify_realization("I_s", tol=tol)
        assert verify_realization("I_s") is check

    def test_a_pickled_gate_carries_no_check(self, monkeypatch):
        check = verify_realization("V2")
        loaded = pickle.loads(pickle.dumps(GATES["V2"]))
        assert set(vars(loaded)) == {"pulses", "ideal", "fit"} and loaded.fit == GATES["V2"].fit
        monkeypatch.setitem(GATES, "V2", loaded)
        again = verify_realization("V2")
        assert again is not check and again == check and verify_realization("V2") is again


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

    @pytest.mark.parametrize("gamma_ratio", [0.6, 3.97])
    def test_fit_equals_the_projection_on_the_target(self, gamma_ratio):
        rho = prepare_pseudo_pure(PhysicalConstants(gamma_ratio=gamma_ratio))
        target = target_pseudo_pure()
        scale = np.real(np.trace(rho.entries @ target) / np.trace(target @ target))
        deviation = np.abs(rho.entries - scale * target).max() / np.abs(scale * target).max()
        assert pseudo_pure_fit(rho) == (scale, deviation)
        assert pseudo_pure_fit(basis_pseudo_pure(BasisLabel.UU)) == (1.0, 0.0)
        scale_dd, deviation_dd = pseudo_pure_fit(basis_pseudo_pure(BasisLabel.DD))
        assert scale_dd < 0 and deviation_dd > 1

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
        # The zero-line test is relative to the state's largest entry, as the other two are.
        for label in BasisLabel:
            rho = basis_pseudo_pure(label)
            for scale in (0.3, 1e-10, 1e-200):
                assert spectrum_fingerprint(DeviationMatrix(scale * rho.entries)) == spectrum_fingerprint(rho)

    def test_featureless_state_rejected(self):
        with pytest.raises(ValueError, match="line amplitudes are all below"):
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

    @pytest.mark.parametrize("spin", [True, 1.0, 2.0, "1"], ids=repr)
    def test_spin_must_be_the_int_1_or_2(self, spin):
        # Equal to 1 or 2 is not enough: SpectrumLine would carry True or 1.0.
        with pytest.raises(ValueError, match=re.escape(f"spin must be 1..2, got {spin!r}")):
            predict_spectrum(basis_pseudo_pure(BasisLabel.UU), spin)

    def test_numpy_integer_spin_is_an_index(self):
        # The check is qstate.checked_index, which takes numpy integers as every index check does.
        rho = basis_pseudo_pure(BasisLabel.UD)
        lines = predict_spectrum(rho, np.int64(2))
        assert lines == predict_spectrum(rho, 2)
        # The lines are the state's stored ones, which carry the int spin.
        assert all(type(line.spin) is int and line.spin == 2 for line in lines)

    def test_stored_amplitudes_are_bitwise_each_spins_readout(self):
        # Per spin, the (partner-up, partner-down) coherence rows of its readout gate's map,
        # rho[2, 0], rho[3, 1] (spin 1) or rho[1, 0], rho[3, 2] (spin 2), over the uu reference's.
        rows = []
        for name, coherences in (("readout-carbon", [8, 13]), ("readout-proton", [4, 14])):
            (u,) = lower(GATES[name].pulses)
            readout = np.kron(u, u.conj())[coherences]
            rows.append(readout / (readout[0] @ basis_pseudo_pure(BasisLabel.UU).entries.reshape(16)))
        states = [basis_pseudo_pure(label) for label in BasisLabel]
        states += [simulate_sequence(protocol_sequence(j, k), equilibrium_state())
                   for j in (1, 2, 3, 4) for k in (1, 2, 3, 4)]
        for rho in states:
            for spin in (1, 2):
                expected = (rows[spin - 1] @ rho.entries.reshape(16)).tolist()
                assert [line.amplitude for line in predict_spectrum(rho, spin)] == expected

    def test_each_call_returns_a_fresh_list(self):
        rho = simulate_sequence(protocol_sequence(2, 3), equilibrium_state())
        first = predict_spectrum(rho, 1)
        expected = list(first)
        # Corrupt the returned list as the benchmark's self-test does.
        first[0] = dataclasses.replace(first[0], amplitude=first[0].amplitude + 1e-6)
        first.append(first[1])
        again = predict_spectrum(rho, 1)
        assert again is not first and again == expected
        # The lines themselves are shared and frozen.
        assert all(a is b for a, b in zip(again, expected))
        with pytest.raises(dataclasses.FrozenInstanceError):
            again[0].amplitude = 0.0

    def test_a_warm_read_out_builds_no_line_or_fingerprint(self, recorded):
        rho = simulate_sequence(protocol_sequence(3, 2), equilibrium_state())
        lines = [predict_spectrum(rho, spin) for spin in (1, 2)]
        fingerprint = spectrum_fingerprint(rho)
        built = recorded((nmr, "SpectrumLine"), (nmr, "Fingerprint"))
        assert spectrum_fingerprint(rho) is fingerprint
        assert [predict_spectrum(rho, spin) for spin in (1, 2)] == lines
        assert built == []

    def test_lines_follow_the_j_last_asked(self):
        rho = simulate_sequence(protocol_sequence(1, 4), equilibrium_state())
        amplitudes = [[line.amplitude for line in predict_spectrum(rho, spin)] for spin in (1, 2)]
        for j_hz in (215.0, 37.5, 215.0, 0.0, -0.0, 37.5):
            consts = PhysicalConstants(j_hz=j_hz)
            for spin in (1, 2):
                up, down = predict_spectrum(rho, spin, consts)
                assert (up.spin, up.line, down.spin, down.line) == (spin, "partner_up", spin, "partner_down")
                # Compared by repr, so a zero offset keeps the sign of its J.
                assert (repr(up.offset_hz), repr(down.offset_hz)) == (repr(j_hz / 2), repr(-j_hz / 2))
                assert [up.amplitude, down.amplitude] == amplitudes[spin - 1]
        assert [line.offset_hz for line in predict_spectrum(rho, 1)] == [107.5, -107.5]

    def test_a_refused_state_raises_the_same_error_every_call(self):
        rho = DeviationMatrix(0.5 * basis_pseudo_pure(BasisLabel.UU).entries
                              + 0.5 * basis_pseudo_pure(BasisLabel.DD).entries)
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError, match="not a basis pseudo-pure state") as caught:
                spectrum_fingerprint(rho)
            messages.append(str(caught.value))
        assert messages == [messages[0]] * 3
        assert [line.line for line in predict_spectrum(rho, 1)] == ["partner_up", "partner_down"]

    def test_spectrum_line_is_a_dataclass(self):
        line = predict_spectrum(basis_pseudo_pure(BasisLabel.UU), 1)[0]
        assert dataclasses.is_dataclass(line)
        moved = dataclasses.replace(line, amplitude=0.5)
        assert moved.amplitude == 0.5 and moved.line == line.line


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
        g, g_inverse = g_gate_names(2)
        seq = joined(g) + joined(g_inverse)
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


COUPLED = PhysicalConstants(nu1_hz=90e6, nu2_hz=700e6, j_hz=37.5, gamma_ratio=0.6)


def g_gate_names(j):
    """G's library gates for preset j in time order, and G^-1's read off them:
    reversed, with U and U^-1 swapped (I_s and I_t are involutions)."""
    g = [f"U{j}", "I_t", f"U{j}-inv", "I_s", f"U{j}"]
    swap = {f"U{j}": f"U{j}-inv", f"U{j}-inv": f"U{j}"}
    return g, [swap.get(name, name) for name in reversed(g)]


def joined(names):
    """The library programs of `names`, one after another, as one program."""
    return PulseSequence(tuple(e for name in names for e in gate_library(name)))


def concatenated_protocol(j, k, consts):
    """The protocol program joined from its parts."""
    g, g_inverse = g_gate_names(j)
    seq = gate_library("pseudo-pure-prep", consts=consts) + joined(g)
    if k > 1:
        seq = seq + gate_library(f"V{k}")
    return seq + joined(g_inverse), g, g_inverse


def built_target(name):
    """A library gate's target, built again from its entries, grover and coding."""
    builders = {"I_t": lambda: qstate.Operator4(np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)),
                "I_s": lambda: qstate.Operator4(np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex))}
    for j in (1, 2, 3, 4):
        builders[f"U{j}"] = lambda j=j: grover.build_U(grover.preset("y", j))
        builders[f"U{j}-inv"] = lambda j=j: grover.build_U(grover.preset("y", j)).adjoint()
    for k in (2, 3, 4):
        builders[f"V{k}"] = lambda k=k: coding.encoder("y", k)
    return builders[name]()


class TestOneDefinition:
    @pytest.mark.parametrize("consts", [DEFAULT_CONSTANTS, COUPLED], ids=["default", "coupled"])
    def test_protocol_is_prep_synthesis_encoder_decoding(self, consts):
        for j in (1, 2, 3, 4):
            for k in (1, 2, 3, 4):
                expected, g, g_inverse = concatenated_protocol(j, k, consts)
                seq = protocol_sequence(j, k, consts)
                assert seq == expected and seq.to_text() == expected.to_text(), (j, k)
            # The test's own name lists are grover's factor lists, read as preset j's gates.
            assert (library_names(grover.G_FACTORS, j), library_names(grover.G_INVERSE_FACTORS, j)) \
                == (g, g_inverse)

    def test_each_target_is_stored_once_and_equals_its_builder(self):
        for name in UNITARY_GATES:
            target = ideal_gate_unitary(name)
            assert target is GATES[name].ideal and isinstance(target, nmr.Operator4)
            assert target.matrix.tobytes() == built_target(name).matrix.tobytes(), name
        assert [name for name, gate in GATES.items() if gate.ideal is not None] == list(UNITARY_GATES)

    def test_the_diagonal_targets_are_grovers_operators(self):
        # One copy of I_t and I_s across the gate and pulse layers.
        assert GATES["I_t"].ideal is grover.SIGN_FLIP_TARGET
        assert GATES["I_s"].ideal is grover.PHASE_SHIFT_S

    @pytest.mark.parametrize("name", ["U1", "readout-carbon", "Q7"])
    def test_target_and_program_refuse_the_x_kind_alike(self, name):
        for lookup in (ideal_gate_unitary, gate_library, verify_realization):
            with pytest.raises(ValueError, match="^the pulse library covers only the y-kind presets$"):
                lookup(name, "x")


GATE_BUILD_COUNT = """
import sys
builds = []
def count(frame, event, arg):
    if (event == "call" and frame.f_code.co_name == "__post_init__"
            and type(frame.f_locals.get("self")).__name__ == "Gate"):
        builds.append(frame.f_locals["self"])
sys.setprofile(count)
from densegrover import nmr
sys.setprofile(None)
print(len(builds), len(nmr.GATES))
"""


def run_python(code: str, seed: str, data: bytes = b"") -> bytes:
    """Stdout of `code` run by a fresh interpreter under PYTHONHASHSEED=seed."""
    src = Path(nmr.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                          capture_output=True, check=True, timeout=60).stdout


def library_names(factors, j):
    """`grover`'s factor names as preset j's library gate names."""
    return [{"U": f"U{j}", "U-inv": f"U{j}-inv"}.get(f, f) for f in factors]


class TestOneFactorList:
    """`grover`'s factor list is the one order both layers read."""

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_library_targets_fold_to_the_preset_pair(self, j):
        # Reversed time order, left fold, negated: the product build_G_pair forms.
        values = grover.PRESETS["y", j]
        for factors, expected in ((grover.G_FACTORS, values.g),
                                  (grover.G_INVERSE_FACTORS, values.g_inverse)):
            names = library_names(factors, j)
            product = functools.reduce(operator.matmul,
                                       [GATES[name].ideal.matrix for name in reversed(names)])
            assert np.array_equal(-product, expected.matrix), names

    def test_inverse_rule(self):
        assert grover.G_FACTORS == ("U", "I_t", "U-inv", "I_s", "U")
        assert grover.G_INVERSE_FACTORS == grover.inverse_factors(grover.G_FACTORS)
        assert grover.inverse_factors(grover.G_INVERSE_FACTORS) == grover.G_FACTORS
        assert library_names(grover.G_INVERSE_FACTORS, 2) == ["U2-inv", "I_s", "U2", "I_t", "U2-inv"]

    def test_import_builds_one_gate_per_library_entry(self):
        # Each build lowers a program and fits its phase; U{j}-inv reverses the
        # U{j} gate in GATES instead of building U{j} a second time.
        assert run_python(GATE_BUILD_COUNT, "0").split() == [str(len(GATES)).encode()] * 2
        assert list(GATES)[:8] == [f"U{j}" for j in (1, 2, 3, 4)] + [f"U{j}-inv" for j in (1, 2, 3, 4)]


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
        # `lower` keeps no memo; the program's simulated state is the cached object.
        seq, rho = protocol_sequence(3, 4), equilibrium_state()
        first, second = lower(seq), lower(seq)
        assert not same_objects(first, second)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        assert simulate_sequence(seq, rho) is simulate_sequence(seq, rho)

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
        # Every program's state is kept per J; only a delay in seconds makes two J differ.
        seconds = PulseSequence((Rf(1, "x", "pi/2"), Delay("0.001"), Rf(1, "y", "pi/2"), Gradient(),
                                 Delay("1/4J"), Rf(2, "y", "pi/3")))
        relative = PulseSequence(seconds.elements[4:])
        a, b = PhysicalConstants(j_hz=215.0), PhysicalConstants(j_hz=300.0)
        rho = equilibrium_state()
        states = {seq: [simulate_sequence(seq, rho, c) for c in (a, b)] for seq in (seconds, relative)}
        assert np.abs(states[seconds][0].entries - states[seconds][1].entries).max() > 1e-3
        at_a, at_b = states[relative]
        assert at_a is not at_b and at_a.entries.tobytes() == at_b.entries.tobytes()
        for seq, pair in states.items():
            assert all(simulate_sequence(seq, rho, c) is state for c, state in zip((a, b), pair))
        # At J = 0 the first n/dJ delay raises; a program without one simulates.
        uncoupled = PhysicalConstants(j_hz=0.0)
        for seq in (seconds, relative):
            with pytest.raises(ValueError, match=re.escape("delay 1/4J is undefined")):
                simulate_sequence(seq, rho, uncoupled)
        for seq in (PulseSequence(seconds.elements[:4]), PulseSequence(seconds.elements[:1])):
            self.assert_matches_fold(seq, rho, uncoupled)

    def test_cache_hit_builds_no_element_unitaries(self, recorded):
        seq = protocol_sequence(4, 2)
        rho = equilibrium_state()
        expected = simulate_sequence(seq, rho)
        calls = recorded((nmr, "element_unitary"))
        out = simulate_sequence(protocol_sequence(4, 2), rho)
        assert calls == []
        assert np.array_equal(out.entries, expected.entries)
        fresh = PulseSequence((Rf(1, "x", "0.123"), Gradient(), Delay("1/3J")))
        simulate_sequence(fresh, rho)
        assert [e for _, e, *_ in calls] == [fresh.elements[0], fresh.elements[2]]

    def test_gradient_program_has_no_net_unitary(self):
        with pytest.raises(ValueError, match="contains gradients"):
            verify_realization("pseudo-pure-prep")

    def test_frame_independent_programs_share_segments_across_constants(self):
        other = PhysicalConstants(nu1_hz=90e6, nu2_hz=700e6, j_hz=37.5, gamma_ratio=0.6)
        rho = equilibrium_state()
        for name in GATES:
            if name == "pseudo-pure-prep":
                continue  # its first pulse turns by an angle that reads gamma_ratio
            seq = gate_library(name)
            assert [u.tobytes() for u in lower(seq, other)] == [u.tobytes() for u in lower(seq)]
            at_other, at_default = simulate_sequence(seq, rho, other), simulate_sequence(seq, rho)
            assert at_other.entries.tobytes() == at_default.entries.tobytes()

    @pytest.mark.parametrize("name", ["I_t", "pseudo-pure-prep"])
    def test_uncoupled_pair_raises_after_a_cache_hit(self, name):
        uncoupled = PhysicalConstants(j_hz=0.0)
        seq, rho = gate_library(name, consts=uncoupled), equilibrium_state()
        assert simulate_sequence(seq, rho) is simulate_sequence(seq, rho)
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
        assert first_a != first_b and rest_a == rest_b == list(gate_library("pseudo-pure-prep").segments[1:])
        assert np.abs(transfer_of(prep_a, a) - transfer_of(prep_b, b)).max() > 1e-3

    def test_fresh_constants_build_only_the_prep_pulse(self, recorded):
        assert all(verify_realization(name).ok for name in UNITARY_GATES)
        built = recorded((nmr, "element_unitary"))
        fresh = PhysicalConstants(nu1_hz=77e6, nu2_hz=333e6, j_hz=123.25, gamma_ratio=2.345)
        assert all(verify_realization(name, consts=fresh).ok for name in UNITARY_GATES)
        prep = prepare_pseudo_pure(fresh)
        # The prep pulse is folded as spin 2's rotation: no element is built.
        assert built == []
        assert prep.entries.tobytes() == prep_by_program(fresh).entries.tobytes()


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


# I and 15 traceless Hermitian matrices: a basis of the 4x4 matrices.
UNITS = np.eye(16, dtype=complex).reshape(16, 4, 4)
HERMITIAN_BASIS = [np.eye(4, dtype=complex)] + [UNITS[5 * k] - UNITS[5 * k + 5] for k in range(3)] + [
    c * UNITS[4 * a + b] + np.conj(c) * UNITS[4 * b + a] for a in range(4) for b in range(a + 1, 4) for c in (1, 1j)]


def transfer_of(seq, consts=DEFAULT_CONSTANTS):
    """The 16x16 transfer matrix of `seq` under `consts`, read off `simulate_sequence`: the
    map is linear and unital, so its images of I and 15 traceless Hermitian states fix it."""
    images = [HERMITIAN_BASIS[0]] + [simulate_sequence(seq, DeviationMatrix(m), consts).entries
                                     for m in HERMITIAN_BASIS[1:]]
    return np.stack(images).reshape(16, 16).T @ np.linalg.inv(np.stack(HERMITIAN_BASIS).reshape(16, 16).T)


POPULATIONS = [0, 5, 10, 15]  # the row-major vec indices of rho[i, i], all a crush keeps


def population_map(units):
    """The 16x4 map from the populations a crush leaves through runs with net unitaries
    `units`, crushed between each pair, by the population columns of kron(u, conj u)."""
    t = np.eye(16)[:, POPULATIONS]
    for u in units:
        t = np.kron(u, u.conj())[:, POPULATIONS] @ t[POPULATIONS]
    return t


def map_product(seq, rho, consts=DEFAULT_CONSTANTS):
    """The state by the map fold the state fold replaced: the 16x16 map
    `tail @ rows` of a program whose first run a crush follows, then that
    map times vec(rho)."""
    first, *later = lower(seq, consts)
    assert later, "a crush follows the first run"
    rows = (first[:, :, None] * first.conj()[:, None, :]).reshape(4, 16)
    return ((population_map(later) @ rows) @ rho.entries.reshape(16)).reshape(4, 4)


def prep_by_program(consts):
    """The prep as its program simulated from the equilibrium state."""
    program = gate_library("pseudo-pure-prep", consts=consts)
    return simulate_sequence(program, equilibrium_state(consts), consts)


class TestTransfer:
    def test_matches_the_kron_reference(self):
        programs = [protocol_sequence(j, k) for j in (1, 2, 3, 4) for k in (1, 2, 3, 4)]
        programs += [PulseSequence(elements) for elements in EDGE_PROGRAMS.values()]
        for seq in programs:
            t = transfer_of(seq)
            assert np.abs(t - superoperator_reference(seq)).max() < 1e-12

    @pytest.mark.parametrize("consts", [DEFAULT_CONSTANTS, COUPLED], ids=["default", "coupled"])
    def test_state_fold_matches_the_map_product_on_the_protocol_programs(self, consts):
        rho = equilibrium_state(consts)
        for j in (1, 2, 3, 4):
            for k in (1, 2, 3, 4):
                seq = protocol_sequence(j, k, consts)
                out = simulate_sequence(seq, rho, consts).entries
                assert np.abs(out - map_product(seq, rho, consts)).max() < 1e-15, (j, k)

    def test_prep_tail_and_memoised_state_are_read_only(self):
        seq = protocol_sequence(1, 2)
        assert transfer_of(seq).shape == (16, 16)
        state = simulate_sequence(seq, equilibrium_state()).entries
        for shared in (prepare_pseudo_pure(COUPLED).entries, state):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0, 0] = 0.0

    def test_fresh_constants_prep_lowers_only_its_alpha_pulse(self, monkeypatch, recorded):
        prepare_pseudo_pure(DEFAULT_CONSTANTS)
        memos = (protocol_sequence, equilibrium_state)
        before = [memo.cache_info() for memo in memos]
        ran = recorded((nmr, "element_unitary"), (nmr, "lower"), (nmr, "simulate_sequence"))
        fresh = PhysicalConstants(nu1_hz=61e6, nu2_hz=377e6, j_hz=97.5, gamma_ratio=4.125)
        prep = prepare_pseudo_pure(fresh)
        # The prep builds no element, not even its alpha pulse, lowers and
        # simulates no program and touches no memo.
        assert ran == []
        assert [memo.cache_info() for memo in memos] == before
        monkeypatch.undo()
        assert prep.entries.tobytes() == prep_by_program(fresh).entries.tobytes()

    def test_equal_programs_built_apart_hash_and_compare_equal(self):
        seq = protocol_sequence(2, 3)
        rebuilt = parse_sequence(seq.to_text())
        assert rebuilt is not seq and rebuilt.elements is not seq.elements
        assert rebuilt == seq and hash(rebuilt) == hash(seq)
        assert {seq: 1}[rebuilt] == 1
        other = protocol_sequence(2, 4)
        assert other != seq
        rho = equilibrium_state()
        assert simulate_sequence(rebuilt, rho) is simulate_sequence(seq, rho)

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


class TestStateMemo:
    def test_warm_call_returns_the_same_state_and_builds_none(self, recorded):
        seq, rho0 = protocol_sequence(3, 2), equilibrium_state()
        first = simulate_sequence(seq, rho0)
        checks = recorded((nmr, "check_hermitian"))
        assert simulate_sequence(seq, rho0) is first
        assert checks == []
        assert not first.entries.flags.writeable

    def test_equal_start_built_apart_is_built_and_checked_on_its_own(self, recorded):
        seq, rho0 = protocol_sequence(3, 2), equilibrium_state()
        first = simulate_sequence(seq, rho0)
        twin = DeviationMatrix(np.array(rho0.entries))
        checks = recorded((nmr, "check_hermitian"))
        second = simulate_sequence(seq, twin)
        assert second is not first
        assert second.entries.tobytes() == first.entries.tobytes()
        assert len(checks) == 1
        assert simulate_sequence(seq, twin) is second and len(checks) == 1

    def test_memo_is_bounded(self):
        # Far more starts than the memo keeps: the last is a hit, the first is built again.
        rng = np.random.default_rng(RNG_SEED + 47)
        seq, starts = protocol_sequence(1, 4), [random_deviation(rng) for _ in range(1024)]
        states = [simulate_sequence(seq, rho) for rho in starts]
        assert simulate_sequence(seq, starts[-1]) is states[-1]
        assert simulate_sequence(seq, starts[0]) is not states[0]

    def test_uncoupled_pair_stores_no_state(self):
        # At J = 0 lowering raises at the first n/dJ delay, so no J = 0 entry is stored.
        uncoupled = PhysicalConstants(j_hz=0.0)
        seq, rho0 = protocol_sequence(2, 3, uncoupled), equilibrium_state(uncoupled)
        warm = simulate_sequence(seq, rho0)
        for _ in range(3):
            with pytest.raises(ValueError, match=re.escape("delay 1/4J is undefined for an uncoupled")):
                simulate_sequence(seq, rho0, uncoupled)
            assert simulate_sequence(seq, rho0) is warm

    def test_uncoupled_pair_raises_on_every_call_after_a_warm_coupled_call(self):
        seq, rho0 = protocol_sequence(2, 3), equilibrium_state()
        warm = simulate_sequence(seq, rho0)
        uncoupled = PhysicalConstants(j_hz=0.0)
        for _ in range(3):
            with pytest.raises(ValueError, match="uncoupled pair"):
                simulate_sequence(seq, rho0, uncoupled)
        assert simulate_sequence(seq, rho0) is warm


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
            assert np.abs(t - superoperator_reference(seq, consts)).max() < 1e-12, seq.to_text()

    def test_after_crush_is_byte_identical_to_the_superoperator_columns(self, monkeypatch):
        # A program that opens with a crush is the map of its later runs, built from each run's
        # population columns, times the populations: byte for byte the kron columns' product.
        gen = np.random.default_rng(RNG_SEED + 80)

        def assert_bytes(elements, consts):
            rho = random_deviation(gen)
            got = simulate_sequence(PulseSequence((Gradient(), *elements)), rho, consts).entries
            expected = population_map(lower(PulseSequence(elements), consts)) @ np.diag(rho.entries)
            assert got.tobytes() == expected.reshape(4, 4).tobytes(), elements

        rng = random.Random(RNG_SEED + 79)
        tails = 0
        for j_hz in (215.0, 37.5):
            for index in range(200):
                seq = random_program(rng, index)
                tails += len(seq.segments) > 1
                assert_bytes(seq.elements, PhysicalConstants(j_hz=j_hz))
        assert tails > 200
        # On 200 random unitaries, two runs at a time; each run is one pulse standing for its unitary.
        unitaries = {}
        monkeypatch.setattr(nmr, "element_unitary", lambda e, consts=DEFAULT_CONSTANTS: unitaries[e])
        for index in range(100):
            pulses = [Rf(1, "x", f"{2 * index + n + 1}e-200") for n in range(2)]
            for e in pulses:
                unitaries[e] = np.linalg.qr(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))[0]
            assert_bytes((pulses[0], Gradient(), pulses[1]), DEFAULT_CONSTANTS)

    def test_uncoupled_pair_raises_what_the_element_fold_raises_first(self):
        # Lowering raises at J = 0, so it must name the program's first n/dJ
        # delay, the one an element-by-element fold meets first.
        rng = random.Random(RNG_SEED + 67)
        uncoupled = PhysicalConstants(j_hz=0.0)
        rho = equilibrium_state(uncoupled)
        two_delays = 0
        for index in range(300):
            seq = random_program(rng, index)
            got = outcome(simulate_sequence, seq, rho, uncoupled)
            expected = outcome(reference_fold, seq, rho, uncoupled)
            if isinstance(expected, str):
                assert got == expected, seq.to_text()
                fractions = {e.duration for e in seq if isinstance(e, Delay) and e.j_fraction}
                two_delays += len(fractions) > 1
            else:
                assert np.abs(got.entries - expected).max() < 1e-12, seq.to_text()
        assert two_delays > 20

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
            lower(PulseSequence(run))


class TestPrepBlock:
    """`prepare_pseudo_pure` against the program path it stands for."""

    def test_block_is_byte_identical_to_the_program(self):
        # Up to 1e15 both give one state, so the FAIL band of `verify pseudo-pure-prep`
        # (gamma_ratio 1e8 to 1e10) is the program's own answer; at 1e100 both refuse it alike.
        ratios = (0.5, np.nextafter(0.5, 1.0), 1.0, 12.0, 1e3, 1e4, 1e5, 1e7, 1e8, 1e10, 1e12, 1e15)
        edges = [PhysicalConstants(gamma_ratio=float(g)) for g in ratios]
        for consts in fresh_prep_constants(500, RNG_SEED + 53) + edges:
            assert prepare_pseudo_pure(consts).entries.tobytes() == prep_by_program(consts).entries.tobytes()
        far = PhysicalConstants(gamma_ratio=1e100)
        assert outcome(prepare_pseudo_pure, far) == outcome(prep_by_program, far)
        assert outcome(prepare_pseudo_pure, far) == "ValueError: deviation matrix must be Hermitian"

    def test_uncoupled_pair_raises_as_the_program_does(self):
        consts = PhysicalConstants(j_hz=0.0, gamma_ratio=3.97)
        program = gate_library("pseudo-pure-prep", consts=consts)
        with pytest.raises(ValueError, match="uncoupled pair") as by_program:
            simulate_sequence(program, equilibrium_state(consts), consts)
        with pytest.raises(ValueError) as by_block:
            prepare_pseudo_pure(consts)
        assert str(by_block.value) == str(by_program.value)

    def test_gamma_ratio_below_half_raises(self):
        with pytest.raises(ValueError, match="gamma_ratio >= 0.5"):
            prepare_pseudo_pure(PhysicalConstants(gamma_ratio=0.45))

    def test_alpha_run_is_checked_unitary(self, monkeypatch):
        # The alpha pulse kron(I, r) has the defect of its rotation r, which is checked
        # with `Operator4`'s bound and message, after the gamma_ratio domain and before J.
        r = qstate.rotation_2x2("x", 0.3)
        factors = {"3.000e+00": 2 * np.eye(2, dtype=complex), "1.000e+00": np.array([[1, 1], [0, 1j]]),
                   "nan": np.full((2, 2), complex(np.nan, 0.0)), "2.000e-12": r * (1 + 1e-12)}
        for defect, factor in factors.items():
            monkeypatch.setattr(nmr, "rotation_2x2", lambda axis, angle: np.array(factor, dtype=complex))
            for j_hz in (215.0, 0.0):
                with pytest.raises(ValueError, match=f"^operator deviates from unitarity by {re.escape(defect)}$"):
                    prepare_pseudo_pure(PhysicalConstants(j_hz=j_hz, gamma_ratio=2.0))
            with pytest.raises(ValueError, match="gamma_ratio >= 0.5"):
                prepare_pseudo_pure(PhysicalConstants(gamma_ratio=0.45))
        monkeypatch.setattr(nmr, "rotation_2x2", lambda axis, angle: r * (1 + 1e-13))
        assert isinstance(prepare_pseudo_pure(PhysicalConstants(gamma_ratio=2.0)), DeviationMatrix)

    def test_equilibrium_state_and_result_are_checked_deviation_matrices(self, recorded):
        # The thermal start's checks, run before the prep's tail is read, are in test_memo_inventory.py.
        checked = recorded((nmr, "check_hermitian"))
        out = prepare_pseudo_pure(PhysicalConstants(nu1_hz=61e6, nu2_hz=377e6, j_hz=97.5, gamma_ratio=4.125))
        assert isinstance(out, DeviationMatrix) and not out.entries.flags.writeable
        # The result is checked, for trace 0 and Hermiticity, as a deviation matrix.
        assert [(m.tobytes(), rest) for _, m, *rest in checked] == [(out.entries.tobytes(), [0, "deviation matrix"])]

    def test_fresh_constants_leave_the_equilibrium_memo_alone(self):
        before = equilibrium_state.cache_info()
        for consts in fresh_prep_constants(1000, RNG_SEED + 71):
            prepare_pseudo_pure(consts)
        assert equilibrium_state.cache_info() == before

    def test_state_fold_matches_the_map_product_on_fresh_preps(self):
        for consts in fresh_prep_constants(500, RNG_SEED + 73):
            program = gate_library("pseudo-pure-prep", consts=consts)
            expected = map_product(program, equilibrium_state(consts), consts)
            assert np.abs(prepare_pseudo_pure(consts).entries - expected).max() < 1e-15

    def test_result_is_checked_hermitian(self, monkeypatch):
        # The result's check refuses it once rho[0, 1] is skewed: trace kept, Hermiticity lost.
        skew = np.triu(np.ones((4, 4)), 1)
        monkeypatch.setattr(nmr, "check_hermitian", lambda m, *rest: qstate.check_hermitian(m + skew, *rest))
        with pytest.raises(ValueError, match="deviation matrix must be Hermitian"):
            prepare_pseudo_pure(PhysicalConstants(gamma_ratio=2.0))


def outcome(f, *args, **kwargs):
    """f's result, or the text of the ValueError it raises."""
    try:
        return f(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def refitted_check(name, kind, consts, tol=1e-9):
    """`verify_realization` as a fit made on every call: lower the gate's program, fit it."""
    seq = gate_library(name, kind, consts)
    if len(seq.segments) > 1:
        raise ValueError(f"gate {name!r} contains gradients; no net unitary exists")
    (u,) = lower(seq, consts)
    phase, distance = phase_fit(u, ideal_gate_unitary(name, kind).matrix)
    return nmr.GateCheck(distance < tol, distance, phase)


def library_constants() -> list:
    """The default, J = 0, a low gamma_ratio with and without J, a coupled set, 200 draws."""
    return [DEFAULT_CONSTANTS, PhysicalConstants(j_hz=0.0), PhysicalConstants(gamma_ratio=0.3),
            PhysicalConstants(j_hz=0.0, gamma_ratio=0.3),
            PhysicalConstants(nu1_hz=90e6, nu2_hz=700e6, j_hz=37.5, gamma_ratio=0.6),
            *sweep_constants(200, RNG_SEED + 61)]


class TestLibraryValues:
    """Gate fits and the prep tail, built once, against the work they stand for."""

    def test_library_programs_read_no_j(self):
        # No delay in seconds, the condition under which one lowering serves every J != 0.
        programs = [gate.pulses for gate in GATES.values() if gate.pulses is not None]
        assert len(programs) == len(GATES) - 1
        programs.append(PulseSequence(gate_library("pseudo-pure-prep").elements[1:]))
        assert not any(isinstance(e, Delay) and e.j_fraction is None for seq in programs for e in seq)
        for consts in sweep_constants(20, RNG_SEED + 83):
            for seq in programs:
                assert [u.tobytes() for u in lower(seq, consts)] == [u.tobytes() for u in lower(seq)]

    def test_verify_matches_a_fit_made_on_every_call(self, monkeypatch):
        def assert_same(got, expected, case):
            if isinstance(expected, str):
                assert got == expected, case
            else:
                assert same_bits(got, expected.phase, expected.distance), case
                assert got.ok is expected.ok, case

        for consts in library_constants():
            for name in [*GATES, "unknown"]:
                # The gate's own distance, or I_t's for a gate without a fit.
                distance = (GATES[name].fit if name in GATES and GATES[name].fit else GATES["I_t"].fit)[1]
                bounds = [distance, np.nextafter(distance, 1.0), 0.5, 1e-20]
                for kind in ("y", "x"):
                    for tol in [None, *bounds, 0.0, -1.0, np.nan]:
                        got = outcome(verify_realization, name, kind, tol, consts)
                        if tol is None:
                            expected = outcome(refitted_check, name, kind, consts)
                        elif not tol > 0:  # refused before the gate is looked up
                            expected = "ValueError: tolerance must be positive"
                        else:
                            expected = outcome(refitted_check, name, kind, consts, tol=tol)
                        assert_same(got, expected, (name, kind, tol, consts))
                    for patched in bounds:
                        with monkeypatch.context() as m:
                            m.setattr(qstate, "VERIFY_TOL", patched)
                            got = outcome(verify_realization, name, kind, consts=consts)
                        expected = outcome(refitted_check, name, kind, consts, tol=patched)
                        assert_same(got, expected, (name, kind, "VERIFY_TOL", patched, consts))

    def test_prep_matches_the_program(self):
        def by_program(consts):
            program = gate_library("pseudo-pure-prep", consts=consts)
            return simulate_sequence(program, equilibrium_state(consts), consts)

        errors = set()
        for consts in library_constants():
            got, expected = outcome(prepare_pseudo_pure, consts), outcome(by_program, consts)
            if isinstance(expected, str):
                assert got == expected, consts
                errors.add(expected)
            else:
                assert got.entries.tobytes() == expected.entries.tobytes(), consts
        assert "ValueError: delay 1/4J is undefined for an uncoupled pair (j_hz = 0)" in errors

    def test_a_substituted_gate_derives_its_own_fit(self):
        gate = Gate(GATES["V3"].pulses, GATES["V2"].ideal)
        (u,) = lower(GATES["V3"].pulses)
        assert gate.fit == phase_fit(u, GATES["V2"].ideal.matrix) and gate.fit[1] > 0.5
        assert Gate(GATES["readout-carbon"].pulses).fit is None
        assert GATES["pseudo-pure-prep"].fit is None
        assert [f.name for f in dataclasses.fields(Gate)] == ["pulses", "ideal"]
        loaded = pickle.loads(pickle.dumps(gate))
        assert loaded.pulses == gate.pulses and loaded.fit == gate.fit
        with pytest.raises(dataclasses.FrozenInstanceError):
            gate.pulses = None

    @pytest.mark.parametrize("elements", [
        (Gradient(),),
        (Gradient(), Rf(2, "y", "pi")),
        (Rf(2, "y", "pi/2"), Gradient(), Rf(2, "y", "pi/2")),
        (Rf(2, "y", "pi"), Gradient()),
    ], ids=["alone", "leading", "middle", "trailing"])
    def test_a_gate_with_a_target_refuses_a_gradient(self, elements):
        # Its fit is of one net unitary, which a program with a crush does not have.
        with pytest.raises(ValueError, match="^a gate with a target contains a gradient; "
                                             "no net unitary exists$"):
            Gate(PulseSequence(elements), GATES["V4"].ideal)
        assert Gate(PulseSequence(elements)).fit is None

    @pytest.mark.parametrize("elements", [
        (Delay("0.001"),),
        (Rf(1, "x", "pi/2"), Delay("1/4J"), Delay("0.001"), Rf(1, "x", "-pi/2")),
    ], ids=["alone", "after an n/dJ delay"])
    def test_a_gate_with_a_target_refuses_a_delay_in_seconds(self, elements):
        # Its fit is taken once, at the default J, and would be returned at every J,
        # though the program's unitary at 300 Hz is far from that target.
        seq = PulseSequence(elements)
        target = qstate.Operator4(lower(seq)[0])
        (at_300,) = lower(seq, PhysicalConstants(j_hz=300.0))
        assert phase_fit(at_300, target.matrix)[1] > 0.1
        with pytest.raises(ValueError, match="^a gate with a target holds a delay in seconds"):
            Gate(seq, target)
        assert Gate(seq).fit is None


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
            relative = [e for e in seq if isinstance(e, Delay) and old_j_fraction(e.duration)]
            assert seq.j_delay is (relative[0] if relative else None)
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

    def test_elements_hash_their_fields_and_only_a_program_stores_its_hash(self, recorded):
        # An element's hash is the dataclass's own, of its fields tuple, and it stores only its
        # derived value; a program, the simulation memo's key, keeps the hash of its elements.
        programs = library_and_protocol_programs()
        for seq in programs:
            for e in seq:
                assert hash(e) == hash(dataclasses.astuple(e))
                assert set(vars(e)) - {f.name for f in dataclasses.fields(e)} <= {"angle_rad", "j_fraction"}
            assert hash(seq) == hash(seq.elements)
        hashed = recorded(*[(cls, "__hash__") for cls in (Rf, Delay, Gradient)])
        assert [hash(seq) for seq in programs] and hashed == []

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

    def test_a_hashed_program_loads_under_another_hash_seed(self):
        dumped = run_python(PICKLE_PROGRAM + """
for v in values:
    hash(v)
sys.stdout.buffer.write(pickle.dumps(values))
""", seed="1")
        report = run_python(PICKLE_PROGRAM + """
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
        assert loaded == seq and loaded.segments == seq.segments and loaded.j_delay == seq.j_delay
        rf = pickle.loads(pickle.dumps(Rf(2, "x", "0.25")))
        assert rf.angle_rad == 0.25
        # A payload that names a bad field value fails where the constructor would.
        bad = pickle.dumps(Rf(2, "x", "0.25")).replace(b"0.25", b"nan!")
        with pytest.raises(ValueError, match="nan!"):
            pickle.loads(bad)

    def test_a_loaded_state_is_checked_frozen_and_read_out_again(self, monkeypatch):
        rho = simulate_sequence(protocol_sequence(2, 3), equilibrium_state())
        spectrum = predict_spectrum(rho, 1)
        fingerprint = spectrum_fingerprint(rho)
        loaded = pickle.loads(pickle.dumps(rho))
        assert loaded.entries.tobytes() == rho.entries.tobytes()
        assert not loaded.entries.flags.writeable
        # None of the read-out stored on rho (amplitudes, lines, fingerprint) travels with it.
        assert set(vars(loaded)) == {"entries"}
        assert predict_spectrum(loaded, 1) == spectrum
        assert spectrum_fingerprint(loaded) == fingerprint and spectrum_fingerprint(loaded) is not fingerprint

        class Forged:
            def __reduce__(self):
                return DeviationMatrix, (np.eye(4),)

        with pytest.raises(ValueError, match="deviation matrix must have trace 0"):
            pickle.loads(pickle.dumps(Forged()))


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
