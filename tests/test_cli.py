import os
import subprocess
import sys
from pathlib import Path

import pytest

import densegrover
from densegrover import nmr, qstate
from densegrover.cli import TABLE2_Y_REFERENCE, main
from densegrover.nmr import gate_library, parse_sequence

SRC_DIR = Path(densegrover.__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"

# The benchmark's byte-stable golden outputs, each with the command that
# prints it.  verify_all.txt is left out: its prep deviation is rounding
# residue near 1e-16, which the benchmark compares within a tolerance.
GOLDEN_COMMANDS = {
    "compile_pseudo-pure-prep": ("compile", "pseudo-pure-prep"),
    "run_2_y_2_trace": ("run", "2", "y", "2", "--trace"),
    "run_ancilla_7": ("run", "--ancilla", "7"),
    "spectra_uu": ("spectra", "uu"),
    "spectra_ud": ("spectra", "ud"),
    "spectra_du": ("spectra", "du"),
    "spectra_dd": ("spectra", "dd"),
    "tables_1_x": ("tables", "1", "x"),
    "tables_2_y": ("tables", "2", "y"),
}

UU_REFERENCE_CSV = (
    "spin,line_label,offset_hz,amp_real,amp_imag\n"
    "1,partner_up,107.5,1,0\n"
    "1,partner_down,-107.5,0,0\n"
    "2,partner_up,107.5,1,0\n"
    "2,partner_down,-107.5,0,0\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def expect_usage_error(capsys, *argv):
    """Exit 2; returns what the command wrote to stdout and stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr()


def has_unitary(name):
    try:
        nmr.ideal_gate_unitary(name)
    except ValueError:
        return False
    return True


class TestTables:
    @pytest.mark.parametrize("table", ["1", "2"])
    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_all_tables_match_reference(self, capsys, table, kind):
        code, out, _ = run_cli(capsys, "tables", table, kind)
        assert code == 0
        assert "ok: matches the reference table" in out

    def test_classification_table_rows(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "1", "y")
        assert "G1" in out and "G4" in out
        assert "|ψ1>" in out
        assert "(|ψ2>-|ψ3>)/√2" in out or "(|ψ2>+|ψ3>)/√2" in out

    def test_x_kind_shows_complex_superpositions(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "1", "x")
        assert "(|ψ2>+i|ψ4>)/√2" in out
        assert "(|ψ2>-i|ψ4>)/√2" in out

    def test_outcome_grid_contents(self, capsys):
        _, out, _ = run_cli(capsys, "tables", "2", "y")
        lines = out.splitlines()
        v1 = next(l for l in lines if l.startswith("V1"))
        v4 = next(l for l in lines if l.startswith("V4"))
        assert v1.split()[1:] == ["|↑↑>"] * 4
        assert v4.split()[1:] == ["|↓↓>"] * 4

    def test_bad_arguments(self, capsys):
        expect_usage_error(capsys, "tables", "3", "y")
        expect_usage_error(capsys, "tables", "1", "z")


class TestRun:
    def test_published_outcome(self, capsys):
        code, out, _ = run_cli(capsys, "run", "2", "y", "2")
        assert code == 0
        assert "output: |↓↑>" in out
        assert "decoded message: 2" in out
        assert "applies V3" in out

    def test_identity_message(self, capsys):
        code, out, _ = run_cli(capsys, "run", "1", "y", "0")
        assert code == 0
        assert "output: |↑↑>" in out
        assert "decoded message: 0" in out

    def test_all_messages_round_trip(self, capsys):
        for preset in "1234":
            for kind in "xy":
                for message in "0123":
                    code, out, _ = run_cli(capsys, "run", preset, kind, message)
                    assert code == 0
                    assert f"decoded message: {message}" in out

    def test_trace_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", "2", "y", "2", "--trace")
        assert code == 0
        assert "starting state:" in out
        assert "encoded state:" in out
        assert "output probabilities:" in out
        assert "du 1.000000" in out

    def test_ancilla_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--ancilla", "7")
        assert code == 0
        assert "ancilla bit: 1 (x set)" in out
        assert "encoder: V4" in out
        assert "decoded message: 7" in out
        for value in range(8):
            code, out, _ = run_cli(capsys, "run", "--ancilla", str(value))
            assert code == 0
            assert f"decoded message: {value}" in out

    def test_usage_errors(self, capsys):
        # Most of these are argparse's to report, in wording that differs
        # between Python versions; only the exit status and silence count.
        for argv in [("5", "y", "0"), ("1", "z", "0"), ("1", "y", "7"), ("1", "y"),
                     ("--ancilla", "8"), ("--ancilla", "1", "2", "y", "0"),
                     ("x", "y", "0"), ("1", "y", "0", "extra"), ("--ancilla", "x")]:
            assert expect_usage_error(capsys, "run", *argv).out == "", argv

    def test_message_numbering_documented_in_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "0-based" in out


class TestVerify:
    def test_single_gate(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "I_t")
        assert code == 0
        assert out.startswith("I_t")
        assert " ok" in out
        assert "-1.000000i" in out

    def test_all_gates(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 14
        assert all(" ok" in line for line in lines)
        assert any(line.startswith("pseudo-pure-prep") for line in lines)

    def test_all_lists_the_registry_unitary_gates_and_prep(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--all")
        names = [line.split()[0] for line in out.splitlines()]
        assert names == [name for name in nmr.GATES if has_unitary(name)] + ["pseudo-pure-prep"]

    def test_failed_gate_reported(self, capsys, monkeypatch):
        gates = nmr.GATES
        monkeypatch.setitem(gates, "V2", nmr.Gate(gates["V3"].pulses, gates["V2"].ideal))
        code, out, _ = run_cli(capsys, "verify", "V2")
        assert code == 1
        assert out.splitlines()[0].split()[:3] == ["V2", "FAIL", "distance"]
        assert out.splitlines()[1] == "1 gate(s) failed verification"

    def test_prep_is_bounded_by_the_verify_tolerance(self, capsys, monkeypatch):
        # No relative deviation or distance is below 0, so a zero bound fails
        # the prep and the unitary gates alike.
        monkeypatch.setattr(qstate, "VERIFY_TOL", 0.0)
        for name in ("pseudo-pure-prep", "I_t"):
            code, out, _ = run_cli(capsys, "verify", name)
            assert code == 1
            assert out.splitlines()[0].split()[:2] == [name, "FAIL"]

    def test_usage_errors(self, capsys):
        for argv in [("bogus",), (), ("I_t", "--all"), ("readout-carbon",)]:
            assert expect_usage_error(capsys, "verify", *argv).out == "", argv


class TestSpectra:
    def test_reference_state(self, capsys):
        code, out, _ = run_cli(capsys, "spectra", "uu")
        assert code == 0
        assert out == UU_REFERENCE_CSV

    def test_protocol_csv_identical_to_ideal_state(self, capsys):
        _, ideal_ud, _ = run_cli(capsys, "spectra", "ud")
        code, protocol_ud, _ = run_cli(capsys, "spectra", "--protocol", "2", "1")
        assert code == 0
        assert protocol_ud == ideal_ud

        _, ideal_du, _ = run_cli(capsys, "spectra", "du")
        code, protocol_du, _ = run_cli(capsys, "spectra", "--protocol", "1", "1")
        assert code == 0
        assert protocol_du == ideal_du

    def test_all_protocol_runs_emit_basis_spectra(self, capsys):
        basis_csv = {}
        for state in ("uu", "ud", "du", "dd"):
            _, out, _ = run_cli(capsys, "spectra", state)
            basis_csv[state] = out
        assert len(set(basis_csv.values())) == 4
        for preset in (1, 2, 3, 4):
            for message in (0, 1, 2, 3):
                _, out, _ = run_cli(
                    capsys, "spectra", "--protocol", str(preset), str(message)
                )
                assert out in basis_csv.values()

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "lines.csv"
        code, out, _ = run_cli(capsys, "spectra", "uu", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == UU_REFERENCE_CSV

    def test_unwritable_output_reports_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "lines.csv"
        code, out, err = run_cli(capsys, "spectra", "uu", "--output", str(target))
        assert code == 1
        assert str(target) in err

    def test_usage_errors(self, capsys):
        for argv in [(), ("uu", "--protocol", "1", "1"), ("xx",),
                     ("--protocol", "5", "0"), ("--protocol", "1", "4")]:
            assert expect_usage_error(capsys, "spectra", *argv).out == "", argv

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_csv_number_rejected(self, value, capsys, monkeypatch):
        monkeypatch.setattr(nmr, "predict_spectrum", lambda *args: [nmr.SpectrumLine(1, "partner_up", value, 1j)])
        assert "non-finite CSV value" in expect_usage_error(capsys, "spectra", "uu").err

    def test_non_finite_amplitude_is_a_one_line_usage_error(self, capsys, monkeypatch):
        def nan_lines(rho, spin, consts=nmr.DEFAULT_CONSTANTS):
            return [nmr.SpectrumLine(spin, "partner_up", 107.5, complex(float("nan"), 0.0))]

        monkeypatch.setattr(nmr, "predict_spectrum", nan_lines)
        err = expect_usage_error(capsys, "spectra", "uu").err
        assert "non-finite" in err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("densegrover spectra: error:")


class TestCompile:
    def test_single_hard_pulse(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "U3")
        assert code == 0
        assert out == "rf both y pi/4\n"

    @pytest.mark.parametrize("gate, text", [
        ("U1", "rf 1 y pi/4\nrf 2 y 3pi/4\n"),
        ("U2", "rf 1 y pi/4\nrf 2 y -3pi/4\n"),
        ("U3", "rf both y pi/4\n"),
        ("U4", "rf 1 y pi/4\nrf 2 y -pi/4\n"),
        ("U1-inv", "rf 2 y -3pi/4\nrf 1 y -pi/4\n"),
        ("U2-inv", "rf 2 y 3pi/4\nrf 1 y -pi/4\n"),
        ("U3-inv", "rf both y -pi/4\n"),
        ("U4-inv", "rf 2 y pi/4\nrf 1 y -pi/4\n"),
    ])
    def test_u_gate_pulse_text(self, capsys, gate, text):
        code, out, _ = run_cli(capsys, "compile", gate)
        assert code == 0
        assert out == text

    def test_round_trip_through_parser(self, capsys):
        for name in ("U1", "I_s", "V2", "pseudo-pure-prep", "readout-proton"):
            code, out, _ = run_cli(capsys, "compile", name)
            assert code == 0
            assert parse_sequence(out) == gate_library(name)

    def test_unknown_gate(self, capsys):
        expect_usage_error(capsys, "compile", "Q7")

    def test_unknown_gate_lists_the_registry(self, capsys):
        err = expect_usage_error(capsys, "compile", "Q7").err
        assert err.splitlines()[-1].endswith("known gates: " + ", ".join(nmr.GATES))
        assert set(nmr.GATES) >= {"U1-inv", "pseudo-pure-prep", "readout-proton"}


class TestConstantsFile:
    def write(self, tmp_path, text):
        path = tmp_path / "constants.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_override_moves_lines(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            "nu1_hz = 125.76e6\n"
            "nu2_hz = 500.13e6\n"
            "j_hz = 430  # doubled coupling\n"
            "gamma_ratio = 3.9768606870229006\n",
        )
        code, out, _ = run_cli(capsys, "spectra", "uu", "--constants", path)
        assert code == 0
        assert "1,partner_up,215,1,0" in out
        assert "1,partner_down,-215,0,0" in out

    def test_verify_with_override(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            "nu1_hz=100e6\nnu2_hz=400e6\nj_hz=100\ngamma_ratio=4.0\n",
        )
        code, out, _ = run_cli(capsys, "verify", "--all", "--constants", path)
        assert code == 0

    def test_missing_key_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "nu1_hz=125.76e6\nnu2_hz=500.13e6\nj_hz=215\n")
        expect_usage_error(capsys, "verify", "I_t", "--constants", path)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            "nu1_hz=1e6\nnu2_hz=4e6\nj_hz=215\ngamma_ratio=4\nfield_tesla=11.7\n",
        )
        expect_usage_error(capsys, "compile", "U1", "--constants", path)

    def test_bad_number_rejected(self, capsys, tmp_path):
        path = self.write(
            tmp_path, "nu1_hz=fast\nnu2_hz=4e6\nj_hz=215\ngamma_ratio=4\n"
        )
        expect_usage_error(capsys, "spectra", "uu", "--constants", path)

    def test_duplicate_key_rejected_with_its_line(self, capsys, tmp_path):
        path = self.write(
            tmp_path, "nu1_hz=125.76e6\nnu2_hz=500.13e6\nj_hz=140.5\ngamma_ratio=4\nj_hz=0\n"
        )
        err = expect_usage_error(
            capsys, "spectra", "--protocol", "1", "0", "--constants", path).err
        assert err.splitlines()[-1].endswith(f"{path}: line 5: duplicate key j_hz")

    def test_unreadable_file_rejected(self, capsys, tmp_path):
        expect_usage_error(
            capsys, "spectra", "uu", "--constants", str(tmp_path / "nope.txt")
        )

    def write_override(self, tmp_path, change):
        values = {"nu1_hz": "125.76e6", "nu2_hz": "500.13e6", "j_hz": "215",
                  "gamma_ratio": "3.9768606870229006"}
        key, value = change.split("=")
        values[key] = value
        return self.write(tmp_path, "".join(f"{k}={v}\n" for k, v in values.items()))

    @pytest.mark.parametrize("change", ["j_hz=0", "j_hz=inf", "j_hz=nan", "gamma_ratio=0.4"])
    @pytest.mark.parametrize("command", [("verify", "--all"), ("spectra", "--protocol", "1", "0")])
    def test_out_of_domain_constants_are_usage_errors(self, capsys, tmp_path, change, command):
        path = self.write_override(tmp_path, change)
        err = expect_usage_error(capsys, *command, "--constants", path).err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"densegrover {command[0]}: error: ")
        assert change.split("=")[0] in err.splitlines()[-1]

    @pytest.mark.parametrize("change, unrealizable", [
        ("j_hz=0", {"I_t", "I_s", "pseudo-pure-prep"}),
        ("gamma_ratio=0.4", {"pseudo-pure-prep"}),
    ])
    def test_verify_all_reports_every_gate_before_the_usage_error(
            self, capsys, tmp_path, change, unrealizable):
        path = self.write_override(tmp_path, change)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--all", "--constants", path])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        rows = [line.split(maxsplit=2) for line in captured.out.splitlines()]
        assert [row[0] for row in rows] == (
            [name for name in nmr.GATES if has_unitary(name)] + ["pseudo-pure-prep"])
        assert {row[0] for row in rows if row[1] == "n/a"} == unrealizable
        assert all(row[1] == "ok" for row in rows if row[0] not in unrealizable)
        reasons = {row[2] for row in rows if row[1] == "n/a"}
        assert all(reason.startswith("cannot be realized: ") for reason in reasons)
        error = captured.err.splitlines()[-1]
        assert error.startswith("densegrover verify: error: ")
        assert "cannot be realized: " + error.removeprefix("densegrover verify: error: ") in reasons

    @pytest.mark.parametrize("change", ["j_hz=0", "j_hz=inf"])
    def test_out_of_domain_constants_exit_2_in_a_process(self, tmp_path, change):
        path = self.write_override(tmp_path, change)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "densegrover.cli", "spectra", "--protocol", "1", "0",
             "--constants", path],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        # The subcommand's usage (wrapped to the terminal width), then one error line.
        first, *wrapped, error = proc.stderr.splitlines()
        assert first.startswith("usage: densegrover spectra ")
        assert all(line.startswith(" ") for line in wrapped)
        assert error.startswith("densegrover spectra: error: ")


@pytest.mark.parametrize("argv", [
    ("run", "1", "y"),  # run's positionals
    ("spectra", "--protocol", "5", "0"),  # a --protocol value out of range
    ("verify", "bogus"),  # verify's gate name
    ("compile", "U1", "--constants", "{missing}"),  # the constants file
    ("compile", "bogus"),  # a library ValueError
    ("run", "2", "--trace", "y", "2"),  # arguments after an option
    ("tables", "1", "y", "extra"),  # an argument the subcommand does not take
    ("run", "--bogus", "2", "y", "2"),  # an option the subcommand does not take
])
def test_hand_written_errors_print_the_subcommand_usage(capsys, tmp_path, argv):
    argv = [arg.format(missing=tmp_path / "nope.txt") for arg in argv]
    captured = expect_usage_error(capsys, *argv)
    assert captured.out == ""
    assert captured.err.startswith(f"usage: densegrover {argv[0]} ")
    assert captured.err.splitlines()[-1].startswith(f"densegrover {argv[0]}: error: ")


def test_top_level_option_is_reported_by_the_top_level_parser(capsys):
    captured = expect_usage_error(capsys, "--bogus", "run", "2", "y", "2")
    assert captured.out == ""
    assert captured.err.startswith("usage: densegrover [-h] ")
    assert captured.err.splitlines()[-1] == "densegrover: error: unrecognized arguments: --bogus"


def golden(stem: str) -> str:
    return (GOLDEN_DIR / f"{stem}.txt").read_text(encoding="utf-8")


class TestGolden:
    def test_every_golden_file_but_verify_all_is_compared(self):
        stems = {path.stem for path in GOLDEN_DIR.glob("*.txt")}
        assert stems == set(GOLDEN_COMMANDS) | {"verify_all"}

    @pytest.mark.parametrize("stem", sorted(GOLDEN_COMMANDS))
    def test_stdout_is_the_golden_file(self, capsys, stem):
        code, out, _ = run_cli(capsys, *GOLDEN_COMMANDS[stem])
        assert code == 0
        assert out == golden(stem)

    @pytest.mark.parametrize("message", range(4))
    @pytest.mark.parametrize("preset", range(1, 5))
    def test_protocol_csv_is_the_golden_csv_of_its_table_state(self, capsys, preset, message):
        code, out, _ = run_cli(capsys, "spectra", "--protocol", str(preset), str(message))
        assert code == 0
        assert out == golden("spectra_" + TABLE2_Y_REFERENCE[(preset, message + 1)])


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("tables", "1", "y"),
            ("tables", "2", "x"),
            ("run", "2", "y", "2", "--trace"),
            ("verify", "--all"),
            ("spectra", "--protocol", "3", "2"),
            ("compile", "pseudo-pure-prep"),
        ],
    )
    def test_repeat_invocations_are_byte_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
