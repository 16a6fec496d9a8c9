"""Byte-for-byte golden outputs of the gate-level CLI commands.

Covers `tables {1,2} {x,y}`, all 32 `run J KIND M --trace` and all 8
`run --ancilla M --trace`.  Each entry of golden/gate_cli.json holds a
command's exit code and stdout.  To rewrite the file from the current
code, run `PYTHONPATH=src python tests/test_golden_gate_cli.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from densegrover.cli import main

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "gate_cli.json"

COMMANDS = (
    [f"tables {t} {kind}" for t in (1, 2) for kind in ("x", "y")]
    + [f"run {j} {kind} {m} --trace" for j in (1, 2, 3, 4) for kind in ("x", "y") for m in range(4)]
    + [f"run --ancilla {m} --trace" for m in range(8)]
)


def run_command(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return {"exit": code, "stdout": out.getvalue()}


def load_golden():
    with open(GOLDEN_FILE, encoding="utf-8") as f:
        return json.load(f)


def test_golden_file_covers_every_command():
    assert list(load_golden()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_gate_cli_output_matches_golden(command):
    assert run_command(command) == load_golden()[command]


if __name__ == "__main__":
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    with open(GOLDEN_FILE, "w", encoding="utf-8", newline="\n") as f:
        json.dump({c: run_command(c) for c in COMMANDS}, f, ensure_ascii=False, indent=1)
        f.write("\n")
