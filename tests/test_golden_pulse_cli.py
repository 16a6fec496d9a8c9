"""Byte-for-byte golden outputs of the pulse-level CLI commands.

Covers the 16 `spectra --protocol J M`, the 4 `spectra LABEL` and
`compile NAME` for every library gate but `pseudo-pure-prep`.  That
gate's program and `verify --all` print the repr of an arccos and
distances near 1e-16, whose last digits may vary with the numpy
version, so they are left out.  Each entry of golden/pulse_cli.json
holds a command's exit code and stdout.  To rewrite the file from the
current code, run `PYTHONPATH=src python tests/test_golden_pulse_cli.py`.
"""

import json
from pathlib import Path

import pytest

from densegrover.nmr import GATES
from test_golden_gate_cli import run_command

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "pulse_cli.json"

COMMANDS = (
    [f"spectra --protocol {j} {m}" for j in (1, 2, 3, 4) for m in range(4)]
    + [f"spectra {label}" for label in ("uu", "ud", "du", "dd")]
    + [f"compile {name}" for name in GATES if name != "pseudo-pure-prep"]
)


def load_golden():
    with open(GOLDEN_FILE, encoding="utf-8") as f:
        return json.load(f)


def test_golden_file_covers_every_command():
    assert list(load_golden()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_pulse_cli_output_matches_golden(command):
    assert run_command(command) == load_golden()[command]


if __name__ == "__main__":
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    with open(GOLDEN_FILE, "w", encoding="utf-8", newline="\n") as f:
        json.dump({c: run_command(c) for c in COMMANDS}, f, ensure_ascii=False, indent=1)
        f.write("\n")
