"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Every oracle accepts the program's outputs and rejects a corrupted
   copy of each, and a rejected output is counted as a failed op.
2. Two traced runs with the same seed report identical call counts,
   element counts and element_unitary.repeat_ratio on every workload.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from densegrover import coding, nmr  # noqa: E402
from densegrover.qstate import BasisLabel  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402


def _other_label(label):
    return BasisLabel.from_index((label.index + 1) % 4)


def corrupt(workload, op, output):
    """A wrong copy of a correct output of `op`."""
    if isinstance(workload, workloads.GateProtocol):
        kind = op[0]
        if kind == "run":
            return dataclasses.replace(output, output_label=_other_label(output.output_label))
        if kind == "ancilla":
            wrong = coding.AncillaMessage.from_value((op[1] + 1) % 8)
            return output._replace(recovered=wrong)
        if kind == "table1":
            return [dataclasses.replace(output[0], output=output[3].output), *output[1:]]
        grid = dict(output)
        grid[(1, 1)], grid[(1, 2)] = grid[(1, 2)], grid[(1, 1)]
        return grid
    if isinstance(workload, workloads.PulseProtocol):
        lines, fingerprint = output
        first = dataclasses.replace(lines[0], amplitude=lines[0].amplitude + 1e-6)
        return [first, *lines[1:]], fingerprint
    if isinstance(workload, workloads.PulseVerifySweep):
        checks, _ = output
        return checks, nmr.basis_pseudo_pure(BasisLabel.DD)
    returncode, stdout, stderr = output
    last_line = stdout.rstrip("\n").rfind("\n") + 1
    return returncode, stdout[:last_line], stderr


def test_oracles() -> None:
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        ops = list(islice(workload.ops(random.Random(3)), workload.cycle))
        good = worker.Tally()
        bad = worker.Tally()
        for op in ops:
            output = workload.outcome(op)
            assert good.add(workload, op, output), f"{name}: oracle rejected {op!r}"
            assert not bad.add(workload, op, corrupt(workload, op, output)), \
                f"{name}: oracle accepted a corrupted output of {op!r}"
        assert bad.failed == bad.attempted == len(ops), name
        print(f"ok   oracle {name}: {len(ops)} outputs accepted, {len(ops)} corruptions counted")
    sweep = workloads.PulseVerifySweep()

    def out_of_domain(op) -> bool:
        consts = dict(op)
        return consts["gamma_ratio"] < 0.5 or not 0.0 < consts["j_hz"] < math.inf

    # Timed operations stay in the domain; the untimed probes leave it.
    assert not any(map(out_of_domain, islice(sweep.ops(random.Random(3)), 64)))
    assert all(map(out_of_domain, sweep.domain_probes(random.Random(3))))
    assert workloads.same_text("distance 1.2e-16  phase -0.000000", "distance 0.0e+00  phase +0.000000")
    assert not workloads.same_text("scale 1.000000", "scale 0.500000")
    assert not workloads.same_text("|↑↓>", "|↓↑>")


def _traced_counts(name: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] == "count" or k.endswith("repeat_ratio")}


def test_counts_repeat() -> None:
    for name in workloads.WORKLOADS:
        first, second = _traced_counts(name, 11), _traced_counts(name, 11)
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        assert not differ, f"{name}: counts differ between runs: {differ}"
        print(f"ok   counts {name}: {len(first)} counts identical in two traced runs")


if __name__ == "__main__":
    np.seterr(all="ignore")
    test_oracles()
    test_counts_repeat()
    print("selftest passed")
