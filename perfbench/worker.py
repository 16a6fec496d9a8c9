"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is everything from the first line of this file to the first
timed operation: importing the program, building the workload's
references and one untimed, checked warm-up cycle.  Then the worker
either measures whole cycles of the workload until `--seconds` have
passed (`--trace 0`), or alternates untraced and traced passes over a
fixed list of operations (`--trace 1`).  It prints one JSON object.
`perfbench/run.py` starts it with the environment the benchmark needs.

Host speed.  On a shared host the speed of this process drifts by a
third over minutes, as other tenants come and go; that is more than the
regressions the bounds must catch.  So the end-to-end times are taken
against a control that never calls the program, timed at every cycle
boundary: a fixed kernel of interpreter and small-numpy work for
in-process workloads, and the start of a bare interpreter importing
numpy for workloads that start a process per operation.  Each cycle's
times are scaled by the control's reference time over the median of
the six control times around the cycle.  The times are thus reported at
a fixed reference host speed, and a change in the program moves them
one for one.  The unscaled values are reported too.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from itertools import islice  # noqa: E402

import densegrover.cli  # noqa: E402

_IMPORT_S = perf_counter() - _STARTED

import numpy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# About the controls' times on an idle 2-vCPU Xeon VM with Python 3.11
# and numpy 2.4; they only fix the unit, parent and change share them.
KERNEL_REFERENCE_S = 1.0e-3
START_REFERENCE_S = 0.1
_ROT = numpy.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
_I2 = numpy.eye(2, dtype=complex)
_I4 = numpy.eye(4, dtype=complex)


def _kernel_once_s() -> float:
    t0 = perf_counter()
    m = _I4
    for _ in range(40):
        m = numpy.kron(_ROT, _I2) @ m
        float(numpy.abs(m @ m.conj().T - _I4).max())
    return perf_counter() - t0


def control_kernel_s() -> float:
    """Seconds the host takes for the fixed control kernel.

    The first call after other work runs cold (child processes evict
    this process from the CPU caches), so it is discarded.
    """
    _kernel_once_s()
    return statistics.median(_kernel_once_s() for _ in range(3))


def bare_start_s() -> float:
    """Seconds to start an interpreter that imports numpy and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True,
                   timeout=60)
    return perf_counter() - t0


def _run_op(workload, op, **kwargs):
    t0 = perf_counter()
    output = workload.outcome(op, **kwargs)
    return output, perf_counter() - t0


class Tally:
    """Outcome counts of checked operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, workload, op, output) -> bool:
        ok = workload.check(op, output)
        self.attempted += 1
        self.failed += not ok
        return ok


def _percentiles_us(latencies) -> tuple:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return deciles[4] * 1e6, deciles[8] * 1e6


def measure(workload, seed: int, seconds: float) -> dict:
    """Closed loop, one client, whole cycles until `seconds` have passed."""
    ops = workload.ops(random.Random(seed))
    tally = Tally()
    control, reference_s = ((bare_start_s, START_REFERENCE_S) if workload.spawns_processes
                            else (control_kernel_s, KERNEL_REFERENCE_S))
    controls = [control()]
    cycles = []  # (latencies, passed) per cycle
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        passed, latencies = 0, []
        for op in islice(ops, workload.cycle):
            output, elapsed = _run_op(workload, op)
            latencies.append(elapsed)
            passed += tally.add(workload, op, output)
        cycles.append((latencies, passed))
        controls.append(control())
    raw_latencies, latencies = [], []
    raw_rates, cycle_rates, raw_p90s, cycle_p90s, scales = [], [], [], [], []
    for i, (cycle, passed) in enumerate(cycles):
        # The median of the six control times around the cycle.
        scale = reference_s / statistics.median(controls[max(0, i - 2):i + 4])
        raw_latencies += cycle
        latencies += [t * scale for t in cycle]
        raw_rates.append(passed / sum(cycle))
        cycle_rates.append(passed / (sum(cycle) * scale))
        raw_p90s.append(_percentiles_us(cycle)[1])
        cycle_p90s.append(raw_p90s[-1] * scale)
        scales.append(scale)
    p50 = _percentiles_us(latencies)[0]
    raw_p50 = _percentiles_us(raw_latencies)[0]
    usage = resource.RUSAGE_CHILDREN if workload.spawns_processes else resource.RUSAGE_SELF
    return {
        "tally": tally,
        "metrics": {
            # Median over cycles of the fixed mix, so a burst of load from
            # elsewhere on the host moves a few cycles, not the result.
            "throughput_ops_s": (statistics.median(cycle_rates), "ops/s"),
            "latency_p50_us": (p50, "us"),
            # The p90 of each cycle's latencies, median over cycles, so a
            # few operations slowed by the host do not set it.
            "latency_p90_us": (statistics.median(cycle_p90s), "us"),
            "success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
            "peak_rss_mib": (resource.getrusage(usage).ru_maxrss / 1024.0, "MiB"),
        },
        "unscaled": {
            "throughput_ops_s": statistics.median(raw_rates),
            "latency_p50_us": raw_p50,
            "latency_p90_us": statistics.median(raw_p90s),
            "host_scale": statistics.median(scales),
        },
        "samples": len(latencies),
        "cycles": len(cycles),
    }


def _traced_pass(workload, ops, tally, trace, summaries) -> float:
    """Run `ops` once under the tracer; check outputs after uninstalling."""
    outputs = []
    busy = 0.0
    if workload.spawns_processes:
        for op in ops:
            output, elapsed = _run_op(workload, op, traced=True)
            busy += elapsed
            outputs.append(output)
            if isinstance(output, Exception) or output[0] != 0:
                continue  # the oracle counts it as failed
            child = json.loads(output[2].strip().splitlines()[-1])
            summaries.append(dict(child["trace"], wall_s=elapsed, import_s=child["import_s"]))
    else:
        trace.start_pass()
        trace.install()
        try:
            for i, op in enumerate(ops):
                sid = trace.begin_op(i)
                output, elapsed = _run_op(workload, op)
                trace.end_op(sid)
                busy += elapsed
                outputs.append(output)
        finally:
            trace.uninstall()
    for op, output in zip(ops, outputs):
        tally.add(workload, op, output)
    return busy


def traced(workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics per operation from traced passes over fixed ops."""
    ops = list(islice(workload.ops(random.Random(seed)), workload.trace_ops))
    tally = Tally()
    trace = tracing.Tracer()
    child_summaries = []
    untraced_s = traced_s = 0.0
    passes = 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        for op in ops:
            output, elapsed = _run_op(workload, op)
            untraced_s += elapsed
            tally.add(workload, op, output)
        traced_s += _traced_pass(workload, ops, tally, trace, child_summaries)
        passes += 1
    n_ops = passes * len(ops)
    if workload.spawns_processes:
        summary = tracing.merge_summaries(child_summaries)
        wall_s = sum(s["wall_s"] for s in child_summaries)
        import_ms = 1e3 * statistics.mean(s["import_s"] for s in child_summaries)
        startup_ms = 1e3 * (wall_s - summary["op_s"]) / n_ops
        op_s = wall_s
    else:
        summary = trace.summary()
        import_ms = 1e3 * _IMPORT_S
        startup_ms = 0.0
        op_s = summary["op_s"]
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0) / n_ops, "count")
        metrics[f"{name}.self_us"] = (1e6 * summary["self_s"].get(name, 0.0) / n_ops, "us")
    metrics["nmr.simulate_sequence.elements"] = (summary["elements"] / n_ops, "count")
    calls = summary["unitary_calls"]
    metrics["nmr.element_unitary.repeat_ratio"] = (
        summary["unitary_repeats"] / calls if calls else 0.0, "ratio")
    for layer in tracing.TRACED:
        layer_s = sum(v for k, v in summary["self_s"].items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = (layer_s / op_s, "ratio")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.startup_ms"] = (startup_ms, "ms")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return {"tally": tally, "metrics": metrics, "samples": n_ops, "cycles": passes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]()
    workload.warm_up(random.Random(args.seed))
    setup_s = perf_counter() - _STARTED
    scale = KERNEL_REFERENCE_S / control_kernel_s()
    setup = {"setup_s": setup_s * scale, "unscaled_setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    run = (traced if args.trace else measure)(workload, args.seed, args.seconds)
    tally = run["tally"]
    probes = workload.domain_probes(random.Random(args.seed))
    probe_misses = []
    for op in probes:
        output = workload.outcome(op)
        if not isinstance(output, ValueError):
            got = type(output).__name__ if isinstance(output, Exception) else "no exception"
            probe_misses.append(f"{dict(op)}: {got}")
    print(json.dumps({
        **setup,
        "unscaled": run.get("unscaled", {}),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "domain_probes": len(probes),
        "domain_probe_misses": probe_misses,
        "samples": run["samples"],
        "cycles": run["cycles"],
        "numpy": numpy.__version__,
        "program": densegrover.cli.__file__,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
