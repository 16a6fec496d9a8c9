"""densegrover benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the program in
`src/`.  Each workload runs in a fresh interpreter (`worker.py`), a
closed loop with one client on one thread; BLAS thread pools are held
to one thread.  With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` the per-layer metrics of a separate traced run.  Before the
result it prints the environment and a readable summary; the last line
of stdout is the result as one JSON object.

setup_s is the median over seven fresh interpreters (six set-up-only
probes and the measured one) of the time from interpreter start-up to
the first timed operation.  Times are scaled to a reference host speed
(see worker.py); the summary lines also give them unscaled.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("gate_protocol", "pulse_protocol", "pulse_verify_sweep", "cli_process")
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
SINGLE_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in SINGLE_THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args: list, env: dict) -> dict:
    done = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="densegrover benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for needed in ("__init__.py", "cli.py", "nmr.py"):
        if not (SRC / "densegrover" / needed).is_file():
            return fail(f"no program to measure: {SRC / 'densegrover' / needed} is missing")

    env = child_env()
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # Byte-compile the program once so no timed process pays for it.
        subprocess.run([sys.executable, "-c", "import densegrover.cli"], env=env, cwd=ROOT,
                       check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
        setups = []
        if not args.trace:
            setups = [run_worker(worker_args + ["--setup-only"], env)
                      for _ in range(SETUP_PROBES)]
        result = run_worker(worker_args, env)
    except (subprocess.SubprocessError, RuntimeError, ValueError, OSError) as exc:
        return fail(str(exc))
    program = Path(result["program"]).resolve()
    if SRC.resolve() not in program.parents:
        return fail(f"measured {program}, not the program in {SRC}")

    metrics = result["metrics"]
    unscaled = result["unscaled"]
    if not args.trace:
        setups.append(result)
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups),
                              "unit": "s"}
        unscaled["setup_s"] = statistics.median(s["unscaled_setup_s"] for s in setups)

    print(json.dumps({"env": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "loop": "closed, 1 client, 1 thread",
    }}))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload}: {attempted} ops attempted, {failed} failed, "
          f"failure_ratio {failed / attempted:.6f}, "
          f"{result['samples']} latency samples in {result['cycles']} "
          f"{'passes' if args.trace else 'cycles'}")
    if result["domain_probes"]:
        misses = result["domain_probe_misses"]
        print(f"  untimed out-of-domain probes: {result['domain_probes']}, "
              f"{len(misses)} did not raise ValueError")
        for miss in misses:
            print(f"    {miss}")
    for name, metric in sorted(metrics.items()):
        raw = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{raw}")
    if "host_scale" in unscaled:
        print(f"  host speed scale applied to times: {unscaled['host_scale']:.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
