"""Run one `densegrover` command with the span tracer installed.

    python3 perfbench/cli_child.py ARGS...

Behaves like the `densegrover` console script on stdout and exit code.
After the command it writes one JSON line to stderr: the import time of
`densegrover.cli` and the tracer summary, whose root span is `main`.
"""

from time import perf_counter

_STARTED = perf_counter()

import densegrover.cli  # noqa: E402

_IMPORT_S = perf_counter() - _STARTED

import json  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    trace = tracing.Tracer()
    trace.install()
    try:
        sid = trace.begin_op(0)
        code = densegrover.cli.main(sys.argv[1:])
        trace.end_op(sid)
    finally:
        trace.uninstall()
    sys.stdout.flush()
    print(json.dumps({"import_s": _IMPORT_S, "trace": trace.summary()}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
