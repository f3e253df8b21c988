"""One benchmark worker: set up a workload, warm up, then time its operations.

Started by run.py, one process per workload at a time, with the package's
``src`` directory on PYTHONPATH. The worker runs whole cycles of operations
in a closed loop (one client, the next call starts when the previous one has
been checked) until ``--seconds`` have passed, and writes one JSON file:
per-operation ``[kind, latency_s, ok]`` rows, the length of the timed
window, set-up time, peak RSS and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy

from workloads import WORKLOADS, workload_rng


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before the parent started this process")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True, help="result JSON file")
    args = parser.parse_args()

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    next_cycle = WORKLOADS[args.workload](work_dir, workload_rng(args.workload, args.seed))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ops: list[list] = []
    errors: list[str] = []

    def run_cycle() -> None:
        for op in next_cycle():
            start = time.perf_counter()
            if tracer is not None:
                tracer.begin_op(len(ops))
            try:
                result = op.run()
            except Exception as exc:  # a raising call is a failed operation
                result = exc
            if tracer is not None:
                tracer.end_op()
            latency = time.perf_counter() - start
            try:
                ok = not isinstance(result, Exception) and bool(op.check(result))
            except Exception as exc:  # so is output the check cannot read
                result, ok = exc, False
            op.cleanup()
            if not ok and len(errors) < 5:
                errors.append(f"{op.kind} [{op.inputs}]: {result!r}")
            ops.append([op.kind, latency, ok])

    run_cycle()  # warm-up: fills caches and finishes lazy set-up, untimed
    ops.clear()
    errors.clear()
    if tracer is not None:
        tracer.reset()

    setup_s = time.monotonic() - args.t0
    start = time.perf_counter()
    while True:
        run_cycle()
        if time.perf_counter() - start >= args.seconds:
            break
    window_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "window_s": window_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "ops": ops,
        "errors": errors,
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["distinct"] = tracer.distinct
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
