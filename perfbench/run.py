"""Benchmark of the trifmcw simulator: end-to-end metrics, or per-layer ones.

    python3 perfbench/run.py --workload capture --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one after another

A run of one workload starts WORKERS worker processes (worker.py) one after
another. Each sets the workload up from the seed, warms up with one cycle of
operations, then times whole cycles in a closed loop with one client for its
share of ``--seconds``; set-up time and memory are therefore measured
WORKERS times per run and reported as medians. No worker starts extra
threads.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics. With ``--trace 1`` every second worker is traced
(tracer.py) and the object holds the per-layer metrics, the untraced workers
giving the tracing overhead; the ROADMAP item-1 stage table is printed above
it. Lines starting with ``#`` are for people. Without ``--workload`` every
workload runs and the per-workload metrics are printed as one table.

The end-to-end metrics, for one workload:

* ops_per_s       operations completed per second of the timed windows
* latency_p50_ms  median wall time of one operation, failed ones included
* latency_p90_ms  90th percentile of the same samples
* pass_ratio      operations whose output passed its check / attempted,
                  fail_ratio = 1 - pass_ratio is printed in the table
* setup_s         from just before a worker process starts to its first
                  timed operation: interpreter start, imports, inputs and
                  warm-up
* peak_rss_mb     ru_maxrss of a worker process
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER, SpanStats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("desk_scenarios", "large_scn", "capture", "replay")
WORKERS = 3
TIME_LIMIT_S = 170.0  # per workload, set-up and every worker included

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def commit_id() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the checkout as it was
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workers(workload: str, seed: int, seconds: float, trace: bool) -> list[tuple[bool, dict]]:
    """Run the workers of one workload; returns (traced, result) per worker."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = worker_env()
    results = []
    try:
        for i in range(WORKERS):
            traced = trace and i % 2 == 1
            out = work / f"worker{i}.json"
            argv = [
                sys.executable, str(HERE / "worker.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds / WORKERS), "--trace", str(int(traced)),
                "--work-dir", str(work / f"worker{i}"), "--out", str(out),
            ]
            argv += ["--t0", repr(time.monotonic())]
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
            if proc.returncode != 0:
                raise BenchError(
                    f"{workload} worker {i} exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
                )
            results.append((traced, json.loads(out.read_text())))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: workers did not finish within {TIME_LIMIT_S:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return results


def end_to_end(results: list[tuple[bool, dict]]) -> dict[str, float]:
    ops = [op for _, r in results for op in r["ops"]]
    latencies_ms = [op[1] * 1e3 for op in ops]
    return {
        "ops_per_s": len(ops) / sum(r["window_s"] for _, r in results),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "pass_ratio": sum(1 for op in ops if op[2]) / len(ops),
        "setup_s": statistics.median(r["setup_s"] for _, r in results),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for _, r in results),
    }


def per_layer(results: list[tuple[bool, dict]]):
    """Per-layer metrics from the traced workers, and their span totals."""
    stats = SpanStats()
    mean_ms = {}
    for traced in (False, True):
        picked = [r for t, r in results if t == traced]
        latencies = [op[1] for r in picked for op in r["ops"]]
        mean_ms[traced] = statistics.fmean(latencies)
        if traced:
            for r in picked:
                stats.add(r.pop("spans"), r["ops"], r["distinct"])
    return stats.per_op(mean_ms[True] / mean_ms[False]), stats


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's result object, plus the lines printed above it."""
    results = run_workers(workload, seed, seconds, trace)
    ops = [op for _, r in results for op in r["ops"]]
    failed = sum(1 for op in ops if not op[2])
    notes = [f"{workload}: {len(ops)} operations, {failed} failed"]
    for _, r in results:
        notes += [f"failed: {e}" for e in r["errors"]]
    if trace:
        metrics, stats = per_layer(results)
        units = PER_LAYER
        correct = failed == 0 and stats.nesting_errors == 0
        notes.append(f"traced operations: {stats.ops}, span nesting errors: {stats.nesting_errors}")
        notes += stats.stage_table()
    else:
        metrics, stats = end_to_end(results), None
        units = END_TO_END
        correct = failed == 0
        notes.append(f"latency samples: {len(ops)}")
    return {
        "result": {
            "correct": correct,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "notes": notes,
        "numpy": results[0][1]["numpy"],
        "stats": stats,
    }


def environment(seed: int, seconds: float, trace: bool, numpy_version: str) -> str:
    return "env " + json.dumps({
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "workers": WORKERS,
        "trace": int(trace),
    })


def print_notes(lines) -> None:
    for line in lines:
        print(f"# {line}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> None:
    run = measure(workload, seed, seconds, trace)
    print_notes([environment(seed, seconds, trace, run["numpy"])] + run["notes"])
    for name, metric in run["result"]["metrics"].items():
        print(f"# {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(run["result"]), flush=True)


def run_all(seed: int, seconds: float, trace: bool) -> None:
    runs = {}
    for workload in WORKLOAD_NAMES:
        runs[workload] = measure(workload, seed, seconds, trace)
        print_notes(runs[workload]["notes"])
    print_notes([environment(seed, seconds, trace, runs[WORKLOAD_NAMES[0]]["numpy"])])

    units = dict(PER_LAYER) if trace else dict(END_TO_END, fail_ratio="ratio")
    table = [f"{'metric':<38} {'unit':<10}" + "".join(f"{w:>16}" for w in WORKLOAD_NAMES)]
    for name, unit in units.items():
        cells = []
        for workload in WORKLOAD_NAMES:
            result = runs[workload]["result"]
            if name == "fail_ratio":
                value = result["failed"] / result["attempted"]
            else:
                value = result["metrics"][name]["value"]
            cells.append(f"{value:>16.6g}")
        table.append(f"{name:<38} {unit:<10}" + "".join(cells))
    print_notes(table)
    if trace:
        combined = runs[WORKLOAD_NAMES[0]]["stats"]
        for workload in WORKLOAD_NAMES[1:]:
            combined.merge(runs[workload]["stats"])
        print_notes(["all workloads:"] + combined.stage_table())

    summary = {
        "correct": all(r["result"]["correct"] for r in runs.values()),
        "attempted": sum(r["result"]["attempted"] for r in runs.values()),
        "failed": sum(r["result"]["failed"] for r in runs.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, r in runs.items()
            for name, metric in r["result"]["metrics"].items()
        },
    }
    print(json.dumps(summary), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all of them in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="timed seconds per workload, split among the workers")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "trifmcw" / "__init__.py").is_file():
        print(f"run.py: no trifmcw sources under {ROOT / 'src'}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        if args.workload:
            run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            run_all(args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
