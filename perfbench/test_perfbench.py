"""Self-tests of the benchmark: its checks, its inputs and its tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from trifmcw import experiments  # noqa: E402
from trifmcw.experiments import AssertionResult  # noqa: E402
from trifmcw.spectrum import PeakSet  # noqa: E402


def first_op(name: str, work_dir: Path, seed: int = 1) -> workloads.Op:
    return workloads.WORKLOADS[name](work_dir, workloads.workload_rng(name, seed))()[0]


def flip_byte(path: Path, index: int) -> None:
    data = bytearray(path.read_bytes())
    data[index] ^= 0x01
    path.write_bytes(bytes(data))


def test_replay_check_rejects_a_flipped_byte(tmp_path):
    op = first_op("replay", tmp_path)
    code = op.run()
    assert op.check(code)
    profile = tmp_path / "out" / "profile.csv"
    flip_byte(profile, profile.stat().st_size // 2)
    assert not op.check(code)
    op.cleanup()
    assert not op.check(code)  # no profile written at all


def test_large_check_rejects_a_missing_tap_bin(tmp_path):
    taps = workloads.large_taps(workloads.workload_rng("large_scn", 1))
    path = tmp_path / "large.scn"
    path.write_text(workloads.scn_text("large", taps))
    report = workloads.run_large(path)
    true_ps = [p for p, _ in taps]
    assert workloads.check_large(report, true_ps)
    triangle = next(m for m in report.methods if m.method == "triangle")
    triangle.peaks = PeakSet(tuple(pk for pk in triangle.peaks if pk.bin_p != true_ps[0]))
    assert not workloads.check_large(report, true_ps)


def test_capture_check_rejects_a_fail_report(tmp_path):
    op = first_op("capture", tmp_path)
    code = op.run()
    assert op.check(code)
    assert not op.check(3)
    report = tmp_path / "out" / "report.txt"
    report.write_text(report.read_text().replace("RESULT: PASS", "RESULT: FAIL"))
    assert not op.check(code)


def test_desk_check_rejects_a_failed_assertion():
    report = experiments.run_four_path(seed=5)
    assert workloads.check_desk(report)
    report.assertions.append(AssertionResult("AC-1", "forced", False, "0", "1"))
    assert not workloads.check_desk(report)


def cycles(name: str, work_dir: Path, seed: int, count: int) -> list[tuple[str, str]]:
    work_dir.mkdir(parents=True)
    next_cycle = workloads.WORKLOADS[name](work_dir, workloads.workload_rng(name, seed))
    return [(op.kind, op.inputs) for _ in range(count) for op in next_cycle()]


def test_a_second_seed_changes_the_inputs_but_not_the_mix(tmp_path):
    for name in workloads.WORKLOADS:
        one = cycles(name, tmp_path / name / "1", 1, 2)
        again = cycles(name, tmp_path / name / "1b", 1, 2)
        two = cycles(name, tmp_path / name / "2", 2, 2)
        assert one == again, name
        assert [kind for kind, _ in one] == [kind for kind, _ in two], name
        assert [inputs for _, inputs in one] != [inputs for _, inputs in two], name


def test_traced_spans_nest_and_self_times_fit_the_operation(tmp_path):
    originals = [getattr(owner, attr) for owner, attr, _, _ in TARGETS]
    ops = [first_op("capture", tmp_path), first_op("desk_scenarios", tmp_path)]
    tracer = Tracer()
    tracer.install()
    rows = []
    try:
        for index, op in enumerate(ops):
            start = time.perf_counter()
            tracer.begin_op(index)
            result = op.run()
            tracer.end_op()
            rows.append([op.kind, time.perf_counter() - start, op.check(result)])
            op.cleanup()
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _, _ in TARGETS] == originals
    assert all(ok for _, _, ok in rows)

    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "experiments.run", "experiments.write_outputs", "csvio.write",
            "waveform.generate", "spectrum.detect_peaks"} <= names
    stats = spans.SpanStats()
    stats.add(tracer.spans, rows, tracer.distinct)
    assert stats.nesting_errors == 0
    metrics = stats.per_op(overhead_ratio=1.0)
    assert set(metrics) == set(spans.PER_LAYER)
    # four_path's merged_pair repeats two -3 dB detect_peaks calls.
    assert metrics["spectrum.detect_peaks.distinct_ratio"] < 1.0


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOAD_NAMES
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
