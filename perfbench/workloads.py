"""Workloads of the trifmcw benchmark: inputs from a seed, operations, checks.

Every operation is one call into the public API of trifmcw. A workload is
set up once per worker process and then hands out cycles of operations.
Every cycle of a workload does the same work (later cycles only draw new
seeds where a seed changes gains, not sizes), and the worker stops only
between cycles, so every run measures the same mix of operations whatever
its length.

Each check is a plain function of an operation's output so the self-tests
can show that it rejects a corrupted one.
"""

from __future__ import annotations

import random
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from trifmcw import cli, experiments, scenario

SEED_RANGE = 2**31


@dataclass
class Op:
    """One timed call into trifmcw, with its untimed check and clean-up."""

    kind: str
    inputs: str  # what was generated from the seed, for the seed self-test
    run: Callable[[], object]
    check: Callable[[object], bool]
    cleanup: Callable[[], None] = lambda: None


Cycle = Callable[[], list[Op]]


# --- desk_scenarios --------------------------------------------------------

# four_path is the only seeded scenario, so each cycle runs it twice with two
# derived seeds. That also keeps the median and p90 of a run's latencies
# inside a cluster of like operations (four_path ~8 ms, sntr_sweep and
# non_integer ~17 ms, spacing_sweep ~47 ms on a 2-CPU x86 host) rather than
# on the gap between two clusters, where they would jump from run to run.
DESK_CYCLE = ("four_path", "four_path", "sntr_sweep", "non_integer", "spacing_sweep")


def check_desk(report) -> bool:
    return report.passed


def desk_scenarios(work_dir: Path, rng: random.Random) -> Cycle:
    def cycle() -> list[Op]:
        ops = []
        for name in DESK_CYCLE:
            seed = rng.randrange(1, SEED_RANGE)
            ops.append(Op(
                name,
                f"{name} seed={seed}",
                lambda name=name, seed=seed: experiments.run_named_scenario(name, seed),
                check_desk,
            ))
        return ops

    return cycle


# --- large_scn -------------------------------------------------------------

LARGE_FILES = 8
LARGE_BANDWIDTH_HZ = 48_000
LARGE_CHIRP_S = 1  # N = 2 * fs * Tc = 192,000 samples at fs = 2B
LARGE_MAX_P = 4_800
LARGE_MIN_GAP = 3  # bins between taps, so each tap keeps its own peak


def large_taps(rng: random.Random) -> list[tuple[int, float]]:
    """2 to 8 taps at distinct delay-grid indices p with real gains."""
    count = rng.randint(2, 8)
    ps: list[int] = []
    while len(ps) < count:
        p = rng.randint(1, LARGE_MAX_P)
        if all(abs(p - q) >= LARGE_MIN_GAP for q in ps):
            ps.append(p)
    return [(p, rng.uniform(0.5, 1.5)) for p in sorted(ps)]


def scn_text(name: str, taps: list[tuple[int, float]]) -> str:
    lines = [
        f"name = {name}",
        "methods = triangle,sawtooth",
        f"bandwidth = {LARGE_BANDWIDTH_HZ}",
        f"chirp = {LARGE_CHIRP_S}",
    ]
    for p, gain in taps:
        lines += ["", "[tap]", f"delay_p = {p}", f"gain_re = {gain!r}", "gain_im = 0"]
    return "\n".join(lines) + "\n"


def check_large(report, true_ps) -> bool:
    """Every true tap index appears among the triangle method's peak bins."""
    triangle = [m for m in report.methods if m.method == "triangle"]
    return len(triangle) == 1 and set(true_ps) <= set(triangle[0].peaks.bins)


def run_large(path: Path):
    cfg = scenario.parse_scenario(path)
    return experiments.run_custom(cfg)


def large_scn(work_dir: Path, rng: random.Random) -> Cycle:
    corpus = []
    for i in range(LARGE_FILES):
        taps = large_taps(rng)
        path = work_dir / f"large_{i}.scn"
        path.write_text(scn_text(f"large_{i}", taps))
        true_ps = [p for p, _ in taps]
        corpus.append(Op(
            "large_scn",
            f"{path.name} taps={taps}",
            lambda path=path: run_large(path),
            lambda report, true_ps=true_ps: check_large(report, true_ps),
        ))
    return lambda: corpus


# --- capture ---------------------------------------------------------------

# Two four_path runs per non_integer run, for the reason given at DESK_CYCLE:
# the median lands among the ~90 ms four_path runs and p90 among the ~370 ms
# non_integer ones.
CAPTURE_CYCLE = ("four_path", "four_path", "non_integer")


def check_capture(code, out_dir: Path) -> bool:
    report = out_dir / "report.txt"
    return (
        code == cli.EXIT_OK
        and report.is_file()
        and "RESULT: PASS" in report.read_text().splitlines()
    )


def capture(work_dir: Path, rng: random.Random) -> Cycle:
    out = work_dir / "out"

    def cycle() -> list[Op]:
        ops = []
        for name in CAPTURE_CYCLE:
            seed = rng.randrange(1, SEED_RANGE)
            argv = ["simulate", name, "--seed", str(seed), "--out", str(out)]
            ops.append(Op(
                f"simulate:{name}",
                f"{name} seed={seed}",
                lambda argv=argv: cli.main(argv),
                lambda code: check_capture(code, out),
                lambda: shutil.rmtree(out, ignore_errors=True),
            ))
        return ops

    return cycle


# --- replay ----------------------------------------------------------------


def check_replay(code, out_dir: Path, expected: bytes) -> bool:
    """The replayed profile is byte-identical to the simulation's."""
    profile = out_dir / "profile.csv"
    return code == cli.EXIT_OK and profile.is_file() and profile.read_bytes() == expected


def replay(work_dir: Path, rng: random.Random) -> Cycle:
    sim = work_dir / "sim"
    for name in ("four_path", "non_integer"):
        seed = rng.randrange(1, SEED_RANGE)
        code = cli.main(["simulate", name, "--seed", str(seed), "--out", str(sim / name)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"replay set-up: simulate {name} --seed {seed} exited {code}")
    out = work_dir / "out"
    ops = []
    for beat in sorted(sim.glob("*/beat_*.csv")):
        method = beat.stem.removeprefix("beat_")
        expected = (beat.parent / f"profile_{method}.csv").read_bytes()
        argv = ["profile", str(beat), "--out", str(out)]
        ops.append(Op(
            f"profile:{beat.parent.name}:{method}",
            f"{beat.parent.name}/{beat.name} crc32={zlib.crc32(beat.read_bytes()):08x}",
            lambda argv=argv: cli.main(argv),
            lambda code, expected=expected: check_replay(code, out, expected),
            lambda: shutil.rmtree(out, ignore_errors=True),
        ))
    return lambda: ops


WORKLOADS: dict[str, Callable[[Path, random.Random], Cycle]] = {
    "desk_scenarios": desk_scenarios,
    "large_scn": large_scn,
    "capture": capture,
    "replay": replay,
}


def workload_rng(workload: str, seed: int) -> random.Random:
    """The single source of a workload's inputs."""
    return random.Random(f"{workload}:{seed}")
