"""Scripted scenario runners emitting machine-checkable reports.

A built-in scenario other than the two sweeps is a set of channel variants
times a set of waveform specs, plus a table of check rows. One runner sends
every (channel, spec) pair through the waveform/channel/beat/profile
pipeline; each row, (description, method, check), maps one method's result
to (passed, measured, bound) and becomes one assertion keyed by the
acceptance-criterion id it implements. A custom ``.scn`` run goes through the
same runner with no rows. The two sweeps, which produce tables, keep their
own loops but not their own assertions: each of their checks, and a tapless
``.scn`` run's INFO line, is a (description, (passed, measured, bound)) row
too, so adding an assertion means adding one row in every runner. A built-in
pins its whole setup (band, sample rate, range mapping, threshold, sweep
size) and takes only a seed, and its reported band, chirp and sample rate
are read from a spec it ran; runners are deterministic given the seed, and
the CLI forwards their reports to disk.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import csvio
from .beat import mix
from .channel import ChannelModel, ChannelTap, apply_channel, check_seed, rayleigh_taps
from .scenario import ScenarioConfig, build_channel
from .spectrum import (
    DEFAULT_THRESHOLD_DB,
    PeakSet,
    RangeMapping,
    RangeProfile,
    detect_peaks,
    range_profile,
    sntr,
)
from .waveform import ComplexSignal, WaveformKind, WaveformSpec, generate

__all__ = [
    "AssertionResult",
    "MethodResult",
    "ExperimentReport",
    "run_four_path",
    "run_sntr_sweep",
    "run_non_integer",
    "run_spacing_sweep",
    "run_custom",
    "run_named_scenario",
    "write_outputs",
    "BUILTIN_SCENARIOS",
]

# Desk-scale constants shared by the built-in scenarios: an 8 kHz acoustic
# sweep, 0.1 s per chirp, propagation at the speed of sound, round-trip
# ranging. With fs = 2B the delay quantum 1/(2B) is exactly one sample. Each
# built-in's fs puts its echoes on the grid under DESK_MAPPING, so the
# mapping is fixed; `trifmcw profile` re-maps a written beat instead.
DESK_BANDWIDTH_HZ = 8_000.0
DESK_CHIRP_S = 0.1
DESK_MAPPING = RangeMapping()

FOUR_PATH_BINS = (48, 50, 56, 57)

# Threshold for structure-count comparisons between methods. The waveforms
# that fail to double the resolution scatter part of a target's energy into
# split/straddle lobes 4..8 dB below their dominant structure; counted at
# the default -12 dB listing threshold those artifacts would register as
# extra "paths". The comparison counts therefore use -3 dB, which keeps
# every dominant structure and drops the artifacts for all methods alike.
COMPARISON_THRESHOLD_DB = -3.0

ALT_PROCESSING_PLACEHOLDER = (
    "not implemented: the alternative triangle processing method has no "
    "reproducible published algorithm; no numbers are fabricated for it"
)


@dataclass(frozen=True)
class AssertionResult:
    ac_id: str
    description: str
    passed: bool
    measured: str
    bound: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.ac_id} {self.description} | "
            f"measured={self.measured} bound={self.bound}"
        )


@dataclass
class MethodResult:
    method: str
    beat: ComplexSignal
    profile: RangeProfile
    peaks: PeakSet
    metrics: dict


@dataclass
class ExperimentReport:
    scenario: str
    constants: dict
    ground_truth_ranges_m: tuple[float, ...]
    methods: list[MethodResult] = field(default_factory=list)
    assertions: list[AssertionResult] = field(default_factory=list)
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    degenerate: bool = False

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def _pipeline(
    spec: WaveformSpec, channel: ChannelModel, mapping: RangeMapping
) -> tuple[ComplexSignal, RangeProfile]:
    tx = generate(spec)
    # No name holds the received signal, so it is freed before the FFT.
    beat = mix(tx, apply_channel(tx, channel))
    return beat, range_profile(beat, mapping)


# An outcome is (passed, measured, bound); a check maps one method's result to one.
Outcome = tuple[bool, str, str]
Check = Callable[[MethodResult], Outcome]


def _constants(spec: WaveformSpec, **extra) -> dict:
    """A built-in's band, chirp and sample rate, read from a spec it ran, then its own keys."""
    return {
        "bandwidth_hz": spec.bandwidth_hz,
        "chirp_s": spec.chirp_duration_s,
        "sample_rate_hz": spec.sample_rate_hz,
        **extra,
    }


def _assert(
    report: ExperimentReport, ac_id: str, rows: Iterable[tuple[str, Outcome]]
) -> ExperimentReport:
    """Append one assertion under `ac_id` for each row (description, outcome)."""
    report.assertions.extend(AssertionResult(ac_id, d, *outcome) for d, outcome in rows)
    return report


def _run(
    report: ExperimentReport,
    specs: Iterable[WaveformSpec],
    channels: dict[str, ChannelModel],
    mapping: RangeMapping,
    threshold_db: float,
    ac_id: str = "",
    rows: Iterable[tuple[str, str, Check]] = (),
    extra_metrics: Callable[[MethodResult], dict] = lambda result: {},
) -> ExperimentReport:
    """Run every channel variant through every spec, then evaluate the rows.

    A method is named by its waveform kind plus its channel's key; methods
    are listed channel by channel in spec order, and their metrics start with
    the peaks, then the keys of `extra_metrics`. Each row (description,
    method, check) becomes one `_assert` row under `ac_id`.
    """
    for suffix, channel in channels.items():
        for spec in specs:
            beat, profile = _pipeline(spec, channel, mapping)
            peaks = detect_peaks(profile, threshold_db)
            metrics = {
                "peak_bins": list(peaks.bins),
                "peak_ranges_m": [pk.range_m for pk in peaks],
                "peak_count": len(peaks),
            }
            method = spec.kind.value + suffix
            result = MethodResult(method, beat, profile, peaks, metrics)
            metrics.update(extra_metrics(result))
            report.methods.append(result)
    by_method = {m.method: m for m in report.methods}
    return _assert(report, ac_id, ((d, check(by_method[m])) for d, m, check in rows))


def _unit_channel(delays) -> ChannelModel:
    return ChannelModel(tuple(ChannelTap(d, 1.0 + 0.0j) for d in delays))


def _real_clamped_gain(gain: complex, lo: float, hi: float) -> complex:
    """Real gain from a drawn complex one: clamped magnitude, positive sign.

    The real-part beat spectrum is only phase-coherent for real path gains;
    the quadrature component of a complex gain flips the real part's sign
    between the two chirp halves and splits the target's energy into odd
    sidebands. Baseband acoustic echoes have real reflection gains, which
    is what the random-gain variant models: Rayleigh-distributed magnitudes
    clamped so no path drops below the detection threshold.
    """
    return complex(min(max(abs(gain), lo), hi), 0.0)


def run_four_path(seed: int = 1) -> ExperimentReport:
    """Four close reflections; only the triangle pipeline resolves them all.

    Taps sit on the delay grid at p = 48, 50, 56, 57 (the last two only one
    doubled-resolution bin apart). A deterministic unit-gain variant and a
    seeded random-gain variant (magnitudes clamped to [0.5, 1.5] so no path
    vanishes) are both run through the triangle, sawtooth and gentle
    pipelines.
    """
    B = DESK_BANDWIDTH_HZ
    delays = [p / (2.0 * B) for p in FOUR_PATH_BINS]
    kinds = (WaveformKind.TRIANGLE, WaveformKind.SAWTOOTH, WaveformKind.GENTLE)
    specs = [WaveformSpec(kind, B, DESK_CHIRP_S) for kind in kinds]
    truth = tuple(DESK_MAPPING.delay_to_range(d) for d in delays)
    channels = {
        "_det": _unit_channel(delays),
        "_rayleigh": ChannelModel(
            tuple(
                ChannelTap(t.delay_s, _real_clamped_gain(t.gain, 0.5, 1.5))
                for t in rayleigh_taps(delays, seed).taps
            )
        ),
    }

    report = ExperimentReport(
        scenario="four_path",
        constants=_constants(
            specs[0],
            speed_mps=DESK_MAPPING.propagation_speed_mps,
            round_trip=True,
            seed=seed,
            true_bins=list(FOUR_PATH_BINS),
        ),
        ground_truth_ranges_m=truth,
        notes={"alt_triangle_processing": ALT_PROCESSING_PLACEHOLDER},
    )

    def dominant(result: MethodResult) -> dict:
        peaks = detect_peaks(result.profile, COMPARISON_THRESHOLD_DB)
        return {"dominant_bins": list(peaks.bins), "dominant_count": len(peaks)}

    def at_true_bins(result: MethodResult):
        bins = result.peaks.bins
        return bins == FOUR_PATH_BINS, str(list(bins)), str(list(FOUR_PATH_BINS))

    def at_most_three(result: MethodResult):
        count = result.metrics["dominant_count"]
        return count <= 3, str(count), "<= 3"

    def merges_close_pair(result: MethodResult):
        """Dominant peaks falling inside the window around the close pair."""
        spacing = result.profile.bin_spacing_m
        lo = truth[2] - 0.5 * spacing
        hi = truth[3] + 0.5 * spacing
        pair = sum(1 for b in result.metrics["dominant_bins"] if lo <= b * spacing <= hi)
        return pair <= 1, f"{pair} peak(s) within the close-pair window", "<= 1"

    rows = [
        ("deterministic triangle resolves all four paths at their bins",
         "triangle_det", at_true_bins),
        ("random-gain triangle resolves all four paths at their bins",
         "triangle_rayleigh", at_true_bins),
    ]
    for name in ("sawtooth", "gentle"):
        rows += [
            (f"deterministic {name} detects at most 3 dominant structures",
             f"{name}_det", at_most_three),
            (f"deterministic {name} merges the two closest paths",
             f"{name}_det", merges_close_pair),
        ]
    return _run(
        report, specs, channels, DESK_MAPPING, DEFAULT_THRESHOLD_DB, "AC-1", rows, dominant
    )


SNTR_SWEEP_POINTS = 40


def run_sntr_sweep() -> ExperimentReport:
    """Single-path delay sweep recording the transition-noise ratio.

    The delay runs over SNTR_SWEEP_POINTS points of the integer-p grid from
    one sample up to 45% of the chirp; each row is an independent single-tap
    run. The floor and monotonicity checks evaluate the 1%..40% span.
    """
    spec = WaveformSpec(WaveformKind.TRIANGLE, DESK_BANDWIDTH_HZ, DESK_CHIRP_S)
    n_c = spec.samples_per_chirp
    p_values = sorted(set(int(round(p)) for p in np.linspace(1, 0.45 * n_c, SNTR_SWEEP_POINTS)))

    rows = []
    for p in p_values:
        tau = p / (2.0 * DESK_BANDWIDTH_HZ)
        _, profile = _pipeline(spec, _unit_channel([tau]), DESK_MAPPING)
        rows.append((p / n_c, sntr(profile, p)))

    report = ExperimentReport(
        scenario="sntr_sweep",
        constants=_constants(spec, points=len(rows)),
        ground_truth_ranges_m=(),
        tables={"sntr_sweep": (("tau_over_tc", "sntr_db"), rows)},
    )

    window = [(x, s) for x, s in rows if 0.01 <= x <= 0.40]
    floor = min(s for _, s in window)
    worst_rise = max(
        (b - a for (_, a), (_, b) in zip(window, window[1:])), default=0.0
    )
    return _assert(report, "AC-5", [
        ("transition-noise ratio stays above the detectability floor",
         (floor >= -7.4, f"min {floor:.2f} dB over tau/Tc in [0.01, 0.40]", ">= -7.4 dB")),
        ("ratio is monotone non-increasing within 1 dB ripple",
         (worst_rise <= 1.0, f"largest rise {worst_rise:.2f} dB between consecutive points",
          "<= 1 dB")),
    ])


NON_INTEGER_RANGES_M = (0.059, 0.082)
NON_INTEGER_FS = 171_500.0  # smallest rate putting both echo delays on the grid


def run_non_integer(seed: int = 1) -> ExperimentReport:
    """Two reflections between delay-grid points; off-grid in p, on-grid in fs.

    Ranges of 5.9 cm and 8.2 cm correspond to p = 5.50 and p = 7.65: the
    phase-coherence condition is not met exactly, so range accuracy may
    degrade, but the triangle and extended pipelines must still separate
    the two paths. The conventional single-chirp pipeline must not.
    """
    delays = [DESK_MAPPING.range_to_delay(r) for r in NON_INTEGER_RANGES_M]
    kinds = (WaveformKind.LINEAR, WaveformKind.EXTENDED, WaveformKind.TRIANGLE)
    specs = [
        WaveformSpec(kind, DESK_BANDWIDTH_HZ, DESK_CHIRP_S, sample_rate_hz=NON_INTEGER_FS)
        for kind in kinds
    ]

    report = ExperimentReport(
        scenario="non_integer",
        constants=_constants(
            specs[0],
            speed_mps=DESK_MAPPING.propagation_speed_mps,
            round_trip=True,
            seed=seed,
            true_p=[2.0 * DESK_BANDWIDTH_HZ * d for d in delays],
        ),
        ground_truth_ranges_m=tuple(NON_INTEGER_RANGES_M),
    )

    def range_errors(result: MethodResult) -> dict:
        return {
            "per_peak_range_error_m": [
                min(abs(pk.range_m - r) for r in NON_INTEGER_RANGES_M)
                for pk in result.peaks
            ],
            "bin_spacing_m": result.profile.bin_spacing_m,
        }

    def max_error(result: MethodResult) -> float:
        return max(result.metrics["per_peak_range_error_m"], default=math.inf)

    def separates(result: MethodResult):
        count = len(result.peaks)
        return count == 2, f"{count} peaks", "exactly 2"

    def within_one_bin(result: MethodResult):
        error, spacing = max_error(result), result.profile.bin_spacing_m
        return (
            error <= spacing,
            f"max error {error * 100:.3f} cm",
            f"<= {spacing * 100:.3f} cm",
        )

    def fewer_or_displaced(result: MethodResult):
        error, spacing = max_error(result), result.profile.bin_spacing_m
        count = len(result.peaks)
        return (
            count < 2 or error > spacing,
            f"{count} peaks, max error {error * 100:.3f} cm",
            f"< 2 peaks or error > {spacing * 100:.3f} cm",
        )

    rows = []
    for name in ("triangle", "extended"):
        rows += [
            (f"{name} separates the two off-grid paths", name, separates),
            (f"{name} peak ranges err by at most one bin", name, within_one_bin),
        ]
    rows.append(
        ("single-chirp baseline reports fewer or displaced peaks", "linear",
         fewer_or_displaced)
    )
    return _run(
        report, specs, {"": _unit_channel(delays)}, DESK_MAPPING, COMPARISON_THRESHOLD_DB,
        "AC-7", rows, range_errors,
    )


SPACING_FS = 34_300.0  # puts every whole-centimeter round-trip delay on the grid


def run_spacing_sweep() -> ExperimentReport:
    """Two reflectors closing from 10 cm apart to co-located, 1 cm steps.

    One reflector is fixed at 40 cm; the other walks in from 50 cm. Each
    method estimates the spacing as the distance between its two strongest
    detected peaks at the default listing threshold, so when a method can
    no longer resolve the pair, its second-strongest structure (a sidelobe)
    is misread as the second reflector -- the failure mode being measured.
    With fewer than two peaks the estimate is zero and flagged degenerate.

    The mean absolute error over the three tightest positions that still
    have two distinct reflectors (3, 2 and 1 cm) must order
    triangle < sawtooth < gentle; the extended sweep rides along as the
    oracle and is reported, not ranked. The co-located position stays in
    the table with its degeneracy flags but outside the error statistic.
    """
    kinds = (
        WaveformKind.TRIANGLE,
        WaveformKind.SAWTOOTH,
        WaveformKind.GENTLE,
        WaveformKind.EXTENDED,
    )
    specs = [
        WaveformSpec(kind, DESK_BANDWIDTH_HZ, DESK_CHIRP_S, sample_rate_hz=SPACING_FS)
        for kind in kinds
    ]
    r_fixed = 0.40
    tau_fixed = DESK_MAPPING.range_to_delay(r_fixed)
    positions = [round(0.50 - 0.01 * i, 4) for i in range(11)]

    rows = []
    for r_moving in positions:
        true_spacing = abs(r_moving - r_fixed)
        # Co-located reflectors are two taps on one sample, whose echoes add.
        channel = _unit_channel([tau_fixed, DESK_MAPPING.range_to_delay(r_moving)])
        row: list = [true_spacing]
        degenerate: list[str] = []
        for spec in specs:
            beat, profile = _pipeline(spec, channel, DESK_MAPPING)
            peaks = detect_peaks(profile)
            if len(peaks) >= 2:
                strongest = sorted(peaks, key=lambda pk: pk.power, reverse=True)[:2]
                est = abs(strongest[0].range_m - strongest[1].range_m)
            else:
                est = 0.0
                degenerate.append(spec.kind.value)
            row.append(est)
        row.append(";".join(degenerate) if degenerate else "-")
        rows.append(tuple(row))

    header = ("true_spacing_m",) + tuple(f"est_{k.value}_m" for k in kinds) + (
        "degenerate_methods",
    )
    tightest = [row for row in rows if round(row[0], 4) in (0.03, 0.02, 0.01)]
    mean_err = {
        kind.value: float(np.mean([abs(row[col] - row[0]) for row in tightest]))
        for col, kind in enumerate(kinds, start=1)
    }

    report = ExperimentReport(
        scenario="spacing_sweep",
        constants=_constants(specs[0], fixed_range_m=r_fixed, positions=positions),
        ground_truth_ranges_m=(r_fixed,),
        tables={"spacing_sweep": (header, rows)},
        notes={
            "alt_triangle_processing": ALT_PROCESSING_PLACEHOLDER,
            "mean_abs_error_tightest_m": mean_err,
        },
    )
    ordering_ok = (
        mean_err["triangle"] < mean_err["sawtooth"] < mean_err["gentle"]
    )
    measured = ", ".join(
        f"{name}={mean_err[name] * 100:.3f} cm"
        for name in ("triangle", "sawtooth", "gentle", "extended")
    )
    bound = (
        "triangle < sawtooth < gentle (mean abs error, tightest "
        "two-reflector spacings 3/2/1 cm)"
    )
    return _assert(report, "AC-9", [
        ("tightest-spacing error ordering triangle < sawtooth < gentle",
         (ordering_ok, measured, bound)),
    ])


def run_custom(cfg: ScenarioConfig) -> ExperimentReport:
    """Run a scenario, as ``scenario.parse_scenario`` checked it, over its taps."""
    mapping = cfg.mapping
    channel = build_channel(cfg)
    report = ExperimentReport(
        scenario=cfg.name,
        # Not `_constants`: a .scn's methods may differ in fs (extended runs at
        # 4B), so the run has no one sample rate to report.
        constants={
            "bandwidth_hz": cfg.specs[0].bandwidth_hz,
            "chirp_s": cfg.specs[0].chirp_duration_s,
            "speed_mps": mapping.propagation_speed_mps,
            "round_trip": True,  # every range is c*tau/2; the key keeps the format
            "threshold_db": cfg.threshold_db,
            "seed": cfg.seed,
        },
        ground_truth_ranges_m=tuple(
            mapping.delay_to_range(tap.delay_s) for tap in channel.taps
        ),
    )
    if len(channel) == 0:
        report.degenerate = True
        return _assert(report, "INFO", [
            ("degenerate input: scenario defines no taps", (True, "0 taps, 0 peaks", "n/a")),
        ])
    return _run(report, cfg.specs, {"": channel}, mapping, cfg.threshold_db)


# name -> runner of a seed; the two sweeps draw nothing from it.
BUILTIN_SCENARIOS: dict[str, Callable[[int], ExperimentReport]] = {
    "four_path": run_four_path,
    "sntr_sweep": lambda seed: run_sntr_sweep(),
    "non_integer": run_non_integer,
    "spacing_sweep": lambda seed: run_spacing_sweep(),
}


def run_named_scenario(name: str, seed: int = 1) -> ExperimentReport:
    """Dispatch a built-in scenario by name; every one rejects a bad seed."""
    return BUILTIN_SCENARIOS[name](check_seed(seed))


def _write_jobs(jobs) -> None:
    for _, writer, path, data in jobs:
        writer(path, data)


def _write_csvs(jobs) -> None:
    """Run the ``(rows, writer, path, data)`` jobs, half of the rows in a forked child.

    Largest first, each job goes to the half with fewer rows so far. The
    child always ends in ``os._exit``, and the parent always reaps it; if
    the child fails, the parent runs the child's half again, so the
    child's error is raised here with its own type and path.
    """
    halves, rows = ([], []), [0, 0]
    for job in sorted(jobs, key=lambda job: job[0], reverse=True):
        lighter = rows.index(min(rows))
        halves[lighter].append(job)
        rows[lighter] += job[0]
    mine, child = halves
    if not child or not hasattr(os, "fork"):
        _write_jobs(mine + child)
        return
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _write_jobs(child)
            code = 0
        finally:
            os._exit(code)
    try:
        _write_jobs(mine)
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        _write_jobs(child)


def write_outputs(report: ExperimentReport, out_dir) -> None:
    """Write profiles, beats, tables, metrics.json and report.txt.

    Where ``os.fork`` exists, the profile and beat CSVs are split by rows
    between this process and one forked child; each file gets the bytes one
    process would write. ``metrics.json`` and ``report.txt`` follow once
    every CSV is written, so a failed write leaves no ``RESULT`` line. The
    ``profile`` command writes in one process: besides its profile it
    writes only a few peak rows, which take less than a fork and a reap
    (1-2 ms).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = []
    for result in report.methods:
        jobs.append((result.profile.num_bins, csvio.write_profile_csv,
                     out / f"profile_{result.method}.csv", result.profile))
        jobs.append((len(result.beat), csvio.write_signal_csv,
                     out / f"beat_{result.method}.csv", result.beat))
    _write_csvs(jobs)
    for name, (header, rows) in report.tables.items():
        csvio.write_table_csv(out / f"{name}.csv", header, rows)

    metrics = {
        "scenario": report.scenario,
        "constants": report.constants,
        "ground_truth_ranges_m": list(report.ground_truth_ranges_m),
        "degenerate": report.degenerate,
        "methods": {m.method: m.metrics for m in report.methods},
        "assertions": [asdict(a) for a in report.assertions],
        "notes": report.notes,
        "result": "PASS" if report.passed else "FAIL",
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2, allow_nan=False) + "\n")

    lines = [f"scenario: {report.scenario}"]
    for key, value in report.constants.items():
        lines.append(f"  {key} = {value}")
    if report.ground_truth_ranges_m:
        truth = " ".join(csvio.fmt(r) for r in report.ground_truth_ranges_m)
        lines.append(f"ground truth ranges (m): {truth}")
    if report.degenerate:
        lines.append("DEGENERATE input: no propagation paths defined")
    for note, text in report.notes.items():
        lines.append(f"note {note}: {text}")
    for assertion in report.assertions:
        lines.append(assertion.line())
    lines.append(f"RESULT: {'PASS' if report.passed else 'FAIL'}")
    (out / "report.txt").write_text("\n".join(lines) + "\n")
