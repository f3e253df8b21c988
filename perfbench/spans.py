"""Analysis of the traced run's spans: per-layer metrics and the stage table.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` indexes the
enclosing span in the same worker (-1 for an operation's root span, named
``op``), ``op`` indexes the operation, and ``attrs`` holds work counts
measured after the call returned. Times are ``time.perf_counter()`` seconds.
This module uses the standard library only, so run.py can import it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# Per-layer metrics, all per timed operation except the ratios. The traced
# run reports every one of them for every workload; a layer a workload does
# not reach reads 0.
PER_LAYER = {
    "waveform.generate.calls": "calls/op",
    "waveform.generate.busy_ms": "ms/op",
    "waveform.generate.samples": "samples/op",
    "waveform.generate.distinct_ratio": "ratio",
    "channel.apply_channel.calls": "calls/op",
    "channel.apply_channel.busy_ms": "ms/op",
    "channel.apply_channel.tap_samples": "samples/op",
    "beat.mix.calls": "calls/op",
    "beat.mix.busy_ms": "ms/op",
    "spectrum.range_profile.calls": "calls/op",
    "spectrum.range_profile.busy_ms": "ms/op",
    "spectrum.range_profile.samples": "samples/op",
    "spectrum.detect_peaks.calls": "calls/op",
    "spectrum.detect_peaks.busy_ms": "ms/op",
    "spectrum.detect_peaks.bins": "bins/op",
    "spectrum.detect_peaks.peaks": "peaks/op",
    "spectrum.detect_peaks.distinct_ratio": "ratio",
    "spectrum.sntr.calls": "calls/op",
    "spectrum.sntr.busy_ms": "ms/op",
    "csvio.write.files": "files/op",
    "csvio.write.bytes": "bytes/op",
    "csvio.write.busy_ms": "ms/op",
    "csvio.read_signal_csv.calls": "calls/op",
    "csvio.read_signal_csv.bytes": "bytes/op",
    "csvio.read_signal_csv.rows": "rows/op",
    "csvio.read_signal_csv.busy_ms": "ms/op",
    "experiments.run.self_ms": "ms/op",
    "experiments.write_outputs.self_ms": "ms/op",
    "scenario.parse_scenario.busy_ms": "ms/op",
    "scenario.build_channel.busy_ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
}

# ROADMAP item-1 stage table: (row, span name).
STAGES = (
    ("generate", "waveform.generate"),
    ("apply_channel", "channel.apply_channel"),
    ("mix", "beat.mix"),
    ("range_profile", "spectrum.range_profile"),
    ("detect_peaks", "spectrum.detect_peaks"),
    ("write_outputs", "experiments.write_outputs"),
    ("csv_read", "csvio.read_signal_csv"),
)
_STAGE_SPANS = {span for _, span in STAGES}
SCALES = (
    ("desk", "desk N=3,200 (four_path)"),
    ("large", "large N=192,000 (large_scn)"),
)


def scale_of(kind: str) -> str | None:
    """Desk scale is every four_path operation; large scale is large_scn."""
    if kind == "large_scn":
        return "large"
    if "four_path" in kind:
        return "desk"
    return None


class SpanStats:
    """Totals over the spans of traced workers, kept instead of the spans."""

    def __init__(self):
        self.ops = 0
        self.totals: dict[str, float] = defaultdict(float)
        self.nesting_errors = 0
        self.stage_ms: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.written: dict[str, list[int]] = defaultdict(list)

    def add(self, spans: list[list], ops: list[list], distinct: dict[str, int]) -> None:
        """Fold in one worker's spans; ``ops`` rows are ``[kind, latency_s, ok]``."""
        self.ops += len(ops)
        covered = [0.0] * len(spans)
        for name, start, end, parent, op, _ in spans:
            if parent >= 0:
                outer = spans[parent]
                if outer[4] != op or start < outer[1] or end > outer[2]:
                    self.nesting_errors += 1
                covered[parent] += end - start
        op_self = defaultdict(float)
        op_written = defaultdict(int)
        for i, (name, start, end, parent, op, attrs) in enumerate(spans):
            busy = end - start
            own = busy - covered[i]
            if own < 0:
                self.nesting_errors += 1
            op_self[op] += own
            self.totals[f"{name}.calls"] += 1
            self.totals[f"{name}.busy_ms"] += busy * 1e3
            self.totals[f"{name}.self_ms"] += own * 1e3
            for key, value in attrs.items():
                self.totals[f"{name}.{key}"] += value
            if name == "csvio.write":
                op_written[op] += attrs["bytes"]
            scale = scale_of(ops[op][0])
            if scale is not None and name in _STAGE_SPANS:
                self.stage_ms[(name, scale)].append(busy * 1e3)
        # Self times within an operation add up to at most its wall time.
        for op, own in op_self.items():
            if own > ops[op][1]:
                self.nesting_errors += 1
        for op, size in op_written.items():
            kind = ops[op][0]
            if kind.startswith("simulate:"):
                self.written[kind.removeprefix("simulate:")].append(size)
        for name, count in distinct.items():
            self.totals[f"{name}.distinct"] += count

    def per_op(self, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric, as a value per timed operation or a ratio."""
        metrics = {}
        for metric in PER_LAYER:
            span, stat = metric.rsplit(".", 1)
            if metric == "trace.overhead_ratio":
                value = overhead_ratio
            elif stat == "distinct_ratio":
                calls = self.totals[f"{span}.calls"]
                value = self.totals[f"{span}.distinct"] / calls if calls else 0.0
            else:
                stat = "calls" if stat == "files" else stat
                value = self.totals[f"{span}.{stat}"] / self.ops if self.ops else 0.0
            metrics[metric] = value
        return metrics

    def merge(self, other: "SpanStats") -> None:
        self.ops += other.ops
        self.nesting_errors += other.nesting_errors
        for key, value in other.totals.items():
            self.totals[key] += value
        for key, values in other.stage_ms.items():
            self.stage_ms[key].extend(values)
        for key, values in other.written.items():
            self.written[key].extend(values)

    def stage_table(self) -> list[str]:
        """Median ms per call of each pipeline stage at desk and large scale."""
        width = max(len(label) for _, label in SCALES) + 2
        lines = ["stage table: median ms per call (calls)",
                 f"{'stage':<15}" + "".join(f"{label:<{width}}" for _, label in SCALES)]
        for row, span in STAGES:
            cells = []
            for scale, _ in SCALES:
                values = self.stage_ms.get((span, scale))
                cell = f"{statistics.median(values):.3f} ({len(values)})" if values else "-"
                cells.append(f"{cell:<{width}}")
            lines.append(f"{row:<15}" + "".join(cells))
        for name, sizes in sorted(self.written.items()):
            lines.append(f"bytes written per simulate {name}: {statistics.median(sizes):,.0f}")
        return lines
