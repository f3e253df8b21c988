"""Span tracer for the benchmark's traced run.

The tracer wraps trifmcw's public functions from outside the package, in the
place each caller looks them up. ``experiments`` and ``cli`` import the
pipeline functions by name, so those names are replaced in the importing
module; they reach ``csvio`` and ``experiments`` through the module object,
so the module attribute is replaced. Patching only the defining module would
miss every by-name import.

Spans, in the form spans.py describes, stay in memory until the worker
writes them out.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from trifmcw import cli, csvio, experiments, scenario
from trifmcw.spectrum import DEFAULT_THRESHOLD_DB, DEFAULT_TWIN_OUTER_DB


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Each measure function maps (args, kwargs, result) to
# (attrs, key, keep): work counts, a key identifying the call's inputs for
# the distinct ratio (None: not counted), and an object to keep alive while
# the operation runs so an id() in the key is not reused.

def _generate(args, kwargs, result):
    return {"samples": len(result)}, _arg(args, kwargs, 0, "spec"), None


def _apply_channel(args, kwargs, result):
    sig = _arg(args, kwargs, 0, "sig")
    channel = _arg(args, kwargs, 1, "channel")
    return {"tap_samples": len(channel) * len(sig)}, None, None


def _range_profile(args, kwargs, result):
    return {"samples": len(_arg(args, kwargs, 0, "beat"))}, None, None


def _detect_peaks(args, kwargs, result):
    profile = _arg(args, kwargs, 0, "profile")
    key = (
        id(profile),
        _arg(args, kwargs, 1, "rel_threshold_db", DEFAULT_THRESHOLD_DB),
        _arg(args, kwargs, 2, "twin_outer_db", DEFAULT_TWIN_OUTER_DB),
    )
    return {"bins": profile.num_bins, "peaks": len(result)}, key, profile


def _write(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}, None, None


def _read(args, kwargs, result):
    size = os.path.getsize(_arg(args, kwargs, 0, "path"))
    return {"bytes": size, "rows": len(result[0])}, None, None


CSV_WRITERS = (
    "write_signal_csv",
    "write_profile_csv",
    "write_peaks_csv",
    "write_table_csv",
    "write_spectrogram_csv",
)

# (owner, attribute, span name, measure)
TARGETS = [
    (experiments, "generate", "waveform.generate", _generate),
    (experiments, "apply_channel", "channel.apply_channel", _apply_channel),
    (experiments, "mix", "beat.mix", None),
    (experiments, "range_profile", "spectrum.range_profile", _range_profile),
    (experiments, "detect_peaks", "spectrum.detect_peaks", _detect_peaks),
    (experiments, "sntr", "spectrum.sntr", None),
    (experiments, "build_channel", "scenario.build_channel", None),
    (experiments, "run_named_scenario", "experiments.run", None),
    (experiments, "run_custom", "experiments.run", None),
    (experiments, "write_outputs", "experiments.write_outputs", None),
    *((csvio, name, "csvio.write", _write) for name in CSV_WRITERS),
    (csvio, "read_signal_csv", "csvio.read_signal_csv", _read),
    (cli, "range_profile", "spectrum.range_profile", _range_profile),
    (cli, "detect_peaks", "spectrum.detect_peaks", _detect_peaks),
    (cli, "parse_scenario", "scenario.parse_scenario", None),
    (cli, "main", "cli.main", None),
    (scenario, "parse_scenario", "scenario.parse_scenario", None),
]


class Tracer:
    """Records spans around the calls listed in TARGETS while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.distinct: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._keys: dict[str, dict] = defaultdict(dict)
        self._patched: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, measure in TARGETS:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, measure))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.distinct.clear()

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack = [len(self.spans)]
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op, {}])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
        self._keys.clear()

    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span[5], key, keep = measure(args, kwargs, result)
                if key is not None:
                    self._keys[name][key] = keep
            return result

        return traced
