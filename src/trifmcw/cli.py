"""Command line front end.

Subcommands::

    trifmcw waveform --kind triangle --bandwidth 8000 --chirp 0.1 [--fs ...]
    trifmcw simulate four_path [--seed N] [--out DIR]
    trifmcw simulate my_scenario.scn [--seed N] [--out DIR]
    trifmcw profile beat.csv [--out DIR] [--threshold-db -12] [--speed 343]

A ``.scn`` file pins its whole setup; ``--seed`` replaces its ``seed``.

Exit codes: 0 success (report PASS), 1 usage error, 2 configuration
invariant violated, an input/output file could not be read or written
(``i/o error: ...``) or a signal too large to allocate (``out of memory:
...``), 3 a report assertion FAILed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import csvio, experiments
from .channel import check_seed
from .errors import ConfigError
from .scenario import parse_scenario
from .spectrum import (
    DEFAULT_THRESHOLD_DB,
    SPEED_OF_SOUND_MPS,
    RangeMapping,
    detect_peaks,
    range_profile,
)
from .waveform import ComplexSignal, WaveformKind, WaveformSpec, generate, spectrogram

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_FAIL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; each ``parse_args`` returns a new Namespace."""
    parser = _Parser(prog="trifmcw", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    wave = sub.add_parser("waveform", help="synthesize a waveform and its spectrogram")
    wave.add_argument("--kind", default="triangle",
                      choices=[k.value for k in WaveformKind])
    wave.add_argument("--bandwidth", type=float, required=True,
                      help="chirp bandwidth B in Hz")
    wave.add_argument("--chirp", type=float, required=True,
                      help="single-chirp duration Tc in seconds")
    wave.add_argument("--fs", type=float, default=None,
                      help="sample rate in Hz (default 2B, 4B for extended)")
    wave.add_argument("--out", default=".", help="output directory")
    wave.set_defaults(func=_cmd_waveform)

    sim = sub.add_parser("simulate", help="run a built-in or custom scenario")
    sim.add_argument("scenario",
                     help="four_path | sntr_sweep | non_integer | spacing_sweep "
                          "| path to a .scn file")
    sim.add_argument("--seed", type=int, default=None,
                     help="random-gain seed in [0, 2^64), replacing a .scn file's "
                          "seed; only four_path and .scn files draw gains from it. "
                          "non_integer only records it in constants.seed; sntr_sweep "
                          "and spacing_sweep ignore it beyond the range check")
    sim.add_argument("--out", default=".", help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    prof = sub.add_parser("profile", help="range profile and peaks from a beat CSV")
    prof.add_argument("beat_csv", help="beat CSV written by this tool")
    prof.add_argument("--speed", type=float, default=SPEED_OF_SOUND_MPS,
                      help="round-trip propagation speed in m/s (default 343); "
                           "twice the speed gives one-way ranging")
    prof.add_argument("--threshold-db", type=float, default=DEFAULT_THRESHOLD_DB)
    prof.add_argument("--out", default=".", help="output directory")
    prof.set_defaults(func=_cmd_profile)
    return parser


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_waveform(args) -> int:
    spec = WaveformSpec(WaveformKind(args.kind), args.bandwidth, args.chirp,
                        sample_rate_hz=args.fs)
    sig = generate(spec)
    out = _out_dir(args)
    csvio.write_signal_csv(
        out / "waveform.csv", sig.samples, sig.sample_rate_hz, csvio.spec_meta(spec)
    )
    window_len = max(1, spec.samples_per_chirp // 16)
    hop = max(1, window_len // 2)
    matrix = spectrogram(sig, window_len, hop)
    csvio.write_spectrogram_csv(
        out / "spectrogram.csv", matrix, sig.sample_rate_hz, hop
    )
    print(
        f"wrote {len(sig)} samples of {spec.kind.value} waveform "
        f"(fs={csvio.fmt(spec.sample_rate_hz)} Hz) to {out / 'waveform.csv'}"
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.scenario in experiments.BUILTIN_SCENARIOS:
        report = experiments.run_named_scenario(
            args.scenario, args.seed if args.seed is not None else 1
        )
    else:
        cfg = parse_scenario(args.scenario)
        if args.seed is not None:
            cfg.seed = check_seed(args.seed)
        report = experiments.run_custom(cfg)

    out = _out_dir(args)
    experiments.write_outputs(report, out)
    for assertion in report.assertions:
        print(assertion.line())
    print(f"RESULT: {'PASS' if report.passed else 'FAIL'} (outputs in {out})")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_profile(args) -> int:
    samples, meta = csvio.read_signal_csv(args.beat_csv)
    spec = csvio.spec_from_meta(meta, args.beat_csv)
    if len(samples) != spec.num_samples:
        raise ConfigError(
            f"{args.beat_csv}: {len(samples)} sample rows, but the grid its "
            f"metadata sets needs {spec.num_samples}"
        )
    beat = ComplexSignal(samples, spec)
    mapping = RangeMapping(args.speed)  # a bad flag is the flag's error, not the file's
    try:
        profile = range_profile(beat, mapping)
    except ValueError as exc:
        raise ConfigError(f"{args.beat_csv}: {exc}") from None
    peaks = detect_peaks(profile, args.threshold_db)
    out = _out_dir(args)
    csvio.write_profile_csv(out / "profile.csv", profile)
    csvio.write_peaks_csv(out / "peaks.csv", peaks)
    print(f"{len(peaks)} peak(s); wrote {out / 'profile.csv'} and {out / 'peaks.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # ConfigError among them
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
