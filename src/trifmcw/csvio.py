"""CSV writers and readers shared by the library and the command line tool.

Displayed quantities (times, powers, ranges) are written with six
significant digits using locale-independent formatting. Sample values
(re/im columns) are written with 17 significant digits so a signal survives
a write/read cycle bit-for-bit and downstream profiles stay reproducible.
Metadata rides along as ``# key=value`` comment lines above the header,
one per key; below it, a ``#`` line is a plain comment. A signal's
metadata and ``t`` column both come from its spec.

Rows are written a block of ``_BLOCK_ROWS`` rows at a time, one ``%``
format per block. The format is unchanged by this, byte for byte: ``%.6g``
and :func:`fmt`'s ``f"{x:.6g}"`` run the same CPython float formatter.
Writes are buffered per block, so no more than one block of text is held in
memory.

The reader reads the text once and parses it line by line up to the
``n,t,re,im`` header. The body of a plain text, one that is ASCII and holds
no ``"\\x1f"``, then goes to numpy's C reader in one call; it is accepted
when every row parses and the indices count up from 0. Anything else, such
as a hand-edited beat with comments, whitespace-only lines or other
characters in its body, runs on through the per-line loop, which gives the
same samples and owns every error message.
"""

from __future__ import annotations

import math
import re
import warnings
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, read_utf8
from .spectrum import PeakSet, RangeProfile
from .waveform import ComplexSignal, WaveformKind, WaveformSpec

__all__ = [
    "fmt",
    "spec_from_meta",
    "write_signal_csv",
    "read_signal_csv",
    "write_profile_csv",
    "write_peaks_csv",
    "write_table_csv",
    "write_spectrogram_csv",
]

_BLOCK_ROWS = 1024
_CHUNK_CHARS = 1 << 16

# One body row as numpy's C reader parses it.
_ROW = np.dtype([("n", np.int64), ("t", np.float64), ("re", np.float64), ("im", np.float64)])
_NON_BLANK = re.compile(r"\S")

# Keys a beat CSV must carry for ``spec_from_meta``; f0 may be absent, else it must be 0.
_REQUIRED_BEAT_META = ("kind", "bandwidth", "chirp", "fs")


def fmt(x) -> str:
    """Six significant digits, locale independent."""
    return f"{float(x):.6g}"


def _spec_meta(spec: WaveformSpec) -> dict:
    """The ``# key=value`` metadata that lets a signal CSV rebuild its spec."""
    return {
        "kind": spec.kind.value,
        "bandwidth": spec.bandwidth_hz,
        "chirp": spec.chirp_duration_s,
        "f0": 0.0,  # every sweep starts at 0 Hz; the line keeps the file format
        "fs": spec.sample_rate_hz,
    }


def spec_from_meta(meta: dict, source) -> WaveformSpec:
    """Rebuild the spec that :func:`write_signal_csv` recorded in ``source``.

    Raises ConfigError starting with ``source`` and naming the bad key.
    """
    missing = [key for key in _REQUIRED_BEAT_META if key not in meta]
    if missing:
        raise ConfigError(
            f"{source}: missing metadata {missing}; beat CSVs need "
            f"'# key=value' lines for {list(_REQUIRED_BEAT_META)}"
        )
    kinds = [kind.value for kind in WaveformKind]
    if meta["kind"] not in kinds:
        raise ConfigError(f"{source}: metadata kind={meta['kind']!r} is not one of {kinds}")
    numbers = []
    for key in ("bandwidth", "chirp", "f0", "fs"):
        value = meta.get(key, "0")
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ConfigError(f"{source}: metadata {key}={value!r} is not a finite number")
        numbers.append(number)
    bandwidth, chirp, f0, fs = numbers
    if f0 != 0.0:
        raise ConfigError(f"{source}: metadata f0={meta['f0']!r} is not 0; sweeps start at 0 Hz")
    try:
        return WaveformSpec(WaveformKind(meta["kind"]), bandwidth, chirp, sample_rate_hz=fs)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _write_rows(path, head: str, row_fmt: str, columns) -> None:
    """Write ``head``, then one ``row_fmt`` line per row of the numpy ``columns``."""
    rows = len(columns[0])
    with open(path, "w") as f:
        f.write(head)
        for a in range(0, rows, _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, rows)
            cells = zip(*(col[a:b].tolist() for col in columns))
            f.write((row_fmt * (b - a)) % tuple(chain.from_iterable(cells)))


def write_signal_csv(path, sig: ComplexSignal) -> None:
    """Write ``sig`` as ``n,t,re,im`` below the metadata of its spec."""
    head = "".join(f"# {key}={value}\n" for key, value in _spec_meta(sig.spec).items())
    index = np.arange(len(sig))
    _write_rows(
        path,
        head + "n,t,re,im\n",
        "%d,%.6g,%.17g,%.17g\n",
        [index, index / sig.sample_rate_hz, sig.samples.real, sig.samples.imag],
    )


def _chunks(text: str, start: int):
    """``text`` from ``start`` on, in pieces of about 64 KiB, each cut just after a ``"\n"``.

    A ``"\n"`` ends a line wherever it stands and cannot split a ``"\r\n"``,
    so splitting each piece gives the lines of ``text[start:].splitlines()``.
    """
    while start < len(text):
        stop = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _lines(text: str, start: int = 0):
    """The lines of ``text`` from ``start`` on, split a chunk at a time."""
    return chain.from_iterable(map(str.splitlines, _chunks(text, start)))


def _read_plain_body(text: str, start: int) -> np.ndarray | None:
    """The samples of the rows after offset ``start`` of a plain text, or None.

    numpy's C reader parses every row in one call. It succeeds only when
    every non-blank line has four fields that parse as int64 and three
    floats (``t`` must parse too, though its value is unused), and the
    indices count up from 0. Any other body is None and goes to the
    per-line loop, which owns comments, whitespace-only lines and every
    error message.
    """
    if not _NON_BLANK.search(text, start):
        return None  # no row at all; numpy would warn "input contained no data"
    try:
        with warnings.catch_warnings():
            # From numpy 1.23 until the deprecation expired, an int64 field
            # such as "3.0" or "1e3" parsed through float with this warning;
            # int() rejects it.
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(_lines(text, start), delimiter=",", comments=None,
                              dtype=_ROW, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    if not len(rows) or not np.array_equal(rows["n"], np.arange(len(rows))):
        return None
    out = np.empty(len(rows), dtype=np.complex128)
    out.real = rows["re"]
    out.imag = rows["im"]
    return out


def read_signal_csv(path) -> tuple[np.ndarray, dict]:
    """Read a signal CSV written by :func:`write_signal_csv`.

    Raises ConfigError naming the file and row on any malformed content.
    """
    path = Path(path)
    text = read_utf8(path)
    # numpy gets the lines str.splitlines cuts, so every line break is the
    # loop's. It strips "\x1f" around a field, where int() and float() reject
    # it. Outside ASCII the loop alone decides: numpy 2.4's loadtxt has
    # crashed the interpreter on a field holding U+9C6BC.
    plain = text.isascii() and "\x1f" not in text
    meta: dict[str, str] = {}
    meta_line: dict[str, int] = {}  # key -> the line that set it
    values: list[complex] = []
    header = False
    # Where the next line starts: read_utf8 has turned "\r\n" into "\n", so
    # every line break is one character.
    offset = 0
    for lineno, raw in enumerate(_lines(text), start=1):
        offset += len(raw) + 1
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if not header and "=" in body:
                key, _, value = body.partition("=")
                key = key.strip()
                if key in meta:
                    raise ConfigError(f"{path}:{lineno}: duplicate metadata key {key!r}, "
                                      f"first set on line {meta_line[key]}")
                meta[key], meta_line[key] = value.strip(), lineno
            continue
        if not header:
            if line != "n,t,re,im":
                raise ConfigError(
                    f"{path}:{lineno}: expected header 'n,t,re,im', got {line!r}"
                )
            header = True
            if plain and (samples := _read_plain_body(text, offset)) is not None:
                return _finite(path, samples), meta
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            n = int(parts[0])
            float(parts[1])
            real = float(parts[2])
            imag = float(parts[3])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        if n != len(values):
            raise ConfigError(
                f"{path}:{lineno}: sample index {n} out of order (expected {len(values)})"
            )
        values.append(complex(real, imag))
    if not header:
        raise ConfigError(f"{path}:1: missing 'n,t,re,im' header")
    if not values:
        raise ConfigError(f"{path}: no sample rows")
    return _finite(path, np.array(values, dtype=np.complex128)), meta


def _finite(path, samples: np.ndarray) -> np.ndarray:
    """``samples``, or ConfigError naming the first row that holds nan or inf."""
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ConfigError(f"{path}: sample n={bad[0]} is not finite")
    return samples


def write_profile_csv(path, profile: RangeProfile) -> None:
    """Write a range profile as ``bin_p,range_m,power,power_db``."""
    power = profile.bin_power
    index = np.arange(power.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        # -400 dB stands in for the log of an exactly zero bin.
        power_db = np.where(power > 0, 10.0 * np.log10(power), -400.0)
    _write_rows(
        path,
        "bin_p,range_m,power,power_db\n",
        "%d,%.6g,%.6g,%.6g\n",
        [index, index * profile.bin_spacing_m, power, power_db],
    )


def write_peaks_csv(path, peaks: PeakSet) -> None:
    columns = [
        np.array([peak.bin_p for peak in peaks], dtype=np.int64),
        np.array([peak.range_m for peak in peaks], dtype=np.float64),
        np.array([peak.power for peak in peaks], dtype=np.float64),
    ]
    _write_rows(path, "bin_p,range_m,power\n", "%d,%.6g,%.6g\n", columns)


def write_table_csv(path, header: tuple[str, ...], rows) -> None:
    """Write generic numeric rows; non-floats are emitted verbatim."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (str, int)):
                cells.append(str(cell))
            else:
                cells.append(fmt(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def write_spectrogram_csv(path, times: np.ndarray, matrix: np.ndarray) -> None:
    """Write a spectrogram, one frame per row: its index, its time, then its bins."""
    bins = matrix.shape[1]
    header = ["frame", "t"] + [f"bin_{k}" for k in range(bins)]
    _write_rows(
        path,
        ",".join(header) + "\n",
        "%d,%.6g" + ",%.6g" * bins + "\n",
        [np.arange(len(matrix)), times, *matrix.T],
    )
