"""CSV writers and readers shared by the library and the command line tool.

Displayed quantities (times, powers, ranges) are written with six
significant digits using locale-independent formatting. Sample values
(re/im columns) are written with 17 significant digits so a signal survives
a write/read cycle bit-for-bit and downstream profiles stay reproducible.
Metadata rides along as ``# key=value`` comment lines above the header.

Rows are formatted and parsed a block of ``_BLOCK_ROWS`` rows at a time:
one ``%`` format per block when writing, one ``int``/``float`` map per
column when reading. The format is unchanged by this, byte for byte:
``%.6g`` and :func:`fmt`'s ``f"{x:.6g}"`` run the same CPython float
formatter. Writes are buffered per block, so no more than one block of text
is held in memory; the reader splits the text into lines a chunk at a
time and keeps one array of samples per block.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .spectrum import PeakSet, RangeProfile
from .waveform import WaveformKind, WaveformSpec

__all__ = [
    "fmt",
    "spec_meta",
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

# Keys a beat CSV must carry for ``spec_from_meta``; f0 defaults to 0.
_REQUIRED_BEAT_META = ("kind", "bandwidth", "chirp", "fs")


def fmt(x) -> str:
    """Six significant digits, locale independent."""
    return f"{float(x):.6g}"


def spec_meta(spec: WaveformSpec) -> dict:
    """The ``# key=value`` metadata that lets a signal CSV rebuild its spec."""
    return {
        "kind": spec.kind.value,
        "bandwidth": spec.bandwidth_hz,
        "chirp": spec.chirp_duration_s,
        "f0": spec.start_freq_hz,
        "fs": spec.sample_rate_hz,
    }


def spec_from_meta(meta: dict, source) -> WaveformSpec:
    """Rebuild the spec that :func:`spec_meta` recorded in ``source``."""
    missing = [key for key in _REQUIRED_BEAT_META if key not in meta]
    if missing:
        raise ConfigError(
            f"{source}: missing metadata {missing}; beat CSVs need "
            f"'# key=value' lines for {list(_REQUIRED_BEAT_META)}"
        )
    return WaveformSpec(
        WaveformKind(meta["kind"]),
        float(meta["bandwidth"]),
        float(meta["chirp"]),
        float(meta.get("f0", 0.0)),
        float(meta["fs"]),
    )


def _write_rows(path, head: str, row_fmt: str, columns) -> None:
    """Write ``head``, then one ``row_fmt`` line per row of the numpy ``columns``."""
    rows = len(columns[0])
    with open(path, "w") as f:
        f.write(head)
        for a in range(0, rows, _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, rows)
            cells = zip(*(col[a:b].tolist() for col in columns))
            f.write((row_fmt * (b - a)) % tuple(chain.from_iterable(cells)))


def write_signal_csv(path, samples: np.ndarray, sample_rate_hz: float, meta: dict) -> None:
    """Write complex samples as ``n,t,re,im`` with metadata comments."""
    samples = np.asarray(samples)
    head = "".join(f"# {key}={value}\n" for key, value in meta.items())
    index = np.arange(len(samples))
    _write_rows(
        path,
        head + "n,t,re,im\n",
        "%d,%.6g,%.17g,%.17g\n",
        [index, index / sample_rate_hz, samples.real, samples.imag],
    )


def _chunks(text: str):
    """``text`` in pieces of about 64 KiB, each cut just after a ``"\n"``.

    A ``"\n"`` ends a line wherever it stands and cannot split a ``"\r\n"``,
    so splitting each piece gives the lines of ``text.splitlines()``.
    """
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _parse_block(lines: list[str], first: int) -> np.ndarray | None:
    """Parse body rows numbered from ``first`` in one pass; None if any is not plain.

    Succeeds only when every line has exactly four fields, all parse and the
    indices run on from ``first``; any other block goes to the per-line path,
    which owns blank lines, comments and the error messages.
    """
    if list(map(str.count, lines, repeat(","))).count(3) != len(lines):
        return None
    fields = ",".join(lines).split(",")
    try:
        index = list(map(int, fields[0::4]))
        deque(map(float, fields[1::4]), maxlen=0)  # t must parse; its value is unused
        re = list(map(float, fields[2::4]))
        im = list(map(float, fields[3::4]))
    except ValueError:
        return None
    if index != list(range(first, first + len(lines))):
        return None
    out = np.empty(len(lines), dtype=np.complex128)
    out.real[:] = re  # slice assignment: faster than the .real setter
    out.imag[:] = im
    return out


def read_signal_csv(path) -> tuple[np.ndarray, dict]:
    """Read a signal CSV written by :func:`write_signal_csv`.

    Raises ConfigError naming the file and row on any malformed content.
    """
    path = Path(path)
    # Split a chunk at a time, so no list of every line is held.
    lines = chain.from_iterable(map(str.splitlines, _chunks(path.read_text())))
    meta: dict[str, str] = {}
    blocks: list[np.ndarray] = []
    header = False
    count = 0
    lines_read = 0
    # One line at a time up to the header, then _BLOCK_ROWS lines at a time.
    while block := list(islice(lines, _BLOCK_ROWS if header else 1)):
        first = lines_read + 1
        lines_read += len(block)
        if header:
            values = _parse_block(block, count)
            if values is not None:
                blocks.append(values)
                count += len(block)
                continue
        values = np.empty(len(block), dtype=np.complex128)
        rows = 0
        for lineno, raw in enumerate(block, start=first):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if not header:
                if line != "n,t,re,im":
                    raise ConfigError(
                        f"{path}:{lineno}: expected header 'n,t,re,im', got {line!r}"
                    )
                header = True
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ConfigError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                n = int(parts[0])
                float(parts[1])
                re = float(parts[2])
                im = float(parts[3])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if n != count:
                raise ConfigError(
                    f"{path}:{lineno}: sample index {n} out of order (expected {count})"
                )
            values[rows] = complex(re, im)
            rows += 1
            count += 1
        blocks.append(values[:rows])
    if not header:
        raise ConfigError(f"{path}:1: missing 'n,t,re,im' header")
    if not count:
        raise ConfigError(f"{path}: no sample rows")
    return np.concatenate(blocks), meta


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


def write_spectrogram_csv(path, matrix: np.ndarray, sample_rate_hz: float, hop: int) -> None:
    """Write a spectrogram matrix, one frame per row, bins as columns."""
    bins = matrix.shape[1] if matrix.ndim == 2 else 0
    header = ["frame", "t"] + [f"bin_{k}" for k in range(bins)]
    frame = np.arange(len(matrix))
    _write_rows(
        path,
        ",".join(header) + "\n",
        "%d,%.6g" + ",%.6g" * bins + "\n",
        [frame, frame * hop / sample_rate_hz, *matrix.T],
    )
