import cmath
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_waveform import linear_spec

from trifmcw import ComplexSignal, ConfigError, Peak, PeakSet, RangeProfile
from trifmcw.csvio import (
    _BLOCK_ROWS,
    _CHUNK_CHARS,
    fmt,
    read_signal_csv,
    write_peaks_csv,
    write_profile_csv,
    write_signal_csv,
    write_spectrogram_csv,
)


def test_fmt_six_significant_digits():
    assert fmt(0.53593750001) == "0.535938"
    assert fmt(1600) == "1600"
    assert fmt(-7.4) == "-7.4"


def test_signal_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    samples = rng.normal(size=64) + 1j * rng.normal(size=64)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, ComplexSignal(samples, linear_spec(64, 16000.0)))
    back, meta = read_signal_csv(path)
    np.testing.assert_array_equal(back, samples)  # bit-for-bit via 17 digits
    assert meta == {"kind": "linear", "bandwidth": "8000.0", "chirp": "0.004",
                    "f0": "0.0", "fs": "16000.0"}


def test_read_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,t,re,im\n0,0,1,0\n2,0.0001,1,0\n")
    with pytest.raises(ConfigError, match="out of order"):
        read_signal_csv(path)


def test_read_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,1,0\n")
    with pytest.raises(ConfigError, match="header"):
        read_signal_csv(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_read_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, newline):
    # Far into the file, past any buffer of the text reader.
    lines = ["# fs=1", "n,t,re,im"] + [f"{n},0,1,0" for n in range(4000)]
    path = tmp_path / "bad.csv"
    path.write_bytes(newline.join(lines).encode() + newline.encode() + b"\xff\n")
    with pytest.raises(ConfigError, match=r"bad.csv:4003: not UTF-8 text .* 0xff"):
        read_signal_csv(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_read_of_a_file_with_a_byte_order_mark_matches_its_twin(tmp_path, newline):
    rng = np.random.default_rng(11)
    samples = rng.normal(size=40) + 1j * rng.normal(size=40)
    plain = tmp_path / "plain.csv"
    write_signal_csv(plain, ComplexSignal(samples, linear_spec(40, 16000.0)))
    text = plain.read_text()
    for body in (text, text.replace("n,t,re,im\n", "n,t,re,im\n# x=1\n")):  # numpy, loop
        plain.write_bytes(body.replace("\n", newline).encode())
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert _read_outcome(read_signal_csv, bom) == _read_outcome(read_signal_csv, plain)
    # A byte that is not UTF-8 still names its line past the mark.
    bom.write_bytes(b"\xef\xbb\xbf# fs=1\nn,t,re,im\n0,0,1,0\n\xff\n")
    with pytest.raises(ConfigError, match=r"bom.csv:4: not UTF-8 text .* 0xff"):
        read_signal_csv(bom)


def test_a_byte_past_a_byte_order_mark_is_named_by_its_file_offset(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfa\r\nb\n\xff\n")  # 0xff is byte 8 of the file
    with pytest.raises(ConfigError, match=r"bom.csv:3: not UTF-8 text .* 0xff in position 8:"):
        read_signal_csv(path)


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigError, match="header"):
        read_signal_csv(path)


# --- Equivalence with per-row reference loops. The block writers and the
# reader, on its numpy path and its per-line path, must match them exactly:
# same bytes, same array bits, same ConfigError text.


def _reference_write_signal_csv(path, samples, sample_rate_hz, meta):
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append("n,t,re,im")
    for n, s in enumerate(samples):
        t = n / sample_rate_hz
        lines.append(f"{n},{fmt(t)},{float(s.real):.17g},{float(s.imag):.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _reference_write_profile_csv(path, profile):
    lines = ["bin_p,range_m,power,power_db"]
    for p, power in enumerate(profile.bin_power):
        range_m = p * profile.bin_spacing_m
        db = 10.0 * np.log10(power) if power > 0 else -400.0
        lines.append(f"{p},{fmt(range_m)},{fmt(power)},{fmt(db)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _reference_write_peaks_csv(path, peaks):
    lines = ["bin_p,range_m,power"]
    for peak in peaks:
        lines.append(f"{peak.bin_p},{fmt(peak.range_m)},{fmt(peak.power)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _reference_write_spectrogram_csv(path, times, matrix):
    header = ["frame", "t"] + [f"bin_{k}" for k in range(matrix.shape[1])]
    lines = [",".join(header)]
    for i, (t, row) in enumerate(zip(times, matrix)):
        lines.append(",".join([str(i), fmt(t)] + [fmt(v) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def _reference_read_signal_csv(path):
    path = Path(path)
    meta = {}
    values = []
    header_seen = False
    expected_n = 0
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if not header_seen and "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != "n,t,re,im":
                raise ConfigError(
                    f"{path}:{lineno}: expected header 'n,t,re,im', got {line!r}"
                )
            header_seen = True
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
        if n != expected_n:
            raise ConfigError(
                f"{path}:{lineno}: sample index {n} out of order (expected {expected_n})"
            )
        expected_n += 1
        values.append(complex(re, im))
    if not header_seen:
        raise ConfigError(f"{path}:1: missing 'n,t,re,im' header")
    if not values:
        raise ConfigError(f"{path}: no sample rows")
    for n, value in enumerate(values):
        if not cmath.isfinite(value):
            raise ConfigError(f"{path}: sample n={n} is not finite")
    return np.asarray(values, dtype=np.complex128), meta


WRITER_LENGTHS = (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 5)

# Signed zeros, subnormals, the largest magnitudes and values on either side
# of the %g switch to exponent notation at six and at seventeen digits.
EDGE_VALUES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
    1e-5, 9.99999e-5, 1e-4, 99999.95, 99999.949, 999999.5, 1e16, 9.999999999999999e15,
    1e17, 0.1, 1 / 3, -2.5, 123456789.0, 1e-310,
])


def _edge_column(rng, n):
    """n values: the edge values in seeded order, then seeded wide-range randoms."""
    picks = rng.choice(EDGE_VALUES, size=n)
    wide = rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n)
    return np.where(rng.random(n) < 0.5, picks, wide)


def _assert_same_bytes(tmp_path, write, reference, *args):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got, *args)
    reference(want, *args)
    assert got.read_bytes() == want.read_bytes()


def _linear_meta(n, fs):
    """The metadata a signal on ``linear_spec(n, fs)`` writes."""
    return {"kind": "linear", "bandwidth": fs / 2, "chirp": n / fs, "f0": 0.0, "fs": fs}


@pytest.mark.parametrize("n", [n for n in WRITER_LENGTHS if n > 0])
def test_write_signal_csv_matches_reference_loop(tmp_path, n):
    rng = np.random.default_rng(n)
    samples = _edge_column(rng, n) + 1j * _edge_column(rng, n)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    # Real-valued samples render as in the reference too, with a zero im column.
    for values, fs in [(samples, fs) for fs in (16000.0, 3.0, 0.1, 1e-11)] + [
            (samples.real, 16000.0)]:
        write_signal_csv(got, ComplexSignal(values, linear_spec(n, fs)))
        _reference_write_signal_csv(want, values, fs, _linear_meta(n, fs))
        assert got.read_bytes() == want.read_bytes(), fs


@pytest.mark.parametrize("n", [n for n in WRITER_LENGTHS if n > 0])
def test_write_profile_csv_matches_reference_loop(tmp_path, n):
    rng = np.random.default_rng(100 + n)
    power = np.abs(_edge_column(rng, n))
    power[rng.random(n) < 0.2] = 0.0  # exactly zero bins take the -400 dB floor
    assert n < 5 or (power == 0).any()
    for spacing in (0.0214375, 1e-5, 99999.95, 1e16 / (n + 1)):
        profile = RangeProfile(power, spacing)
        _assert_same_bytes(tmp_path, write_profile_csv, _reference_write_profile_csv,
                           profile)


@pytest.mark.parametrize("n", WRITER_LENGTHS)
def test_write_peaks_csv_matches_reference_loop(tmp_path, n):
    rng = np.random.default_rng(200 + n)
    ranges = _edge_column(rng, n)
    powers = _edge_column(rng, n)
    peaks = PeakSet(tuple(
        Peak(int(b), float(r), float(p))
        for b, r, p in zip(rng.integers(0, 10**6, size=n), ranges, powers)
    ))
    _assert_same_bytes(tmp_path, write_peaks_csv, _reference_write_peaks_csv, peaks)


@pytest.mark.parametrize("n", WRITER_LENGTHS)
def test_write_spectrogram_csv_matches_reference_loop(tmp_path, n):
    rng = np.random.default_rng(300 + n)
    for bins in (0, 1, 7):
        times = _edge_column(rng, n)
        matrix = _edge_column(rng, n * bins).reshape(n, bins)
        _assert_same_bytes(tmp_path, write_spectrogram_csv,
                           _reference_write_spectrogram_csv, times, matrix)


def _set_field(index, value):
    def mutate(body, k, rng):
        parts = body[k].split(",")
        parts[index] = value
        body[k] = ",".join(parts)
    return mutate


def _insert(text):
    def mutate(body, k, rng):
        body.insert(k, text)
    return mutate


def _three_fields(body, k, rng):
    body[k] = ",".join(body[k].split(",")[:3])


def _five_fields(body, k, rng):
    body[k] += ",0"


def _balanced_pair(body, k, rng):
    # Row k takes the next row's index as a fifth field and the next row
    # loses it: the block, split as a whole, lines up into valid rows again.
    k = min(k, len(body) - 2)
    index, rest = body[k + 1].split(",", 1)
    body[k] += "," + index
    body[k + 1] = rest


def _shift_index(body, k, rng):
    parts = body[k].split(",")
    parts[0] = str(int(parts[0]) + int(rng.choice([-1, 1, 2])))
    body[k] = ",".join(parts)


def _swap_rows(body, k, rng):
    j = min(k + 1, len(body) - 1)
    body[k], body[j] = body[j], body[k]


def _pad_fields(body, k, rng):
    body[k] = " " + " , ".join(body[k].split(",")) + "\t"


def _underscore_digits(body, k, rng):
    parts = body[k].split(",")
    n = parts[0]
    parts[0] = n[0] + "_" + n[1:] if len(n) > 1 else "0_0" if n == "0" else n
    parts[2] = "1_0.5"
    body[k] = ",".join(parts)


def _drop_row(body, k, rng):
    del body[k]


def _duplicate_row(body, k, rng):
    body.insert(k, body[k])


READ_MUTATIONS = {
    "none": lambda body, k, rng: None,
    "blank_line": _insert(""),
    "whitespace_line": _insert("  \t"),
    "comment": _insert("# late=1"),
    "comment_with_three_commas": _insert("# late=1,2,3"),
    "bare_comment": _insert("#1,2,3,4"),
    "three_fields": _three_fields,
    "five_fields": _five_fields,
    "balanced_five_and_three": _balanced_pair,
    "non_numeric_n": _set_field(0, "x"),
    "non_numeric_t": _set_field(1, "zzz"),
    "non_numeric_re": _set_field(2, "1.2.3"),
    "empty_im": _set_field(3, ""),
    "float_n": _set_field(0, "1.0"),
    "signed_values": _set_field(2, "+1e-320"),
    "special_values": _set_field(3, "-nan"),
    "shifted_index": _shift_index,
    "swapped_rows": _swap_rows,
    "dropped_row": _drop_row,
    "duplicated_row": _duplicate_row,
    "whitespace_around_fields": _pad_fields,
    "underscore_digits": _underscore_digits,
}


def _read_outcome(read, path):
    try:
        samples, meta = read(path)
    except ConfigError as exc:
        return "error", str(exc)
    return samples.dtype, samples.shape, samples.view(np.uint64).tobytes(), meta


@pytest.mark.parametrize("mutation", sorted(READ_MUTATIONS))
def test_read_signal_csv_matches_reference_loop(tmp_path, mutation):
    rng = np.random.default_rng(sorted(READ_MUTATIONS).index(mutation))
    rows = 2 * _BLOCK_ROWS + 300
    samples = _edge_column(rng, rows) + 1j * _edge_column(rng, rows)
    clean = tmp_path / "clean.csv"
    write_signal_csv(clean, ComplexSignal(samples, linear_spec(rows, 16000.0)))
    head, body = clean.read_text().split("n,t,re,im\n")
    body = body.splitlines()
    edges = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, rows - 1]
    outcomes = set()
    for k in edges + rng.integers(0, rows, size=4).tolist():
        lines = list(body)
        READ_MUTATIONS[mutation](lines, k, rng)
        path = tmp_path / "mutated.csv"
        path.write_text(head + "n,t,re,im\n" + "\n".join(lines) + "\n")
        want = _read_outcome(_reference_read_signal_csv, path)
        assert _read_outcome(read_signal_csv, path) == want, (mutation, k)
        outcomes.add(want[0])
    if mutation == "none":
        assert outcomes == {np.dtype(np.complex128)}


def test_read_signal_csv_matches_reference_on_random_files(tmp_path):
    rng = np.random.default_rng(7)
    names = sorted(READ_MUTATIONS)
    for trial in range(40):
        rows = int(rng.integers(1, 3 * _BLOCK_ROWS))
        samples = _edge_column(rng, rows) + 1j * _edge_column(rng, rows)
        path = tmp_path / "random.csv"
        write_signal_csv(path, ComplexSignal(samples, linear_spec(rows, 8000.0)))
        head, body = path.read_text().split("n,t,re,im\n")
        lines = body.splitlines()
        for name in rng.choice(names, size=int(rng.integers(0, 4))):
            READ_MUTATIONS[name](lines, int(rng.integers(0, len(lines))), rng)
        preamble = rng.choice(["", "\n", "# a=b\n  \n", "n,t,re\n"])
        path.write_text(head + preamble + "n,t,re,im\n" + "\n".join(lines) + "\n")
        want = _read_outcome(_reference_read_signal_csv, path)
        assert _read_outcome(read_signal_csv, path) == want, trial


def test_read_signal_csv_header_only_and_trailing_comments(tmp_path):
    path = tmp_path / "short.csv"
    texts = ("n,t,re,im\n", "n,t,re,im\n\n# a=1\n", "# a=1\nn,t,re,im\n0,0,-0.0,-0\n# b=2\n",
             "n,t,re,im\n" + "\n" * 100, "n,t,re,im\n" + " \t\n" * 3)
    wants = []
    for text in texts:
        path.write_text(text)
        want = _read_outcome(_reference_read_signal_csv, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. numpy's "input contained no data"
            assert _read_outcome(read_signal_csv, path) == want
        wants.append(want)
    assert wants[-2:] == [("error", f"{path}: no sample rows")] * 2


def test_read_signal_csv_falls_back_when_numpy_parses_an_index_through_float(
        tmp_path, monkeypatch):
    # numpy 1.23 and later releases, until the deprecation expired, read
    # "1.0" as the int64 1 and only warned.
    def loadtxt(lines, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return np.array([(0, 0.0, 1.0, 0.0), (1, 0.0, 1.0, 0.0)], dtype=dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    path = tmp_path / "float_index.csv"
    path.write_text("n,t,re,im\n0,0,1,0\n1.0,0,1,0\n")
    want = _read_outcome(_reference_read_signal_csv, path)
    assert want[0] == "error" and "1.0" in want[1]
    assert _read_outcome(read_signal_csv, path) == want


# Every ASCII character, NEL, LINE SEPARATOR, two Unicode spaces, a
# fullwidth and an Arabic-Indic digit: line breaks, whitespace that numpy
# strips around a field where int() and float() reject it ("\x1f"), and
# characters that int() and float() accept where numpy does not.
GUARD_CHARACTERS = [chr(c) for c in range(128)] + [
    "\x85", "\u2028", "\u00a0", "\u3000", "\uff10", "\u0661"]


def test_read_signal_csv_matches_reference_with_any_character_in_a_field(tmp_path):
    rows = [f"{n},{n / 16000:.6g},{(-1) ** n * (n + 0.5):.17g},{1.25e-300 * n:.17g}"
            for n in range(14)]
    head = "# kind=triangle\n# fs=16000\nn,t,re,im\n"
    fields = rows[12].split(",")
    files = 0
    for index, field in enumerate(fields):
        for at in sorted({0, len(field) // 2, len(field)}):
            for char in GUARD_CHARACTERS:
                mutated = list(fields)
                mutated[index] = field[:at] + char + field[at:]
                lines = rows[:12] + [",".join(mutated)] + rows[13:]
                path = tmp_path / f"{files}.csv"  # a new file: rewriting one is slower
                path.write_text(head + "\n".join(lines) + "\n", newline="")
                want = _read_outcome(_reference_read_signal_csv, path)
                assert _read_outcome(read_signal_csv, path) == want, (index, at, repr(char))
                files += 1
    assert files == 12 * len(GUARD_CHARACTERS)


def _outcome_without_path(read, path):
    outcome = _read_outcome(read, path)
    if outcome[0] == "error":
        return "error", outcome[1].replace(str(path), "<file>")
    return outcome


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_read_signal_csv_same_outcome_for_other_line_breaks(tmp_path, newline):
    rng = np.random.default_rng(len(newline))
    rows = 3 * _BLOCK_ROWS
    samples = _edge_column(rng, rows) + 1j * _edge_column(rng, rows)
    clean = tmp_path / "clean.csv"
    write_signal_csv(clean, ComplexSignal(samples, linear_spec(rows, 16000.0)))
    head, body = clean.read_text().split("n,t,re,im\n")
    assert len(head) + len(body) > 2 * _CHUNK_CHARS  # the reader splits several chunks
    for mutation in ("none", "blank_line", "comment", "non_numeric_t", "dropped_row"):
        lines = body.splitlines()
        READ_MUTATIONS[mutation](lines, rows - 5, rng)
        text = head + "n,t,re,im\n" + "\n".join(lines) + "\n"
        unix = tmp_path / "unix.csv"
        unix.write_text(text)
        other = tmp_path / "other.csv"
        other.write_bytes(text.replace("\n", newline).encode())
        want = _outcome_without_path(_reference_read_signal_csv, other)
        assert _outcome_without_path(read_signal_csv, other) == want, mutation
        assert _outcome_without_path(read_signal_csv, unix) == want, mutation
