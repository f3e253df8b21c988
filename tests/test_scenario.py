import cmath

import pytest

from trifmcw import ConfigError, WaveformKind
from trifmcw.scenario import build_channel, parse_scenario


def write_scn(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASIC = """
name = demo
methods = triangle, sawtooth
bandwidth = 8000
chirp = 0.1
speed = 680
# one way at 340 m/s
threshold_db = -9
seed = 11

[tap]
delay_p = 12
gain_re = 0.5
gain_im = -0.25

[tap]
range_m = 0.2125
gain = rayleigh
"""


def test_parse_basic_scenario(tmp_path):
    cfg = parse_scenario(write_scn(tmp_path, BASIC))
    assert cfg.name == "demo"
    assert [spec.kind for spec in cfg.specs] == [WaveformKind.TRIANGLE, WaveformKind.SAWTOOTH]
    assert cfg.mapping.propagation_speed_mps == 680.0
    assert cfg.threshold_db == -9.0
    assert cfg.seed == 11
    assert len(cfg.taps) == 2
    assert cfg.taps[0][1] == 0.5 - 0.25j
    assert cfg.taps[1][1] == "rayleigh"


def test_tap_delay_forms_resolve(tmp_path):
    cfg = parse_scenario(write_scn(tmp_path, BASIC))
    # delay_p: p/(2B); range_m one-way: r/c
    assert cfg.taps[0][0] == pytest.approx(12 / 16000)
    assert cfg.taps[1][0] == pytest.approx(0.2125 / 340)


def test_build_channel_is_seed_deterministic(tmp_path):
    path = write_scn(tmp_path, BASIC)
    a = build_channel(parse_scenario(path))
    b = build_channel(parse_scenario(path))
    assert a.taps == b.taps
    drawn = [t for t in a.taps if cmath.isclose(t.delay_s, 0.2125 / 340)]
    assert len(drawn) == 1 and drawn[0].gain.imag != 0  # rayleigh draw happened


MIXED_GAINS = """
bandwidth = 8000
chirp = 0.1
seed = 5

[tap]
range_m = 0.343
gain = rayleigh

[tap]
delay_p = 20
gain_re = 0.75
gain_im = -0.5

[tap]
delay_s = 0.0005
gain = rayleigh

[tap]
delay_p = 12
gain = rayleigh
"""


def test_build_channel_known_answer(tmp_path):
    # Rayleigh gains come from one SplitMix64 stream, drawn in delay order and
    # only for the rayleigh taps; the fixed tap takes no draw.
    channel = build_channel(parse_scenario(write_scn(tmp_path, MIXED_GAINS)))
    got = [(t.delay_s.hex(), t.gain.real.hex(), t.gain.imag.hex()) for t in channel.taps]
    assert got == [
        ("0x1.0624dd2f1a9fcp-11", "0x1.ceece66b17322p-7", "-0x1.f2f71060c4c5fp-1"),
        ("0x1.89374bc6a7efap-11", "0x1.f5a7b43622edfp-1", "0x1.694d520ec3896p-1"),
        ("0x1.47ae147ae147bp-10", "0x1.8000000000000p-1", "-0x1.0000000000000p-1"),
        ("0x1.0624dd2f1a9fcp-9", "-0x1.e445b9c4f410ep-1", "0x1.c349aad7bb645p-1"),
    ]


def test_missing_bandwidth(tmp_path):
    path = write_scn(tmp_path, "chirp = 0.1\n")
    with pytest.raises(ConfigError, match="bandwidth"):
        parse_scenario(path)


def test_unknown_key_reports_line(tmp_path):
    path = write_scn(tmp_path, "bandwidth = 8000\nchirp = 0.1\nbogus = 3\n")
    with pytest.raises(ConfigError, match=r":3: unknown key 'bogus'"):
        parse_scenario(path)


def test_unknown_method(tmp_path):
    path = write_scn(tmp_path, "bandwidth = 8000\nchirp = 0.1\nmethods = spiral\n")
    with pytest.raises(ConfigError, match="unknown method 'spiral'"):
        parse_scenario(path)


def test_duplicate_method_reports_line(tmp_path):
    text = "bandwidth = 8000\nchirp = 0.1\nmethods = triangle, Triangle\n"
    with pytest.raises(ConfigError, match=r"case.scn:3: duplicate method 'triangle'"):
        parse_scenario(write_scn(tmp_path, text))


# A bad number names its own line; a zero gain, set by two lines, the [tap].
@pytest.mark.parametrize(
    "lines, error",
    [
        ("gain_re = abc\n", "case.scn:6: expected a number, got 'abc'"),
        ("gain_re = 1\ngain_im = abc\n", "case.scn:7: expected a number, got 'abc'"),
        ("gain_re = 0\ngain_im = 0\n", "case.scn:4: tap gain must be nonzero"),
        ("gain_re = 1\ngain_im = -1e306\n", "case.scn:7: beat is too large for a finite profile"),
    ],
    ids=["gain_re", "gain_im", "zero", "too_large"],
)
def test_gain_errors_name_their_line(tmp_path, lines, error):
    text = "bandwidth = 8000\nchirp = 0.1\n\n[tap]\ndelay_p = 3\n" + lines
    with pytest.raises(ConfigError, match=error):
        parse_scenario(write_scn(tmp_path, text))


def test_fixed_gains_are_bounded_by_their_sum(tmp_path):
    # Each 1e150 passes alone; at N = 3200 the fifth takes the sum past 2^512
    # and its gain_re line (22) is named. Rayleigh taps do not count.
    taps = "".join(f"\n[tap]\ndelay_p = {40 + 2 * k}\ngain_re = 1e150\n" for k in range(8))
    with pytest.raises(ConfigError, match=r"case.scn:22: beat is too large .* up to 5e\+150"):
        parse_scenario(write_scn(tmp_path, "bandwidth = 8000\nchirp = 0.1\n" + taps))
    rayleigh = "".join(f"\n[tap]\ndelay_p = {60 + k}\ngain = rayleigh\n" for k in range(8))
    text = "bandwidth = 8000\nchirp = 0.1\n" + taps[: len(taps) // 2] + rayleigh
    assert len(parse_scenario(write_scn(tmp_path, text)).taps) == 12


# fs takes no part in B/Tc, so whether it is set or derived the chirp line is named.
@pytest.mark.parametrize("fs_line", ["fs = 4e300\n", ""], ids=["file", "derived"])
def test_chirp_rate_error_names_the_chirp_line(tmp_path, fs_line):
    text = "bandwidth = 1e300\nchirp = 1e-300\n" + fs_line
    with pytest.raises(ConfigError, match=r"case.scn:2: chirp rate B/Tc must be below"):
        parse_scenario(write_scn(tmp_path, text))


def test_tap_needs_exactly_one_position(tmp_path):
    text = "bandwidth = 8000\nchirp = 0.1\n\n[tap]\ndelay_p = 3\nrange_m = 0.5\n"
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_scenario(write_scn(tmp_path, text))


def test_tap_zero_gain_rejected(tmp_path):
    text = "bandwidth = 8000\nchirp = 0.1\n\n[tap]\ndelay_p = 3\ngain_re = 0\n"
    with pytest.raises(ConfigError, match="nonzero"):
        parse_scenario(write_scn(tmp_path, text))


def test_positive_threshold_rejected(tmp_path):
    text = "bandwidth = 8000\nchirp = 0.1\nthreshold_db = 3\n"
    with pytest.raises(ConfigError, match="threshold_db"):
        parse_scenario(write_scn(tmp_path, text))


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_number_names_the_line(tmp_path, value):
    text = f"bandwidth = 8000\nchirp = 0.1\n\n[tap]\ndelay_p = {value}\n"
    with pytest.raises(ConfigError, match=rf"case.scn:5: expected a finite number, got '{value}'"):
        parse_scenario(write_scn(tmp_path, text))


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_scenario("/nonexistent/path.scn")


def test_old_basic_range_is_off_the_grid_at_parse(tmp_path):
    # 0.25 m one way at 340 m/s is 11.76 samples at fs = 16 kHz.
    text = BASIC.replace("range_m = 0.2125", "range_m = 0.25")
    with pytest.raises(ConfigError, match=r"case.scn:16: tap 1 delay .* off the grid"):
        parse_scenario(write_scn(tmp_path, text))


# Each tap is checked against every method's spec when the file is parsed,
# and named by its [tap] line and its place in the file.
@pytest.mark.parametrize(
    "methods, second_tap, error",
    [
        ("triangle", "delay_p = 10.5",
         r"case.scn:8: tap 1 delay 0.00065625 s is 10.5 samples at fs=16000.0 Hz"),
        ("triangle", "delay_s = 0.003",
         r"case.scn:8: tap 1 repeats the delay 0.003 s of tap 0 \(.*case.scn:5\)"),
        # 0.00300000000001 s passes the grid check on sample 48 (96 at 4B) and
        # would be summed into tap 0's echo there.
        ("triangle,extended", "delay_s = 0.00300000000001",
         r"case.scn:8: tap 1 repeats the delay 0.003 s of tap 0 \(.*case.scn:5\), "
         r"both on sample 48$"),
        ("sawtooth", "delay_p = 3300",
         r"case.scn:8: tap 1 delay 0.20625 s is 3300 samples, beyond the sawtooth "
         r"signal length 3200"),
        ("sawtooth,triangle", "delay_p = 3000",
         r"case.scn:8: tap 1 delay 0.1875 s is 3000 samples, beyond the triangle up ramp "
         r"of 1600 samples \(Tc=0.1 s\)$"),
    ],
    ids=["off_grid", "repeated", "same_sample", "past_the_signal", "triangle_past_tc"],
)
def test_tap_checks_name_the_tap_line_and_place(tmp_path, methods, second_tap, error):
    text = (f"bandwidth = 8000\nchirp = 0.1\nmethods = {methods}\n\n"
            f"[tap]\ndelay_s = 0.003\n\n[tap]\n{second_tap}\n")
    with pytest.raises(ConfigError, match=error):
        parse_scenario(write_scn(tmp_path, text))


@pytest.mark.parametrize("first, where", [(False, "case.scn:4"), (True, "case.scn:1")],
                         ids=["file", "first_line"])
def test_fs_below_the_extended_bound_names_where_it_was_set(tmp_path, first, where):
    keys = ["bandwidth = 8000\n", "chirp = 0.1\n", "methods = triangle,extended\n"]
    keys.insert(0 if first else 3, "fs = 16000\n")
    with pytest.raises(ConfigError, match=rf"{where}: fs=16000.0 Hz is below .* extended"):
        parse_scenario(write_scn(tmp_path, "".join(keys)))


def test_a_byte_that_is_not_utf8_is_named_by_its_line(tmp_path):
    path = tmp_path / "case.scn"
    path.write_bytes(b"bandwidth = 8000\nchirp = 0.1\nname = caf\xe9\n")
    with pytest.raises(ConfigError, match=r"case.scn:3: not UTF-8 text .* 0xe9"):
        parse_scenario(path)


TAP = "bandwidth = 8000\nchirp = 0.1\n\n[tap]\n"  # the [tap] line is 4


# Every input error names the line that set it, or the [tap] line of a tap.
@pytest.mark.parametrize("text, error", [
    ("bandwidth = 8000\nchirp = 0.1\n[chan]\n", r"case.scn:3: unknown block '\[chan\]'"),
    ("bandwidth = 8000\nchirp 0.1\n", r"case.scn:2: expected 'key = value', got 'chirp 0.1'"),
    ("bandwidth = 8000\nchirp = 0.1\nchirp = 0.2\n", r"case.scn:3: duplicate key 'chirp'"),
    (TAP + "delay_p = -3\n", r"case.scn:5: delay_p must be non-negative"),
    (TAP + "range_m = -0.5\n", r"case.scn:5: range_m must be non-negative"),
    (TAP + "delay_p = 3\ngain = 0.5\n", r"case.scn:6: gain must be 'rayleigh'"),
    (TAP + "delay_p = 3\ngain = rayleigh\ngain_re = 1\n",
     r"case.scn:4: gain=rayleigh excludes gain_re/gain_im"),
    (TAP + "delay_p = 3\nphase = 1\n", r"case.scn:6: unknown tap key 'phase'"),
    ("bandwidth = -8000\nchirp = 0.1\n", r"case.scn:1: bandwidth must be > 0, got -8000.0$"),
    ("bandwidth = 8000\nchirp = -0.1\n", r"case.scn:2: chirp duration must be > 0, got -0.1$"),
    # Ranges past float range name the speed line, or the bandwidth line
    # when the file sets no speed; a tap's own range names its [tap] line.
    ("bandwidth = 1e-307\nchirp = 1e16\nfs = 1e-16\n",
     r"case.scn:1: profile ranges must be finite, up to bin 1 at inf m per bin"),
    ("bandwidth = 1\nchirp = 1000\nspeed = 1e308\n",
     r"case.scn:3: profile ranges must be finite, up to bin 2000 at 2.5e\+307 m per bin"),
    ("bandwidth = 1\nchirp = 1\nmethods = sawtooth\nspeed = 1.5e308\n\n[tap]\ndelay_p = 3\n",
     r"case.scn:6: tap range must be finite: c\*tau overflows for a delay of 1.5 s"),
], ids=["unknown_block", "no_equals", "duplicate_key", "negative_delay_p", "negative_range_m",
        "fixed_gain", "rayleigh_and_fixed", "unknown_tap_key", "negative_bandwidth",
        "negative_chirp", "range_spacing", "range_last_bin", "tap_range"])
def test_input_errors_name_their_line(tmp_path, text, error):
    with pytest.raises(ConfigError, match=error):
        parse_scenario(write_scn(tmp_path, text))
