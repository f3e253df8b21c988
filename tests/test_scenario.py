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
speed = 340
one_way = true
threshold_db = -9
seed = 11

[tap]
delay_p = 12
gain_re = 0.5
gain_im = -0.25

[tap]
range_m = 0.25
gain = rayleigh
"""


def test_parse_basic_scenario(tmp_path):
    cfg = parse_scenario(write_scn(tmp_path, BASIC))
    assert cfg.name == "demo"
    assert cfg.methods == (WaveformKind.TRIANGLE, WaveformKind.SAWTOOTH)
    assert cfg.speed_mps == 340.0
    assert cfg.round_trip is False
    assert cfg.threshold_db == -9.0
    assert cfg.seed == 11
    assert len(cfg.taps) == 2
    assert cfg.taps[0].delay_p == 12.0
    assert cfg.taps[0].gain == 0.5 - 0.25j
    assert cfg.taps[1].gain == "rayleigh"


def test_tap_delay_forms_resolve(tmp_path):
    cfg = parse_scenario(write_scn(tmp_path, BASIC))
    mapping = cfg.mapping
    # delay_p: p/(2B); range_m one-way: r/c
    assert cfg.taps[0].resolve_delay(8000.0, mapping) == pytest.approx(12 / 16000)
    assert cfg.taps[1].resolve_delay(8000.0, mapping) == pytest.approx(0.25 / 340)


def test_build_channel_is_seed_deterministic(tmp_path):
    path = write_scn(tmp_path, BASIC)
    a = build_channel(parse_scenario(path))
    b = build_channel(parse_scenario(path))
    assert a.taps == b.taps
    drawn = [t for t in a.taps if cmath.isclose(t.delay_s, 0.25 / 340)]
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
    ],
    ids=["gain_re", "gain_im", "zero"],
)
def test_gain_errors_name_their_line(tmp_path, lines, error):
    text = "bandwidth = 8000\nchirp = 0.1\n\n[tap]\ndelay_p = 3\n" + lines
    with pytest.raises(ConfigError, match=error):
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
