import numpy as np
import pytest

from trifmcw import (
    ChannelModel,
    ChannelTap,
    ComplexSignal,
    WaveformKind,
    WaveformSpec,
    analytic_beat,
    apply_channel,
    generate,
    mix,
    phase_consistency,
)

B = 8000.0
TC = 0.1
SPEC = WaveformSpec(WaveformKind.TRIANGLE, B, TC)
NC = SPEC.samples_per_chirp
# fs = 4B, so every second sample of an extended beat lies on SPEC's grid
EXT = WaveformSpec(WaveformKind.EXTENDED, B, TC)


def tap_of(p):
    return p / (2 * B)


def mixed_beat(spec, tau, gain=1.0):
    tx = generate(spec)
    rx = apply_channel(tx, ChannelModel((ChannelTap(tau, gain),)))
    return mix(tx, rx)


def reference_tone(tau):
    """The doubled-bandwidth reference: the extended sweep's beat on SPEC's grid."""
    return mixed_beat(EXT, tau).samples[::2]


def test_mix_of_signal_with_itself_is_one():
    tx = generate(SPEC)
    beat = mix(tx, tx)
    np.testing.assert_allclose(beat.samples, 1.0, atol=1e-12)


def test_mix_zero_prefix_from_delay():
    d = 25
    beat = mixed_beat(SPEC, d / SPEC.sample_rate_hz)
    assert np.all(beat.samples[:d] == 0)
    assert np.all(np.abs(beat.samples[d:]) > 0.99)


def _complex_column(rng, n):
    """n finite complex values over a wide range, with signed zeros and subnormals."""
    parts = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-150, 150, size=(2, n))
    parts[:, ::7] = -0.0
    parts[:, 3::11] = 0.0
    parts[:, 5::13] = -5e-324
    out = np.empty(n, dtype=np.complex128)
    out.real, out.imag = parts
    return out


def test_mix_equals_conj_tx_times_rx_bitwise():
    rng = np.random.default_rng(11)
    tx_samples = _complex_column(rng, SPEC.num_samples)
    rx_samples = _complex_column(rng, SPEC.num_samples)
    beat = mix(ComplexSignal(tx_samples, SPEC), ComplexSignal(rx_samples, SPEC))
    want = np.conj(tx_samples) * rx_samples
    assert np.array_equal(beat.samples.view(np.uint64), want.view(np.uint64))


def test_mix_rejects_mismatched_inputs():
    tx = generate(SPEC)
    short = generate(WaveformSpec(WaveformKind.LINEAR, B, TC))
    with pytest.raises(ValueError, match="spec mismatch"):
        mix(tx, short)


def test_mix_rejects_equal_length_signals_of_different_specs():
    tx = generate(SPEC)
    saw = generate(WaveformSpec(WaveformKind.SAWTOOTH, B, TC))
    assert len(tx) == len(saw)
    with pytest.raises(ValueError, match="spec mismatch"):
        mix(tx, saw)


def test_oracle_matches_mix_at_p4():
    tau = tap_of(4)
    got = mixed_beat(SPEC, tau).samples
    want = analytic_beat(SPEC, tau).samples
    assert np.max(np.abs(got - want)) < 1e-9


def _random_tap(rng, kind, nc, mult):
    """A spec of `kind` with Nc = nc at `mult` times its minimum sample rate, and a tap in its window."""
    b = float(rng.uniform(500, 16000))
    fs = mult * 2 * b * (2 if kind is WaveformKind.EXTENDED else 1)
    spec = WaveformSpec(kind, b, nc / fs, sample_rate_hz=fs)
    window = nc if kind is WaveformKind.TRIANGLE else spec.num_samples
    return spec, int(rng.integers(0, window)) / fs


@pytest.mark.parametrize("kind", list(WaveformKind), ids=lambda k: k.value)
def test_oracle_matches_mix_randomized(kind):
    # the closed form must track the mixed product for any grid delay in the
    # tap window, odd or even p included (the triangle's transition constant
    # depends on it)
    rng = np.random.default_rng(99)
    for _ in range(25):
        spec, tau = _random_tap(rng, kind, int(rng.integers(64, 2048)), 1.0)
        got = mixed_beat(spec, tau).samples
        want = analytic_beat(spec, tau).samples
        assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("kind", list(WaveformKind), ids=lambda k: k.value)
def test_oracle_matches_mix_oversampled_and_fractional_p(kind):
    # oversampled grids, up to 3x the minimum rate, allow delays between the
    # 1/(2B) points; the closed form must track the product there too
    rng = np.random.default_rng(7)
    for _ in range(15):
        nc, mult = int(rng.integers(64, 4096)), float(rng.uniform(1.0, 3.0))
        spec, tau = _random_tap(rng, kind, nc, mult)
        got = mixed_beat(spec, tau).samples
        want = analytic_beat(spec, tau).samples
        assert np.max(np.abs(got - want)) < 1e-9


def test_analytic_beat_tau_zero_is_constant_one():
    beat = analytic_beat(SPEC, 0.0)
    np.testing.assert_allclose(beat.samples, 1.0, atol=1e-12)


def test_analytic_beat_segment3_start_phase():
    # phase just past Tc+tau is pi*(a*tau^2 - 2*B*tau); seg3 starts at Nc+p
    for p in (3, 16, 200):
        tau = tap_of(p)
        beat = analytic_beat(SPEC, tau)
        want = np.pi * (SPEC.slope * tau**2 - 2 * B * tau)
        assert abs(np.angle(beat.samples[NC + p] * np.exp(-1j * want))) < 1e-9


def test_analytic_beat_seg1_tone_at_negative_p():
    # DFT of the first segment [p, Nc) alone peaks at bin -p of the full window
    p = 4
    beat = analytic_beat(SPEC, tap_of(p))
    seg1_only = np.zeros(len(beat), dtype=complex)
    seg1_only[p:NC] = beat.samples[p:NC]
    spectrum = np.fft.fft(seg1_only)
    assert np.argmax(np.abs(spectrum)) == len(beat) - p


def test_segment_partition_and_widths():
    # seg1 is [p, Nc), seg2 [Nc, Nc+p) and seg3 [Nc+p, 2Nc): the zero prefix
    # ends at p, and each constant tone holds up to its boundary and no further
    p = 37
    beat = analytic_beat(SPEC, tap_of(p)).samples
    assert beat.size == 2 * NC
    assert np.all(beat[:p] == 0)
    assert np.all(np.abs(beat[p:]) > 0.99)
    step = 2 * np.pi * SPEC.slope * tap_of(p) / SPEC.sample_rate_hz
    dphi = np.angle(beat[1:] * np.conj(beat[:-1]))  # phase(n+1) - phase(n)
    assert np.max(np.abs(dphi[p:NC] + step)) < 1e-9
    assert abs(dphi[NC] + step) > 1e-4
    assert np.max(np.abs(dphi[NC + p :] - step)) < 1e-9
    assert abs(dphi[NC + p - 1] - step) > 1e-4


def test_segment_discrete_frequencies():
    # tones at -a*tau on seg1 and +a*tau on seg3, a chirp of rate 2a on seg2
    p = 24
    tau = tap_of(p)
    beat = analytic_beat(SPEC, tau)
    fs = SPEC.sample_rate_hz
    dphi = np.angle(beat.samples[1:] * np.conj(beat.samples[:-1]))
    for seg, freq in ((slice(p, NC - 1), -SPEC.slope * tau),
                      (slice(NC + p, 2 * NC - 1), SPEC.slope * tau)):
        assert np.max(np.abs(dphi[seg] - 2 * np.pi * freq / fs)) < 1e-9
    trans = dphi[NC : NC + p - 1]
    steps = np.diff(trans)
    expect_step = 2 * np.pi * 2 * SPEC.slope / fs**2
    assert np.max(np.abs(steps - expect_step)) < 1e-9


def test_phase_consistency_integer_p():
    res = phase_consistency(SPEC, tap_of(7))
    assert res.consistent
    assert abs(res.mismatch) < 1e-9


def test_phase_consistency_tau_zero():
    res = phase_consistency(SPEC, 0.0)
    assert res.consistent and res.mismatch == 0.0


def test_phase_consistency_names_itself_on_a_non_triangle():
    lin = WaveformSpec(WaveformKind.LINEAR, B, TC)
    with pytest.raises(ValueError, match="^phase_consistency requires a triangle spec, got linear$"):
        phase_consistency(lin, tap_of(4))


def test_phase_consistency_half_offset_is_pi():
    # the mismatch lies in (-pi, pi]; round-half-even puts 5.5 and 6.5 on
    # opposite sides of their nearest integer, and both give +pi
    for p in (5.5, 6.5):
        res = phase_consistency(SPEC, tap_of(p))
        assert not res.consistent
        assert res.mismatch == np.pi


def test_consistency_iff_integer_p_sweep():
    for p in range(1, 60):
        assert phase_consistency(SPEC, tap_of(p)).consistent
        for frac in (0.25, 0.5, 0.9):
            assert not phase_consistency(SPEC, tap_of(p - frac)).consistent
    # B*Tc = 1e9, 1e10, 1e11: pi*a*tau^2 is far larger than the mismatch, so
    # only a test that reads p = 2B*tau itself keeps every integer p (specs
    # only, no signal is generated)
    for b, tc in ((1e5, 1e4), (1e5, 1e5), (1e6, 1e5)):
        spec = WaveformSpec(WaveformKind.TRIANGLE, b, tc)
        for p in np.round(np.linspace(1, spec.samples_per_chirp - 1, 998)):
            assert phase_consistency(spec, p / (2 * b)).consistent
            assert not phase_consistency(spec, (p - 0.5) / (2 * b)).consistent


def test_reference_beat_tau_zero_is_one():
    np.testing.assert_allclose(reference_tone(0.0), 1.0, atol=1e-12)


def test_reference_matches_analytic_on_seg1():
    p = 12
    ref = reference_tone(tap_of(p))
    ana = analytic_beat(SPEC, tap_of(p)).samples
    np.testing.assert_array_equal(ref[:p], ana[:p])
    assert np.max(np.abs(ref[p:NC] - ana[p:NC])) < 1e-9


def test_real_parts_align_on_seg3_at_integer_p():
    for p in (4, 7, 31):
        tau = tap_of(p)
        ref = reference_tone(tau)[NC + p :]
        ana = analytic_beat(SPEC, tau).samples[NC + p :]
        assert np.max(np.abs(np.real(ref) - np.real(ana))) < 1e-9
        # the complex segment is the conjugate of the tone there
        assert np.max(np.abs(ana - np.conj(ref))) < 1e-9


def test_reference_extended_pipeline_equivalence():
    # mixing an extended sweep against its delayed copy gives one tone at
    # -a*tau with phase offset pi*a*tau^2 over the whole symbol, zero before
    tau = 16 / (2 * B)
    got = mixed_beat(EXT, tau).samples
    d = round(tau * EXT.sample_rate_hz)
    t = np.arange(EXT.num_samples) / EXT.sample_rate_hz
    want = np.exp(1j * np.pi * (-2.0 * EXT.slope * tau * t + EXT.slope * tau**2))
    want[:d] = 0.0
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("f0, p", [(500.0, 48), (1234.0, 300)])
def test_start_frequency_is_a_tap_gain_rotation(f0, p):
    # A sweep from f0 rather than 0 Hz turns the beat of a path at delay tau
    # by exp(-j*2*pi*f0*tau) and changes nothing else, so a complex tap gain
    # already expresses it and a waveform needs no start frequency.
    spec = WaveformSpec(WaveformKind.TRIANGLE, B, TC, sample_rate_hz=32_000.0)
    a = spec.slope
    n = np.arange(spec.num_samples)
    t = n / spec.sample_rate_hz
    td = t - TC
    up = np.pi * a * t**2 + 2 * np.pi * f0 * t
    down = (np.pi * a * TC**2 + 2 * np.pi * f0 * TC
            + 2 * np.pi * (f0 + B) * td - np.pi * a * td**2)
    tx = np.exp(1j * np.where(n < spec.samples_per_chirp, up, down))
    tau = tap_of(p)
    shift = round(tau * spec.sample_rate_hz)
    rx = np.zeros_like(tx)
    rx[shift:] = tx[:-shift]
    rotated = mixed_beat(spec, tau, np.exp(-2j * np.pi * f0 * tau))
    assert np.max(np.abs(np.conj(tx) * rx - rotated.samples)) < 1e-9


def test_oracle_requires_triangle_and_tau_below_tc():
    # the oracle takes the taps apply_channel takes: below Tc on the
    # triangle, inside the signal on every other kind, and on the grid
    lin = WaveformSpec(WaveformKind.LINEAR, B, TC)
    with pytest.raises(ValueError, match="beyond the linear signal length"):
        analytic_beat(lin, lin.num_samples / lin.sample_rate_hz)
    with pytest.raises(ValueError, match="beyond the triangle up ramp"):
        analytic_beat(SPEC, TC)
    with pytest.raises(ValueError, match="off the grid"):
        analytic_beat(SPEC, tap_of(4.5))
