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
    beat_segments,
    generate,
    mix,
    phase_consistency,
    reference_beat,
    wrap_to_pi,
)

B = 8000.0
TC = 0.1
SPEC = WaveformSpec(WaveformKind.TRIANGLE, B, TC)


def tap_of(p):
    return p / (2 * B)


def mixed_beat(spec, tau, gain=1.0):
    tx = generate(spec)
    rx = apply_channel(tx, ChannelModel((ChannelTap(tau, gain),)))
    return mix(tx, rx)


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
    with pytest.raises(ValueError, match="length mismatch"):
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


def test_oracle_matches_mix_randomized():
    # the closed form must track the mixed product for any grid delay,
    # odd or even p included (the transition constant depends on it)
    rng = np.random.default_rng(99)
    for _ in range(25):
        nc = int(rng.integers(64, 2048))
        b = float(rng.uniform(500, 16000))
        fs = 2 * b
        tc = nc / fs
        spec = WaveformSpec(WaveformKind.TRIANGLE, b, tc, sample_rate_hz=fs)
        p = int(rng.integers(0, nc // 2))
        tau = p / (2 * b)
        got = mixed_beat(spec, tau).samples
        want = analytic_beat(spec, tau).samples
        assert np.max(np.abs(got - want)) < 1e-9


def test_oracle_matches_mix_oversampled_and_fractional_p():
    # oversampled grids allow delays between the 1/(2B) points; the closed
    # form must track the product there too
    rng = np.random.default_rng(7)
    for _ in range(15):
        nc_base = int(rng.integers(50, 800))
        b = float(rng.uniform(800, 12000))
        mult = int(rng.choice([2, 4, 8]))
        fs = mult * b
        nc = nc_base * mult
        spec = WaveformSpec(WaveformKind.TRIANGLE, b, nc / fs, sample_rate_hz=fs)
        tau = int(rng.integers(0, nc // 2)) / fs
        got = mixed_beat(spec, tau).samples
        want = analytic_beat(spec, tau).samples
        assert np.max(np.abs(got - want)) < 1e-9


def test_analytic_beat_tau_zero_is_constant_one():
    beat = analytic_beat(SPEC, 0.0)
    np.testing.assert_allclose(beat.samples, 1.0, atol=1e-12)


def test_analytic_beat_segment3_start_phase():
    # phase just past Tc+tau is pi*(a*tau^2 - 2*B*tau)
    for p in (3, 16, 200):
        tau = tap_of(p)
        beat = analytic_beat(SPEC, tau)
        segs = beat_segments(SPEC, tau)
        got = np.angle(beat.samples[segs.seg3.n_start])
        want = wrap_to_pi(np.pi * (SPEC.slope * tau**2 - 2 * B * tau))
        assert abs(wrap_to_pi(got - want)) < 1e-9


def test_analytic_beat_seg1_tone_at_negative_p():
    # DFT of the first segment alone peaks at bin -p of the full window
    tau = tap_of(4)
    beat = analytic_beat(SPEC, tau)
    segs = beat_segments(SPEC, tau)
    seg1_only = np.zeros(len(beat), dtype=complex)
    seg1_only[segs.seg1.n_start : segs.seg1.n_stop] = beat.samples[
        segs.seg1.n_start : segs.seg1.n_stop
    ]
    spectrum = np.fft.fft(seg1_only)
    assert np.argmax(np.abs(spectrum)) == len(beat) - 4


def test_segment_partition_and_widths():
    tau = tap_of(37)
    segs = beat_segments(SPEC, tau)
    assert segs.seg1.n_start == 37
    assert segs.seg1.n_stop == segs.seg2.n_start == SPEC.samples_per_chirp
    assert segs.seg2.n_stop == segs.seg3.n_start == SPEC.samples_per_chirp + 37
    assert segs.seg3.n_stop == SPEC.num_samples
    assert segs.seg1.frequency_hz == -SPEC.slope * tau
    assert segs.seg3.frequency_hz == SPEC.slope * tau
    assert segs.seg2.chirp_rate_hz_per_s == 2 * SPEC.slope


def test_segment_discrete_frequencies():
    tau = tap_of(24)
    beat = analytic_beat(SPEC, tau)
    segs = beat_segments(SPEC, tau)
    fs = SPEC.sample_rate_hz
    dphi = np.angle(beat.samples[1:] * np.conj(beat.samples[:-1]))
    for seg in (segs.seg1, segs.seg3):
        inner = dphi[seg.n_start : seg.n_stop - 1]
        expect = 2 * np.pi * seg.frequency_hz / fs
        assert np.max(np.abs(inner - expect)) < 1e-9
    trans = dphi[segs.seg2.n_start : segs.seg2.n_stop - 1]
    steps = np.diff(trans)
    expect_step = 2 * np.pi * segs.seg2.chirp_rate_hz_per_s / fs**2
    assert np.max(np.abs(steps - expect_step)) < 1e-9


def test_phase_consistency_integer_p():
    res = phase_consistency(SPEC, tap_of(7))
    assert res.consistent
    assert abs(res.mismatch) < 1e-9


def test_phase_consistency_tau_zero():
    res = phase_consistency(SPEC, 0.0)
    assert res.consistent and res.mismatch == 0.0


def test_phase_consistency_half_offset_is_pi():
    res = phase_consistency(SPEC, tap_of(5.5))
    assert not res.consistent
    assert abs(abs(res.mismatch) - np.pi) < 1e-9


def test_consistency_iff_integer_p_sweep():
    for p in range(1, 60):
        assert phase_consistency(SPEC, tap_of(p)).consistent
        for frac in (0.25, 0.5, 0.9):
            assert not phase_consistency(SPEC, tap_of(p - frac)).consistent


def test_reference_beat_tau_zero_is_one():
    np.testing.assert_allclose(reference_beat(SPEC, 0.0).samples, 1.0, atol=1e-12)


def test_reference_matches_analytic_on_seg1_exactly():
    tau = tap_of(12)
    ref = reference_beat(SPEC, tau).samples
    ana = analytic_beat(SPEC, tau).samples
    segs = beat_segments(SPEC, tau)
    s1 = slice(segs.seg1.n_start, segs.seg1.n_stop)
    np.testing.assert_array_equal(ref[s1], ana[s1])


def test_real_parts_align_on_seg3_at_integer_p():
    for p in (4, 7, 31):
        tau = tap_of(p)
        ref = reference_beat(SPEC, tau).samples
        ana = analytic_beat(SPEC, tau).samples
        segs = beat_segments(SPEC, tau)
        s3 = slice(segs.seg3.n_start, segs.seg3.n_stop)
        assert np.max(np.abs(np.real(ref[s3]) - np.real(ana[s3]))) < 1e-9
        # the complex segment is the conjugate of the tone there
        assert np.max(np.abs(ana[s3] - np.conj(ref[s3]))) < 1e-9


def test_reference_extended_pipeline_equivalence():
    # mixing an extended sweep against its delayed copy gives the same tone
    ext = WaveformSpec(WaveformKind.EXTENDED, B, TC)
    tau = 16 / (2 * B)
    tx = generate(ext)
    rx = apply_channel(tx, ChannelModel((ChannelTap(tau, 1.0),)))
    got = mix(tx, rx).samples
    same_rate = WaveformSpec(
        WaveformKind.TRIANGLE, B, TC, sample_rate_hz=ext.sample_rate_hz
    )
    want = reference_beat(same_rate, tau).samples
    assert np.max(np.abs(got - want)) < 1e-9


def test_wrap_to_pi_scalar_and_array():
    assert wrap_to_pi(0.0) == 0.0
    assert wrap_to_pi(np.pi) == np.pi  # pi stays pi in (-pi, pi]
    assert wrap_to_pi(-np.pi) == np.pi
    assert wrap_to_pi(3 * np.pi) == pytest.approx(np.pi)
    arr = wrap_to_pi(np.array([0.0, 2 * np.pi + 0.1, -0.1 - 2 * np.pi]))
    np.testing.assert_allclose(arr, [0.0, 0.1, -0.1], atol=1e-12)


def test_oracle_requires_triangle_and_zero_f0():
    lin = WaveformSpec(WaveformKind.LINEAR, B, TC)
    with pytest.raises(ValueError, match="triangle"):
        analytic_beat(lin, tap_of(4))
    shifted = WaveformSpec(
        WaveformKind.TRIANGLE, B, TC, start_freq_hz=100.0, sample_rate_hz=4 * B
    )
    with pytest.raises(ValueError, match="start frequency"):
        analytic_beat(shifted, tap_of(4))
    with pytest.raises(ValueError, match="tau"):
        analytic_beat(SPEC, TC)
