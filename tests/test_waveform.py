import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trifmcw import ComplexSignal, ConfigError, WaveformKind, WaveformSpec, generate, spectrogram
from trifmcw import waveform
from trifmcw.cli import main

B = 8000.0
TC = 0.1
FS = 16000.0


def tri_spec(**kw):
    args = dict(bandwidth_hz=B, chirp_duration_s=TC, sample_rate_hz=FS)
    args.update(kw)
    return WaveformSpec(WaveformKind.TRIANGLE, **args)


def linear_spec(n, fs):
    """A LINEAR spec whose grid holds `n` samples at `fs`."""
    return WaveformSpec(WaveformKind.LINEAR, fs / 2, n / fs, sample_rate_hz=fs)


def test_spec_derived_quantities():
    spec = tri_spec()
    assert spec.slope == B / TC
    assert spec.samples_per_chirp == 1600
    assert spec.num_samples == 3200


def test_default_sample_rates():
    assert WaveformSpec(WaveformKind.TRIANGLE, B, TC).sample_rate_hz == 2 * B
    assert WaveformSpec(WaveformKind.EXTENDED, B, TC).sample_rate_hz == 4 * B


def test_gentle_effective_slope_halved():
    spec = WaveformSpec(WaveformKind.GENTLE, B, TC)
    assert spec.effective_slope == spec.slope / 2
    assert tri_spec().effective_slope == B / TC


def test_non_integral_fs_tc_rejected():
    with pytest.raises(ConfigError, match="integer sample count"):
        WaveformSpec(WaveformKind.TRIANGLE, B, 0.10001, sample_rate_hz=16000.0)


def test_grid_below_one_sample_per_chirp_rejected():
    # fs*Tc = 2e-10 would round to an empty grid
    with pytest.raises(ConfigError, match="at least one sample per chirp"):
        WaveformSpec(WaveformKind.LINEAR, 1e-3, 1e-7)


@pytest.mark.parametrize("field", ["bandwidth_hz", "chirp_duration_s", "sample_rate_hz"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_spec_field_rejected_by_name(field, value):
    args = dict(bandwidth_hz=B, chirp_duration_s=TC, sample_rate_hz=FS)
    args[field] = value
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        WaveformSpec(WaveformKind.TRIANGLE, **args)


@pytest.mark.filterwarnings("error")
def test_chirp_rate_past_float_range_rejected(tmp_path, capsys):
    # B/Tc = 1e600 overflows; synthesis would turn it into nan samples.
    with pytest.raises(ConfigError, match=r"chirp rate B/Tc must be below .* got inf"):
        WaveformSpec(WaveformKind.TRIANGLE, 1e300, 1e-300)
    argv = ["waveform", "--bandwidth", "1e300", "--chirp", "1e-300", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "chirp rate" in err


def test_grid_past_numpy_indexing_rejected():
    # 2^59 linear samples take 2^63 bytes, one past np.iinfo(np.intp).max;
    # 64 samples fewer fit, and the spec allocates nothing.
    with pytest.raises(ConfigError, match=r"fs\*Tc=5.76461e\+17 gives 5.76461e\+17 complex"):
        WaveformSpec(WaveformKind.LINEAR, 2.0**57, 1.0, sample_rate_hz=2.0**59)
    spec = WaveformSpec(WaveformKind.LINEAR, 2.0**57, 1.0, sample_rate_hz=2.0**59 - 64)
    assert spec.num_samples * 16 == np.iinfo(np.intp).max - 1023


def test_fs_below_nyquist_bound_rejected():
    with pytest.raises(ConfigError, match="below the complex-baseband bound"):
        WaveformSpec(WaveformKind.TRIANGLE, B, TC, sample_rate_hz=8000.0)
    # extended sweeps 2B, so it needs 4B
    with pytest.raises(ConfigError, match="below the complex-baseband bound"):
        WaveformSpec(WaveformKind.EXTENDED, B, TC, sample_rate_hz=2 * B)


def test_triangle_first_sample_is_one():
    sig = generate(tri_spec())
    assert sig.samples[0] == 1 + 0j


def test_triangle_sample_at_junction():
    # B*Tc = 800, so the up-ramp phase at Tc is 800*pi, i.e. back at 1+0j.
    sig = generate(tri_spec())
    nc = tri_spec().samples_per_chirp
    assert abs(sig.samples[nc] - (1 + 0j)) < 1e-9


def test_triangle_symbol_end_phase_wraps_to_zero():
    # phase at Ts works out to an even multiple of pi for B*Tc = 800
    spec = tri_spec()
    sig = generate(spec)
    last = sig.samples[-1]
    t_last = (spec.num_samples - 1) / spec.sample_rate_hz
    td = t_last - spec.chirp_duration_s
    expected = (
        np.pi * spec.slope * spec.chirp_duration_s**2
        + 2 * np.pi * B * td
        - np.pi * spec.slope * td**2
    )
    assert abs(np.angle(last) - float(np.angle(np.exp(1j * expected)))) < 1e-9


@pytest.mark.parametrize("kind", list(WaveformKind))
def test_unit_modulus_everywhere(kind):
    spec = WaveformSpec(kind, B, TC)
    sig = generate(spec)
    assert len(sig) == spec.num_samples
    assert np.max(np.abs(np.abs(sig.samples) - 1.0)) < 1e-9


def test_phase_continuity_at_ramp_junction():
    # the first down-ramp sample continues the up-ramp phase
    for b, tc, fs in ((8000.0, 0.1, 16000.0), (4000.0, 0.05, 8000.0), (1000.0, 0.128, 2000.0)):
        spec = WaveformSpec(WaveformKind.TRIANGLE, b, tc, sample_rate_hz=fs)
        sig = generate(spec)
        nc = spec.samples_per_chirp
        up_limit = np.pi * spec.slope * tc**2
        diff = np.angle(sig.samples[nc] * np.exp(-1j * up_limit))
        assert abs(diff) < 1e-6


def test_conjugate_mirror_property():
    # down-ramp == conj(time-reversed up-ramp) up to one constant phase
    spec = WaveformSpec(WaveformKind.TRIANGLE, 500.0, 0.016, sample_rate_hz=1000.0)
    sig = generate(spec)
    nc = spec.samples_per_chirp
    ks = np.arange(1, nc)
    ratio = sig.samples[nc + ks] / np.conj(sig.samples[nc - ks])
    assert np.max(np.abs(ratio - ratio[0])) < 1e-9


def test_linear_equals_first_half_of_triangle():
    tri = generate(tri_spec())
    lin = generate(WaveformSpec(WaveformKind.LINEAR, B, TC, sample_rate_hz=FS))
    assert len(lin) == 1600
    np.testing.assert_allclose(
        lin.samples, tri.samples[:1600], rtol=0, atol=1e-12
    )


def test_sawtooth_repeats_the_up_chirp():
    spec = WaveformSpec(WaveformKind.SAWTOOTH, B, TC, sample_rate_hz=FS)
    sig = generate(spec)
    nc = spec.samples_per_chirp
    np.testing.assert_allclose(sig.samples[nc:], sig.samples[:nc], rtol=0, atol=1e-12)


def _frame_freqs(matrix, fs, window_len):
    bins = np.argmax(matrix, axis=1).astype(float)
    bins[bins > window_len / 2] -= window_len
    return bins * fs / window_len


def test_spectrogram_constant_signal_all_dc():
    sig = ComplexSignal(np.ones(512, dtype=complex), linear_spec(512, 1000.0))
    _, mat = spectrogram(sig)  # window Nc/16 = 32, hop 16
    assert mat.shape == ((512 - 32) // 16 + 1, 32)
    assert np.all(np.argmax(mat, axis=1) == 0)
    assert np.all(np.isfinite(mat.sum(axis=1)))


def test_spectrogram_triangle_rises_then_falls():
    spec = tri_spec()
    sig = generate(spec)
    wl, hop = 100, 50
    _, mat = spectrogram(sig)
    assert mat.shape[1] == wl
    freqs = _frame_freqs(mat, FS, wl)
    centers = np.arange(mat.shape[0]) * hop + wl / 2
    t = centers / FS
    expected = np.where(t < TC, spec.slope * t, B - spec.slope * (t - TC))
    # frames overlapping the ramp junction smear; skip them
    keep = np.abs(t - TC) > wl / FS
    assert np.max(np.abs(freqs[keep] - expected[keep])) < 2.5 * FS / wl
    peak_frame = int(np.argmax(freqs))
    assert np.all(np.diff(freqs[: peak_frame + 1]) > -1e-9)
    assert np.all(np.diff(freqs[peak_frame:]) < 1e-9)


def test_spectrogram_sawtooth_resets_at_midpoint():
    spec = WaveformSpec(WaveformKind.SAWTOOTH, B, TC, sample_rate_hz=FS)
    sig = generate(spec)
    wl, hop = 100, 50
    _, mat = spectrogram(sig)
    freqs = _frame_freqs(mat, FS, wl)
    mid = spec.samples_per_chirp // hop
    assert freqs[mid - 2] > freqs[mid + 1]  # drops back down after the reset
    assert freqs[mid + 4] > freqs[mid + 1]  # and rises again


@pytest.mark.parametrize("kind, nc, window, hop", [
    (WaveformKind.LINEAR, 1, 1, 1),
    (WaveformKind.LINEAR, 2, 1, 1),
    (WaveformKind.TRIANGLE, 15, 1, 1),
    (WaveformKind.SAWTOOTH, 16, 1, 1),
    (WaveformKind.LINEAR, 47, 2, 1),
    (WaveformKind.GENTLE, 48, 3, 1),
    (WaveformKind.TRIANGLE, 1600, 100, 50),
])
def test_spectrogram_frames_its_chirp(kind, nc, window, hop):
    # The window is Nc/16 and the hop half a window, each at least one sample.
    fs = 3.0
    spec = WaveformSpec(kind, fs / 4, nc / fs, sample_rate_hz=fs)
    sig = generate(spec)
    times, mat = spectrogram(sig)
    frames = (len(sig) - window) // hop + 1
    assert mat.shape == (frames, window)
    assert window > 1 or frames == len(sig)  # one frame per sample
    np.testing.assert_array_equal(times, np.arange(frames) * hop / fs)
    start = hop * (frames - 1)
    last = np.abs(np.fft.fft(sig.samples[start:start + window] * np.hanning(window))) ** 2
    np.testing.assert_array_equal(mat[-1], last)


def test_signal_rejects_buffer_off_its_spec_grid():
    spec = tri_spec()
    with pytest.raises(ValueError, match=r"shape \(3199,\) does not match .* 3200"):
        ComplexSignal(np.ones(3199, dtype=complex), spec)
    with pytest.raises(ValueError, match="does not match"):
        ComplexSignal(np.ones((2, 1600), dtype=complex), spec)


def test_signal_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        ComplexSignal(np.array([1.0, np.nan * 1j]), linear_spec(2, 100.0))


def _exp_reference_phase(spec):
    """Phase of every sample as np.where over whole-array formulas gives it.

    The samples of :func:`generate` must equal ``np.exp(1j * phase)`` of this
    phase bit for bit.
    """
    n = np.arange(spec.num_samples)
    t = n / spec.sample_rate_hz
    a = spec.effective_slope
    if spec.kind is WaveformKind.TRIANGLE:
        tc = spec.chirp_duration_s
        up = np.pi * a * t**2
        td = t - tc
        dn = np.pi * a * tc**2 + 2.0 * np.pi * spec.bandwidth_hz * td - np.pi * a * td**2
        return np.where(n >= spec.samples_per_chirp, dn, up)
    if spec.kind is WaveformKind.SAWTOOTH:
        t = np.where(n < spec.samples_per_chirp, t, t - spec.chirp_duration_s)
    return np.pi * a * t**2


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(WaveformKind)),
    bandwidth=st.sampled_from([500.0, 8000.0, 48000.0]),
    fs_over_b=st.sampled_from([2.0, 3.0, 4.0, 10.72]),
    nc=st.integers(min_value=1, max_value=50_000),
)
@example(WaveformKind.TRIANGLE, 48000.0, 2.0, 48_000)
@example(WaveformKind.TRIANGLE, 48000.0, 10.72, 20_000)
@example(WaveformKind.SAWTOOTH, 8000.0, 2.0, 20_000)
@example(WaveformKind.GENTLE, 8000.0, 3.0, 20_000)
@example(WaveformKind.EXTENDED, 48000.0, 4.0, 20_000)
@example(WaveformKind.LINEAR, 500.0, 10.72, 40_000)
def test_generate_equals_exp_of_the_phase_bitwise(kind, bandwidth, fs_over_b, nc):
    fs = fs_over_b * bandwidth
    try:
        spec = WaveformSpec(kind, bandwidth, nc / fs, sample_rate_hz=fs)
    except ConfigError:
        assume(False)  # fs below this sweep's band edge
    got = generate(spec).samples
    want = np.exp(1j * _exp_reference_phase(spec))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty waveform cache for this test; the process's own is restored after."""
    monkeypatch.setattr(waveform, "_cache", {})
    return waveform._cache


def test_cached_waveform_equals_a_fresh_synthesis_bitwise(cold_cache):
    for kind in WaveformKind:
        spec = WaveformSpec(kind, B, TC, sample_rate_hz=40_000.0)
        first = generate(spec)
        assert generate(spec) is first
        cold_cache.clear()
        fresh = generate(spec)
        assert fresh is not first
        assert np.array_equal(first.samples.view(np.uint64), fresh.samples.view(np.uint64))


def test_generated_samples_are_read_only(cold_cache, monkeypatch):
    sig = generate(tri_spec())
    with pytest.raises(ValueError, match="read-only"):
        sig.samples[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        sig.samples *= 2
    # A waveform over the whole budget is not kept, and is read-only all the same.
    monkeypatch.setattr(waveform, "_CACHE_BYTES", 1024)
    big = generate(tri_spec(sample_rate_hz=2 * FS))
    assert big.spec not in cold_cache
    with pytest.raises(ValueError, match="read-only"):
        big.samples[0] = 0


def test_equal_specs_share_one_cache_entry(cold_cache):
    sig = generate(WaveformSpec(WaveformKind.TRIANGLE, 8000, 0.1))
    same = WaveformSpec(WaveformKind.TRIANGLE, 8000.0, 0.1, sample_rate_hz=16_000.0)
    assert generate(same) is sig
    assert repr(sig.spec) == repr(same)  # an int B is held as the float it equals
    assert list(cold_cache) == [same]


def test_cached_bytes_never_exceed_the_budget(cold_cache, monkeypatch):
    budget = 3 * tri_spec().num_samples * 16  # three desk triangles
    monkeypatch.setattr(waveform, "_CACHE_BYTES", budget)
    rng = np.random.default_rng(5)
    for fs_over_b in rng.choice([2, 3, 4, 6, 8], size=30):
        sig = generate(tri_spec(sample_rate_hz=float(fs_over_b) * B))
        assert sum(s.samples.nbytes for s in cold_cache.values()) <= budget
        assert (sig.spec in cold_cache) == (sig.samples.nbytes <= budget)
