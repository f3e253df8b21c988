import re

import numpy as np
import pytest

from trifmcw import (
    ChannelModel,
    ChannelTap,
    ComplexSignal,
    Peak,
    PeakSet,
    RangeMapping,
    RangeProfile,
    WaveformKind,
    WaveformSpec,
    analytic_beat,
    apply_channel,
    detect_peaks,
    energy_dominance,
    generate,
    mix,
    range_profile,
    sntr,
)
from trifmcw.experiments import run_sntr_sweep

B = 8000.0
TC = 0.1
SPEC = WaveformSpec(WaveformKind.TRIANGLE, B, TC)
MAP = RangeMapping(343.0)


def tap_of(p):
    return p / (2 * B)


def channel_beat(spec, taps):
    tx = generate(spec)
    rx = apply_channel(tx, ChannelModel(tuple(ChannelTap(d, g) for d, g in taps)))
    return mix(tx, rx)


def unit_beat(spec, ps):
    return channel_beat(spec, [(tap_of(p), 1.0) for p in ps])


def test_constant_beat_is_all_dc():
    beat = analytic_beat(SPEC, 0.0)
    spectrum = np.fft.fft(np.real(beat.samples))
    assert np.argmax(np.abs(spectrum)) == 0
    assert abs(spectrum[0]) == pytest.approx(SPEC.num_samples)


def test_hermitian_symmetry():
    beat = unit_beat(SPEC, [13])
    spectrum = np.fft.fft(np.real(beat.samples))
    mirrored = np.conj(spectrum[::-1])
    np.testing.assert_allclose(
        spectrum[1:], mirrored[:-1], rtol=1e-9, atol=1e-6 * np.abs(spectrum).max()
    )


def test_parseval():
    beat = unit_beat(SPEC, [21])
    spectrum = np.fft.fft(np.real(beat.samples))
    lhs = len(beat) * np.sum(np.real(beat.samples) ** 2)
    rhs = np.sum(np.abs(spectrum) ** 2)
    assert abs(lhs - rhs) / rhs < 1e-6


def test_integer_p_peaks_at_p_and_mirror():
    p = 24
    beat = analytic_beat(SPEC, tap_of(p))
    spectrum = np.abs(np.fft.fft(np.real(beat.samples)))
    n = len(beat)
    assert int(np.argmax(spectrum)) in (p, n - p)
    assert spectrum[p] == pytest.approx(spectrum[n - p], rel=1e-9)


def test_peak_bin_value_magnitude_and_phase():
    # |Y(p)| ~ (Nc - Ntau) with phase -pi*a*tau^2 for small delay fractions
    p = 16  # Ntau/Nc = 0.01
    tau = tap_of(p)
    beat = unit_beat(SPEC, [p])
    y_p = np.fft.fft(np.real(beat.samples))[p]
    n_c = SPEC.samples_per_chirp
    assert abs(np.abs(y_p) - (n_c - p)) / (n_c - p) < 0.02
    phase_err = np.angle(y_p * np.exp(1j * np.pi * SPEC.slope * tau**2))
    assert abs(phase_err) < 0.05


def test_range_profile_bin_mapping():
    beat = unit_beat(SPEC, [48, 50, 56, 57])
    profile = range_profile(beat, MAP)
    assert profile.num_bins == SPEC.num_samples // 2 + 1
    assert profile.bin_spacing_m == pytest.approx(343.0 / (4 * B))
    ranges = {pk.bin_p: pk.range_m for pk in detect_peaks(profile)}
    assert sorted(ranges) == [48, 50, 56, 57]
    assert ranges[48] == pytest.approx(0.51450, abs=5e-6)
    assert ranges[50] == pytest.approx(0.53594, abs=5e-6)
    assert ranges[56] == pytest.approx(0.60025, abs=5e-6)
    assert ranges[57] == pytest.approx(0.61097, abs=5e-6)


def test_zero_beat_gives_zero_profile_and_no_peaks():
    beat = ComplexSignal(np.zeros(SPEC.num_samples, complex), SPEC)
    profile = range_profile(beat, MAP)
    assert np.all(profile.bin_power == 0)
    assert len(detect_peaks(profile)) == 0


def test_gentle_profile_spacing_doubles():
    gentle = WaveformSpec(WaveformKind.GENTLE, B, TC)
    beat = channel_beat(gentle, [(tap_of(24), 1.0)])
    profile = range_profile(beat, MAP)
    assert profile.bin_spacing_m == pytest.approx(343.0 / (2 * B))


def test_single_tone_single_peak():
    beat = analytic_beat(SPEC, tap_of(10))
    peaks = detect_peaks(range_profile(beat, MAP))
    assert len(peaks) == 1
    assert peaks.bins == (10,)


def test_four_path_peaks_at_default_threshold():
    beat = unit_beat(SPEC, [48, 50, 56, 57])
    peaks = detect_peaks(range_profile(beat, MAP), rel_threshold_db=-12.0)
    assert peaks.bins == (48, 50, 56, 57)


def test_sawtooth_four_path_does_not_separate_the_close_pair():
    saw = WaveformSpec(WaveformKind.SAWTOOTH, B, TC)
    beat = unit_beat(saw, [48, 50, 56, 57])
    peaks = detect_peaks(range_profile(beat, MAP))
    assert not (56 in peaks.bins and 57 in peaks.bins)


def test_dc_beat_dominance_is_one():
    beat = analytic_beat(SPEC, 0.0)
    assert energy_dominance(beat, 0) == pytest.approx(1.0)


def test_dominance_high_for_small_delay_fraction():
    beat = unit_beat(SPEC, [16])  # Ntau/Nc = 0.01
    assert energy_dominance(beat, 16) >= 0.95


def test_dominance_follows_the_energy_prediction_over_the_sntr_sweep_grid():
    # One real unit tap at x = p/Nc: of the N = 2*Nc samples, the two
    # coherent segments hold N*(1-x) and the non-zero beat N*(1-x/2), so the
    # bin pair holds (1-x)^2/(1-x/2) of the energy. The transition chirp's leakage
    # into bin p only adds to it: measured residuals lie in
    # [+0.0003, +0.0273] on this grid, the largest at p = 93.
    _, rows = run_sntr_sweep().tables["sntr_sweep"]
    n_c = SPEC.samples_per_chirp
    assert len(rows) == 40
    for x, _ in rows:
        p = round(x * n_c)
        residual = energy_dominance(unit_beat(SPEC, [p]), p) - (1 - x) ** 2 / (1 - x / 2)
        assert 0.0 <= residual <= 0.03, (p, residual)


def test_dominance_sawtooth_below_triangle():
    p = 17  # odd p: the sawtooth tone splits and loses the bin pair
    saw = WaveformSpec(WaveformKind.SAWTOOTH, B, TC)
    tri_dom = energy_dominance(unit_beat(SPEC, [p]), p)
    saw_dom = energy_dominance(unit_beat(saw, [p]), p)
    assert saw_dom < tri_dom


def test_quadrature_gain_breaks_real_part_coherence():
    # a 90-degree path gain flips the real part's sign between halves and
    # pushes the energy into odd sidebands around the true bin
    p = 20
    aligned = channel_beat(SPEC, [(tap_of(p), 1.0)])
    quadrature = channel_beat(SPEC, [(tap_of(p), 1j)])
    assert energy_dominance(aligned, p) > 0.95
    assert energy_dominance(quadrature, p) < 0.1
    prof = range_profile(quadrature, MAP)
    assert int(np.argmax(prof.bin_power)) in (p - 1, p + 1)


def test_dominance_bin_out_of_range_rejected():
    beat = analytic_beat(SPEC, tap_of(4))
    with pytest.raises(ValueError, match="outside the profile range"):
        energy_dominance(beat, SPEC.num_samples)


def test_sntr_reference_tone_floor():
    # the extended sweep's beat is the single reference tone, bin p = 1
    beat = unit_beat(WaveformSpec(WaveformKind.EXTENDED, B, TC), [1])
    profile = range_profile(beat, MAP)
    assert sntr(profile, 1) >= 60.0


def test_sntr_large_delay_stays_detectable():
    p = 640  # tau = 0.4 * Tc
    beat = unit_beat(SPEC, [p])
    profile = range_profile(beat, MAP)
    assert sntr(profile, p) >= -7.4


def test_sntr_validates_arguments():
    profile = range_profile(unit_beat(SPEC, [8]), MAP)
    with pytest.raises(ValueError, match="outside the profile"):
        sntr(profile, profile.num_bins)


def test_non_integer_bin_is_a_value_error_naming_it():
    # a float bin is refused as a bad bin, not as an indexing error; numpy
    # integers index as ints do
    beat = analytic_beat(SPEC, tap_of(48))
    profile = range_profile(beat, MAP)
    for bad in (48.0, np.float64(48.0), "48"):
        message = re.escape(f"bin {bad!r} is not an integer")
        with pytest.raises(ValueError, match=message):
            energy_dominance(beat, bad)
        with pytest.raises(ValueError, match=message):
            sntr(profile, bad)
    assert energy_dominance(beat, np.int64(48)) == energy_dominance(beat, 48)
    assert sntr(profile, np.int32(48)) == sntr(profile, 48)


def test_sntr_infinite_for_noise_free_profile():
    profile = range_profile(analytic_beat(SPEC, 0.0), MAP)
    assert sntr(profile, 0) == np.inf


def test_resolution_doubling_adjacent_bins():
    saw = WaveformSpec(WaveformKind.SAWTOOTH, B, TC)
    for p in (10, 25, 60):
        tri_peaks = detect_peaks(
            range_profile(unit_beat(SPEC, [p, p + 1]), MAP), -3.0
        )
        saw_peaks = detect_peaks(
            range_profile(unit_beat(saw, [p, p + 1]), MAP), -3.0
        )
        assert tri_peaks.bins == (p, p + 1)
        assert len(saw_peaks) == 1


def test_bin_exactness_single_tap():
    for p in (8, 33, 101):
        profile = range_profile(unit_beat(SPEC, [p]), MAP)
        assert int(np.argmax(profile.bin_power)) == p


def test_single_real_tap_listed_alone_only_below_x_0218():
    # at -12 dB the p-2 lobe of one real tap crosses the threshold between
    # p = 348 and p = 349 (x = p/Nc = 0.218 at Nc = 1600)
    assert detect_peaks(range_profile(unit_beat(SPEC, [348]), MAP)).bins == (348,)
    assert detect_peaks(range_profile(unit_beat(SPEC, [349]), MAP)).bins == (347, 349)


def test_straddling_tap_detected_between_bins():
    # a half-bin tap, p = 20.5, lies on the grid of fs = 4B
    p = 20
    spec = WaveformSpec(WaveformKind.TRIANGLE, B, TC, sample_rate_hz=4 * B)
    beat = channel_beat(spec, [(tap_of(p + 0.5), 1.0)])
    profile = range_profile(beat, MAP)
    argmax = int(np.argmax(profile.bin_power))
    assert argmax in (p, p + 1)
    gap_db = 10 * np.log10(profile.bin_power[p] / profile.bin_power[p + 1])
    assert abs(gap_db) <= 4.0
    peaks = detect_peaks(profile)
    assert len(peaks) == 1
    assert peaks.bins[0] in (p, p + 1)


def test_detect_peaks_threshold_validation():
    profile = range_profile(unit_beat(SPEC, [8]), MAP)
    with pytest.raises(ValueError, match="rel_threshold_db"):
        detect_peaks(profile, rel_threshold_db=1.0)


def test_dc_peak_detected_at_boundary_bin():
    beat = analytic_beat(SPEC, 0.0)
    peaks = detect_peaks(range_profile(beat, MAP))
    assert peaks.bins == (0,)


@pytest.mark.parametrize("speed", [0.0, -343.0, np.inf, np.nan])
def test_range_mapping_rejects_bad_speed(speed):
    with pytest.raises(ValueError, match="finite and > 0"):
        RangeMapping(speed)


def test_range_profile_rejects_single_sample_beat():
    one = WaveformSpec(WaveformKind.LINEAR, 5.0, 0.1)  # fs*Tc = 1 sample
    beat = ComplexSignal(np.ones(1, complex), one)
    with pytest.raises(ValueError, match="at least two samples"):
        range_profile(beat, MAP)


@pytest.mark.parametrize(
    "spec, ps",
    [
        (SPEC, [48, 50, 56, 57]),
        (WaveformSpec(WaveformKind.SAWTOOTH, B, TC), [17, 40]),
        (WaveformSpec(WaveformKind.GENTLE, B, TC), [24]),
        (WaveformSpec(WaveformKind.LINEAR, B, TC), [9, 31]),
        (WaveformSpec(WaveformKind.EXTENDED, B, TC), [12, 70]),
        # fs*Tc = 1601 samples: an odd-length beat has no Nyquist bin
        (WaveformSpec(WaveformKind.LINEAR, B, TC, sample_rate_hz=16_010.0), [5, 23]),
    ],
    ids=["triangle", "sawtooth", "gentle", "linear", "extended", "linear_odd"],
)
def test_range_profile_matches_full_spectrum_half(spec, ps):
    fs = spec.sample_rate_hz
    beat = channel_beat(spec, [(p / fs, 1.0 - 0.1j * k) for k, p in enumerate(ps)])
    n = len(beat)
    profile = range_profile(beat, MAP)
    expected = np.abs(np.fft.fft(np.real(beat.samples))[: n // 2 + 1]) ** 2
    assert profile.num_bins == n // 2 + 1
    np.testing.assert_allclose(profile.bin_power, expected, rtol=1e-9, atol=0)


@pytest.mark.parametrize("kind", list(WaveformKind), ids=lambda kind: kind.value)
def test_range_profile_is_the_squared_rfft_magnitude_bitwise(kind):
    spec = WaveformSpec(kind, B, TC)
    fs = spec.sample_rate_hz
    beat = channel_beat(spec, [(9 / fs, 1.0), (31 / fs, -0.5 + 0.25j), (70 / fs, 0.75j)])
    want = np.abs(np.fft.rfft(beat.samples.real)) ** 2
    got = range_profile(beat, MAP).bin_power
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_range_profile_bound_reads_the_largest_real_magnitude(sign):
    # 3200 samples of 2^500 sum to 2^511.6, inside the bound; 2^501 is past it.
    samples = np.full(SPEC.num_samples, 0.5 + 1e300j)
    samples[17] = sign * 2.0**500
    range_profile(ComplexSignal(samples, SPEC), MAP)
    samples[17] = sign * 2.0**501
    with pytest.raises(ValueError, match=re.escape(
            f"beat is too large for a finite profile: 3200 samples of magnitude up to "
            f"{2.0**501:.6g} can")):
        range_profile(ComplexSignal(samples, SPEC), MAP)


def _reference_detect_peaks(profile, rel_threshold_db=-12.0):
    """The original bin-by-bin loop that detect_peaks must reproduce exactly."""
    power = profile.bin_power
    n = power.size
    peak_max = float(power.max())
    if peak_max <= 0.0:
        return PeakSet(())
    threshold = peak_max * 10.0 ** (rel_threshold_db / 10.0)

    def is_candidate(i):
        return power[i] >= threshold

    found = set()
    for i in range(n):
        if not is_candidate(i):
            continue
        left_ok = i == 0 or power[i - 1] < power[i]
        right_ok = i == n - 1 or power[i + 1] < power[i]
        if left_ok and right_ok:
            found.add(i)

    twin_floor_scale = 10.0 ** (-14.0 / 10.0)
    for i in sorted(found):
        for j in (i - 1, i + 1):
            if j < 0 or j >= n or j in found or not is_candidate(j):
                continue
            floor = max(power[i], power[j]) * twin_floor_scale
            outer_lo = min(i, j) - 1
            outer_hi = max(i, j) + 1
            lo_ok = outer_lo < 0 or power[outer_lo] < floor
            hi_ok = outer_hi >= n or power[outer_hi] < floor
            if lo_ok and hi_ok:
                found.add(j)

    peaks = tuple(
        Peak(i, i * profile.bin_spacing_m, float(power[i])) for i in sorted(found)
    )
    return PeakSet(peaks)


def _tiny_profile(rng):
    """n = 1, 2 or 3, with ties as likely as distinct values."""
    n = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        return rng.integers(0, 3, size=n).astype(float)
    return rng.random(n)


def _plateau_profile(rng):
    """Integer levels repeated in runs: plateaus and ties everywhere."""
    levels = rng.integers(0, 6, size=int(rng.integers(1, 25)))
    return np.repeat(levels, rng.integers(1, 4, size=levels.size)).astype(float)


def _twin_profile(rng):
    """Low floor with planted adjacent-bin pairs, one of them often on an edge."""
    n = int(rng.integers(8, 120))
    power = rng.random(n) * 10.0 ** rng.uniform(-4.0, -1.0)
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(0, n - 1))
        power[k] = 1.0
        power[k + 1] = 10.0 ** rng.uniform(-1.5, 0.0)
        if rng.random() < 0.5:
            power[k], power[k + 1] = power[k + 1], power[k]
        if rng.random() < 0.3 and k + 2 < n:
            power[k + 2] = 10.0 ** rng.uniform(-2.0, -0.5)  # flank near the floor
        elif rng.random() < 0.5:
            # a flank exactly on the default twin floor: not below it
            flank = k + 2 if rng.random() < 0.5 else k - 1
            if 0 <= flank < n:
                power[flank] = max(power[k], power[k + 1]) * 10.0 ** (-14.0 / 10.0)
    if rng.random() < 0.3:
        power[[0, 1]] = [1.0, 10.0 ** rng.uniform(-1.0, 0.0)]
    return power


def _boundary_profile(rng):
    """Strongest bins at index 0 and at the last index."""
    n = int(rng.integers(2, 60))
    power = rng.random(n) * 0.3
    power[0] = 1.0 + rng.random()
    power[-1] = 1.0 + rng.random()
    if rng.random() < 0.3:
        power[-1] = power[-2]  # a tie at the edge is not a peak
    return power


def _noise_profile(rng):
    """Exponential noise with a few tones: many local maxima near threshold."""
    n = int(rng.integers(4, 300))
    power = rng.exponential(size=n)
    power[rng.integers(0, n, size=3)] *= 10.0 ** rng.uniform(0.0, 2.0, size=3)
    if rng.random() < 0.2:
        power = np.round(power)
    return power


def _threshold_profile(rng):
    """Bins exactly on the -3, -12 and -40 dB thresholds: they are candidates."""
    n = int(rng.integers(3, 40))
    power = rng.random(n) * 0.5
    power[int(rng.integers(0, n))] = 1.0
    for threshold_db in (-3.0, -12.0, -40.0):
        power[int(rng.integers(0, n))] = 10.0 ** (threshold_db / 10.0)
    if rng.random() < 0.5:
        power[power < 0.0001] = 0.0
    return power


PROFILE_FAMILIES = {
    "threshold": _threshold_profile,
    "tiny": _tiny_profile,
    "plateau": _plateau_profile,
    "twin": _twin_profile,
    "boundary": _boundary_profile,
    "noise": _noise_profile,
}


@pytest.mark.parametrize("family", sorted(PROFILE_FAMILIES))
def test_detect_peaks_matches_reference_loop(family):
    make = PROFILE_FAMILIES[family]
    rng = np.random.default_rng(sorted(PROFILE_FAMILIES).index(family))
    twins = edges = 0
    for _ in range(100):
        power = make(rng)
        profile = RangeProfile(power, 0.01)
        for threshold_db in (-3.0, -12.0, -40.0):
            got = detect_peaks(profile, threshold_db)
            want = _reference_detect_peaks(profile, threshold_db)
            assert got == want, (power.tolist(), threshold_db)
            assert all(type(b) is int for b in got.bins)
            for b in want.bins:
                left = b == 0 or power[b - 1] < power[b]
                right = b == power.size - 1 or power[b + 1] < power[b]
                twins += not (left and right)
                edges += b in (0, power.size - 1)
    if family == "twin":
        assert twins > 0
    if family == "boundary":
        assert edges > 0


@pytest.mark.parametrize("kind", list(WaveformKind))
@pytest.mark.parametrize("round_trip", [True, False])
def test_bin_spacing_is_c_over_slope_times_duration_per_trip(kind, round_trip):
    # A mapping is round trip; one way at c is given as 2c, and the doubling
    # and halving are exact, so it gives the one-way c/(slope*duration) and c*tau.
    spec = WaveformSpec(kind, B, TC)
    mapping = RangeMapping(343.0 if round_trip else 686.0)
    spacing = 343.0 / (spec.effective_slope * (spec.num_samples / spec.sample_rate_hz))
    want = spacing * 0.5 if round_trip else spacing
    assert mapping.bin_spacing_m(spec) == want
    assert range_profile(generate(spec), mapping).bin_spacing_m == want
    for tau in (0.0, 0.003, 1 / 3, 0.0999):
        assert mapping.delay_to_range(tau) == (343.0 * tau * 0.5 if round_trip else 343.0 * tau)


# The spacing c/(4B) itself at B = 1e-307, and the last bin of 2,000 at 1e308 m/s.
@pytest.mark.parametrize("speed, spec", [
    (343.0, WaveformSpec(WaveformKind.TRIANGLE, 1e-307, 1e16, sample_rate_hz=1e-16)),
    (1e308, WaveformSpec(WaveformKind.TRIANGLE, 1.0, 1000.0)),
], ids=["spacing", "last_bin"])
def test_ranges_past_float_range_are_refused(speed, spec):
    names = re.escape(f"(speed {speed} m/s, bandwidth {spec.bandwidth_hz} Hz)")
    with pytest.raises(ValueError, match=rf"^profile ranges must be finite, up to bin "
                                         rf"{spec.num_samples // 2} .* {names}$"):
        range_profile(ComplexSignal(np.ones(spec.num_samples, complex), spec),
                      RangeMapping(speed))
    # c*tau overflows before the halving, though c*tau/2 = 1e308 would not.
    with pytest.raises(ValueError, match=r"tap range must be finite: .* 2.0 s at speed 1e\+308"):
        RangeMapping(1e308).delay_to_range(2.0)


@pytest.mark.parametrize("power, error", [
    ([], "at least one bin"),
    ([1.0, -1.0], "finite and non-negative"),
    ([1.0, np.nan], "finite and non-negative"),
], ids=["no_bins", "negative", "nan"])
def test_profile_rejects_bad_bin_powers(power, error):
    with pytest.raises(ValueError, match=error):
        RangeProfile(np.array(power), 0.01)


@pytest.mark.parametrize("at", [0, 4, 8], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, -1.0, -5e-324], ids=["nan", "inf", "-inf", "-1", "-tiny"]
)
def test_profile_rejects_a_bad_bin_power_anywhere(value, at):
    power = np.ones(9)
    power[at] = value
    with pytest.raises(ValueError, match="^bin powers must be finite and non-negative$"):
        RangeProfile(power, 0.01)


@pytest.mark.parametrize("power", [
    [-0.0, 0.0, -0.0],
    [1e308, 1e308, 1.7976931348623157e308],
    [0.0, 5e-324, 1.0],
], ids=["signed_zeros", "sum_overflows", "subnormal"])
def test_profile_accepts_finite_non_negative_powers(power):
    profile = RangeProfile(np.array(power), 0.01)
    assert np.array_equal(profile.bin_power.view(np.uint64), np.array(power).view(np.uint64))


def test_sntr_of_a_guard_band_over_the_whole_profile_or_a_zero_signal_bin():
    with pytest.raises(ValueError, match="guard band covers the entire profile"):
        sntr(RangeProfile(np.ones(5), 0.01), 2)
    assert sntr(RangeProfile(np.array([0.0, 1.0, 1.0, 1.0, 1.0]), 0.01), 0) == -np.inf


def test_dominance_of_an_all_zero_beat_is_zero():
    assert energy_dominance(ComplexSignal(np.zeros(SPEC.num_samples, complex), SPEC), 8) == 0.0
