"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale constants throughout: B = 8 kHz, Tc = 0.1 s, fs = 2B (4B for the
extended sweep), c = 343 m/s, round-trip range mapping.
"""

import numpy as np

from trifmcw import (
    ChannelModel,
    ChannelTap,
    RangeMapping,
    WaveformKind,
    WaveformSpec,
    analytic_beat,
    apply_channel,
    detect_peaks,
    energy_dominance,
    generate,
    mix,
    phase_consistency,
    range_profile,
)
from trifmcw.experiments import (
    run_four_path,
    run_sntr_sweep,
    run_non_integer,
    run_spacing_sweep,
    write_outputs,
)

B = 8000.0
TC = 0.1
TRI = WaveformSpec(WaveformKind.TRIANGLE, B, TC)
SAW = WaveformSpec(WaveformKind.SAWTOOTH, B, TC)
EXT = WaveformSpec(WaveformKind.EXTENDED, B, TC)
MAP = RangeMapping(343.0, round_trip=True)


def _report(ac_id, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {ac_id}: {detail}")
    assert ok, f"{ac_id}: {detail}"


def _unit_beat(spec, ps):
    taps = tuple(ChannelTap(p / (2 * B), 1.0 + 0j) for p in ps)
    tx = generate(spec)
    return mix(tx, apply_channel(tx, ChannelModel(taps)))


def test_ac1_four_path_resolution():
    report = run_four_path(seed=1)
    tri_bins = next(
        m for m in report.methods if m.method == "triangle_det"
    ).metrics["peak_bins"]
    ok = tri_bins == [48, 50, 56, 57] and report.passed
    details = {
        m.method: m.metrics["dominant_count"]
        for m in report.methods
        if m.method in ("sawtooth_det", "gentle_det")
    }
    _report(
        "AC-1",
        ok,
        f"triangle bins {tri_bins} (want [48, 50, 56, 57]); "
        f"dominant structure counts {details} (want <= 3, close pair merged)",
    )


def test_ac2_oracle_equivalence_randomized():
    rng = np.random.default_rng(20240814)
    worst = 0.0
    for _ in range(100):
        n_c = int(rng.integers(64, 2048))
        b = float(rng.uniform(500.0, 20000.0))
        fs = 2 * b
        spec = WaveformSpec(WaveformKind.TRIANGLE, b, n_c / fs, sample_rate_hz=fs)
        p = int(rng.integers(0, n_c // 2))
        tau = p / (2 * b)
        tx = generate(spec)
        rx = apply_channel(tx, ChannelModel((ChannelTap(tau, 1.0),)))
        err = float(np.max(np.abs(mix(tx, rx).samples - analytic_beat(spec, tau).samples)))
        worst = max(worst, err)
    _report("AC-2", worst < 1e-9, f"max |mix - oracle| = {worst:.3e} over 100 runs (< 1e-9)")


def test_ac3_phase_consistency():
    worst_int = 0.0
    worst_half_dev = 0.0
    for p in range(1, 201):
        res = phase_consistency(TRI, p / (2 * B))
        worst_int = max(worst_int, abs(res.mismatch))
        res_half = phase_consistency(TRI, (p + 0.5) / (2 * B))
        worst_half_dev = max(worst_half_dev, abs(abs(res_half.mismatch) - np.pi))
    ok = worst_int < 1e-6 and worst_half_dev < 1e-6
    _report(
        "AC-3",
        ok,
        f"integer p mismatch <= {worst_int:.2e} rad (< 1e-6); "
        f"half-offset |mismatch| = pi +/- {worst_half_dev:.2e} (< 1e-6)",
    )


def test_ac4_energy_dominance_and_peak_value():
    p = 16  # Ntau/Nc = 0.01 at Nc = 1600
    tau = p / (2 * B)
    beat = _unit_beat(TRI, [p])
    dom = energy_dominance(beat, p)
    y_p = np.fft.fft(np.real(beat.samples))[p]
    n_c = TRI.samples_per_chirp
    mag_rel_err = abs(abs(y_p) - (n_c - p)) / (n_c - p)
    phase_err = abs(np.angle(y_p * np.exp(1j * np.pi * TRI.slope * tau**2)))
    ok = dom >= 0.95 and mag_rel_err <= 0.02 and phase_err <= 0.05
    _report(
        "AC-4",
        ok,
        f"dominance {dom:.4f} (>= 0.95); |Y(p)| off (Nc-Ntau) by "
        f"{mag_rel_err * 100:.3f}% (<= 2%); phase off -pi*a*tau^2 by "
        f"{phase_err:.4f} rad (<= 0.05)",
    )


def test_ac5_sntr_floor_and_monotonicity():
    report = run_sntr_sweep()
    _, rows = report.tables["sntr_sweep"]
    window = [(x, s) for x, s in rows if 0.01 <= x <= 0.40]
    floor = min(s for _, s in window)
    worst_rise = max((b - a for (_, a), (_, b) in zip(window, window[1:])), default=0.0)
    ok = floor >= -7.4 and worst_rise <= 1.0
    _report(
        "AC-5",
        ok,
        f"min SNTR {floor:.2f} dB over tau/Tc in [0.01, 0.40] (>= -7.4); "
        f"largest step rise {worst_rise:.2f} dB (<= 1.0)",
    )


def test_ac6_resolution_doubling():
    outcomes = {}
    ok = True
    for p in (10, 25, 60):
        tri_peaks = detect_peaks(range_profile(_unit_beat(TRI, [p, p + 1]), MAP), -3.0)
        saw_peaks = detect_peaks(range_profile(_unit_beat(SAW, [p, p + 1]), MAP), -3.0)
        outcomes[p] = (len(tri_peaks), len(saw_peaks))
        ok = ok and tri_peaks.bins == (p, p + 1) and len(saw_peaks) == 1
    _report(
        "AC-6",
        ok,
        f"(triangle, sawtooth) peak counts per p: {outcomes} (want (2, 1) each)",
    )


def test_ac7_non_integer_delays():
    report = run_non_integer()
    measured = {
        m.method: (
            m.metrics["peak_count"],
            round(max(m.metrics["per_peak_range_error_m"], default=np.inf) * 100, 3),
        )
        for m in report.methods
    }
    _report(
        "AC-7",
        report.passed,
        f"(peaks, max range error cm) per method: {measured}; triangle and "
        f"extended want (2, <= one bin), single-chirp baseline must fail",
    )


def test_ac8_reference_alignment():
    # the reference is the extended sweep's beat; at fs = 4B every second
    # sample lies on the triangle's grid
    n_c = TRI.samples_per_chirp
    worst = 0.0
    for p in (1, 4, 7, 16, 99, 200):
        beat = _unit_beat(TRI, [p])
        ref = _unit_beat(EXT, [p]).samples[::2]
        mask = np.zeros(len(beat), dtype=bool)
        mask[p:n_c] = True  # seg1
        mask[n_c + p :] = True  # seg3
        err = float(
            np.max(np.abs(np.real(beat.samples[mask]) - np.real(ref[mask])))
        )
        worst = max(worst, err)
    _report(
        "AC-8",
        worst < 1e-6,
        f"max |Re(triangle beat) - Re(extended-sweep beat)| on the constant "
        f"segments = {worst:.3e} (< 1e-6)",
    )


def test_ac9_spacing_sweep_ordering():
    report = run_spacing_sweep()
    err = report.notes["mean_abs_error_tightest_m"]
    ok = err["triangle"] < err["sawtooth"] < err["gentle"]
    _report(
        "AC-9",
        ok,
        "mean abs spacing error over the tightest two-reflector positions: "
        + ", ".join(f"{k}={v * 100:.3f} cm" for k, v in err.items())
        + " (want triangle < sawtooth < gentle)",
    )


def test_ac10_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_outputs(run_four_path(seed=7), a)
    write_outputs(run_four_path(seed=7), b)
    same = all(
        path.read_bytes() == (b / path.name).read_bytes()
        for path in sorted(a.iterdir())
    )
    _report(
        "AC-10",
        same,
        f"two seed-7 runs produced byte-identical outputs for "
        f"{len(list(a.iterdir()))} files",
    )
