import hashlib
import json
import os

import pytest

from trifmcw import WaveformKind, WaveformSpec, waveform
from trifmcw.experiments import (
    BUILTIN_SCENARIOS,
    ExperimentReport,
    run_four_path,
    run_named_scenario,
    run_non_integer,
    run_sntr_sweep,
    run_spacing_sweep,
    run_custom,
    write_outputs,
)
from trifmcw.scenario import ScenarioConfig, parse_scenario


def method(report, name):
    return next(m for m in report.methods if m.method == name)


def test_four_path_report_passes():
    report = run_four_path(seed=1)
    assert report.passed
    tri = method(report, "triangle_det")
    assert tri.metrics["peak_bins"] == [48, 50, 56, 57]
    assert method(report, "triangle_rayleigh").metrics["peak_bins"] == [48, 50, 56, 57]
    for name in ("sawtooth_det", "gentle_det"):
        res = method(report, name)
        assert res.metrics["dominant_count"] <= 3
        bins = res.metrics["peak_bins"]
        assert not (56 in bins and 57 in bins)


def test_four_path_ground_truth_ranges():
    report = run_four_path()
    cm = [round(r * 100, 2) for r in report.ground_truth_ranges_m]
    assert cm == [51.45, 53.59, 60.03, 61.1]


def test_four_path_alt_processing_placeholder_present():
    report = run_four_path()
    assert "not implemented" in report.notes["alt_triangle_processing"]


def test_sntr_sweep_table_and_assertions():
    report = run_sntr_sweep()
    header, rows = report.tables["sntr_sweep"]
    assert header == ("tau_over_tc", "sntr_db")
    assert len(rows) == report.constants["points"] == 40
    assert rows[0][0] <= 0.001  # starts at one delay sample
    assert rows[-1][0] == pytest.approx(0.45, abs=0.01)
    assert all(s >= -7.4 for x, s in rows if 0.01 <= x <= 0.40)
    assert report.passed


def test_non_integer_report():
    report = run_non_integer()
    assert report.passed
    for name in ("triangle", "extended"):
        res = method(report, name)
        assert res.metrics["peak_count"] == 2
        assert max(res.metrics["per_peak_range_error_m"]) <= res.metrics["bin_spacing_m"]
    lin = method(report, "linear")
    assert lin.metrics["peak_count"] < 2 or max(
        lin.metrics["per_peak_range_error_m"]
    ) > lin.metrics["bin_spacing_m"]


def test_spacing_sweep_well_separated_within_a_conventional_bin():
    report = run_spacing_sweep()
    header, rows = report.tables["spacing_sweep"]
    widest = rows[0]
    assert widest[0] == pytest.approx(0.10)
    conventional_bin = 343.0 / (2 * 8000.0)
    for col in range(1, 5):
        assert abs(widest[col] - widest[0]) <= conventional_bin


def test_spacing_sweep_ordering_and_degeneracy():
    report = run_spacing_sweep()
    assert report.passed
    err = report.notes["mean_abs_error_tightest_m"]
    assert err["triangle"] < err["sawtooth"] < err["gentle"]
    header, rows = report.tables["spacing_sweep"]
    last = rows[-1]
    assert last[0] == 0.0  # co-located position
    est_triangle = last[header.index("est_triangle_m")]
    assert est_triangle == 0.0
    assert "triangle" in last[-1]  # flagged degenerate


TRIANGLE_SPEC = WaveformSpec(WaveformKind.TRIANGLE, 8000.0, 0.1)


def test_custom_scenario_empty_channel_degenerate():
    cfg = ScenarioConfig(name="empty", specs=(TRIANGLE_SPEC,))
    report = run_custom(cfg)
    assert report.degenerate
    assert report.passed
    assert not report.methods


def test_empty_scenario_report_says_degenerate(tmp_path):
    write_outputs(run_custom(ScenarioConfig(name="empty", specs=(TRIANGLE_SPEC,))), tmp_path)
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert "DEGENERATE input: no propagation paths defined" in lines
    assert lines[-1] == "RESULT: PASS"


def test_metrics_json_refuses_a_value_past_float_range(tmp_path):
    report = ExperimentReport("inf", {}, (float("inf"),))
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_outputs(report, tmp_path)


def test_custom_scenario_single_tap():
    cfg = ScenarioConfig(name="one_tap", specs=(TRIANGLE_SPEC,), taps=((10 / 16000, 1 + 0j),))
    report = run_custom(cfg)
    assert method(report, "triangle").metrics["peak_bins"] == [10]


def _setup(constants):
    return constants["bandwidth_hz"], constants["chirp_s"], constants["sample_rate_hz"]


# A built-in reports the band, chirp and sample rate of the specs it ran.
@pytest.mark.parametrize("scenario", ["four_path", "non_integer"])
def test_constants_are_the_fields_of_every_method_spec(scenario):
    report = run_named_scenario(scenario)
    for result in report.methods:
        spec = result.beat.spec
        assert _setup(report.constants) == (
            spec.bandwidth_hz, spec.chirp_duration_s, spec.sample_rate_hz
        ), result.method


@pytest.mark.parametrize("scenario, fs", [("sntr_sweep", 16000.0), ("spacing_sweep", 34300.0)])
def test_sweep_constants_are_the_fields_of_its_specs(scenario, fs):
    assert _setup(run_named_scenario(scenario).constants) == (8000.0, 0.1, fs)


def test_write_outputs_files(tmp_path):
    report = run_four_path(seed=3)
    write_outputs(report, tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    assert "report.txt" in names and "metrics.json" in names
    assert "profile_triangle_det.csv" in names
    assert "beat_triangle_det.csv" in names
    text = (tmp_path / "report.txt").read_text()
    assert "PASS AC-1" in text
    assert text.strip().endswith("RESULT: PASS")
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["result"] == "PASS"
    assert metrics["methods"]["triangle_det"]["peak_bins"] == [48, 50, 56, 57]


def test_runs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_outputs(run_four_path(seed=7), a)
    write_outputs(run_four_path(seed=7), b)
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()
    c = tmp_path / "c"
    write_outputs(run_four_path(seed=8), c)
    assert (a / "metrics.json").read_bytes() != (c / "metrics.json").read_bytes()


MIXED_SCN = (
    "name = mixed\nmethods = triangle,sawtooth,extended\nbandwidth = 8000\n"
    "chirp = 0.1\n\n[tap]\ndelay_p = 48\ngain = rayleigh\n\n"
    "[tap]\nrange_m = 0.60025\ngain_re = 1\n"
)


# sha256 of report.txt followed by metrics.json. Both files hold bins, counts
# and six-digit ranges, never raw FFT powers, so the digests do not depend on
# the platform's floating-point rounding. A refactor of the runners must keep
# them; a deliberate change of output must update them and say why.
@pytest.mark.parametrize(
    "scenario, seed, digest",
    [
        ("four_path", 1, "50cc4180f1448a1d211636422ac36e0abefa7bde55f1faf80900e54a9189d064"),
        ("sntr_sweep", 1, "83e5f042b1f7b3c56f1213a91382a58c6bd9d71a949f9921542a237318df9c7e"),
        ("non_integer", 1, "510d730b506afe378d67eb88b5ae42abcef1a791e45e1d9b32db251f4d5cc240"),
        ("spacing_sweep", 1, "3a31fc42d49b60f5112efbaec83ce9e849e68adebfda3c5b2e497b9f041bc11c"),
        ("four_path", 7, "b205ded74aaf5df954f5361a59ba0a6c7ebd2f54e03f75ed3dc9e48a0a9ccaba"),
        ("mixed.scn", 3, "d6a9d8a4f423ba70dcb3175d01bfad659d937b8b61909ad0ab0ddbc0889e081d"),
    ],
)
def test_report_and_metrics_bytes_are_pinned(tmp_path, scenario, seed, digest):
    if scenario.endswith(".scn"):
        path = tmp_path / scenario
        path.write_text(MIXED_SCN)
        cfg = parse_scenario(path)
        cfg.seed = seed
        report = run_custom(cfg)
    else:
        report = run_named_scenario(scenario, seed=seed)
    out = tmp_path / "out"
    write_outputs(report, out)
    h = hashlib.sha256()
    for name in ("report.txt", "metrics.json"):
        h.update((out / name).read_bytes())
    assert h.hexdigest() == digest


def _run_scenario(tmp_path, scenario, seed):
    """A built-in scenario by name, or the MIXED_SCN file for "mixed.scn"."""
    if not scenario.endswith(".scn"):
        return run_named_scenario(scenario, seed=seed)
    path = tmp_path / scenario
    path.write_text(MIXED_SCN)
    cfg = parse_scenario(path)
    cfg.seed = seed
    return run_custom(cfg)


@pytest.mark.parametrize("scenario", [*BUILTIN_SCENARIOS, "mixed.scn"])
def test_cold_and_warm_waveform_cache_write_the_same_files(tmp_path, monkeypatch, scenario):
    monkeypatch.setattr(waveform, "_cache", {})
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    write_outputs(_run_scenario(tmp_path, scenario, 7), cold)
    assert waveform._cache
    write_outputs(_run_scenario(tmp_path, scenario, 7), warm)
    names = sorted(path.name for path in cold.iterdir())
    assert names == sorted(path.name for path in warm.iterdir())
    for name in names:
        assert (cold / name).read_bytes() == (warm / name).read_bytes(), name


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("scenario", ["four_path", "non_integer"])
def test_csvs_split_across_a_forked_child_are_the_bytes_of_one_process(
        tmp_path, monkeypatch, scenario):
    report = run_named_scenario(scenario, seed=7)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    write_outputs(report, tmp_path / "split")
    _assert_no_child_left()
    assert forks == [1]
    monkeypatch.delattr(os, "fork")
    write_outputs(report, tmp_path / "one")
    _assert_no_child_left()
    names = sorted(path.name for path in (tmp_path / "one").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "split").iterdir())
    for name in names:
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name


@pytest.fixture(scope="module")
def non_integer_report():
    return run_named_scenario("non_integer")


# The rows split linear's and extended's beats to this process and
# triangle's to the child, so both halves meet the occupied path.
@pytest.mark.parametrize("method", ["linear", "extended", "triangle"])
def test_a_failed_csv_write_raises_its_error_and_writes_no_report(
        tmp_path, non_integer_report, method):
    occupied = tmp_path / f"beat_{method}.csv"
    occupied.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_outputs(non_integer_report, tmp_path)
    assert info.value.filename == str(occupied)
    _assert_no_child_left()
    assert not (tmp_path / "report.txt").exists()
    assert not (tmp_path / "metrics.json").exists()
