import hashlib
import json

import pytest

from trifmcw.cli import main


def run(*argv):
    return main(list(argv))


def read_lines(path):
    return path.read_text().splitlines()


def test_waveform_triangle_row_count(tmp_path):
    assert run("waveform", "--kind", "triangle", "--bandwidth", "8000",
               "--chirp", "0.1", "--out", str(tmp_path)) == 0
    rows = read_lines(tmp_path / "waveform.csv")
    data = [r for r in rows if not r.startswith("#")]
    assert data[0] == "n,t,re,im"
    assert len(data) - 1 == 3200
    # Default spectrogram: window Nc/16 = 100 samples, hop 50, so 63 frames.
    spec_rows = read_lines(tmp_path / "spectrogram.csv")
    assert spec_rows[0].split(",") == ["frame", "t"] + [f"bin_{k}" for k in range(100)]
    assert len(spec_rows) - 1 == 63
    assert all(len(r.split(",")) == 102 for r in spec_rows)
    assert spec_rows[2].split(",")[:2] == ["1", "0.003125"]


def test_waveform_linear_half_rows(tmp_path):
    assert run("waveform", "--kind", "linear", "--bandwidth", "8000",
               "--chirp", "0.1", "--out", str(tmp_path)) == 0
    data = [r for r in read_lines(tmp_path / "waveform.csv") if not r.startswith("#")]
    assert len(data) - 1 == 1600


def test_waveform_missing_bandwidth_usage_error(capsys):
    assert run("waveform", "--kind", "triangle", "--chirp", "0.1") == 1
    assert "--bandwidth" in capsys.readouterr().err


def test_waveform_bad_config_exit_two(tmp_path, capsys):
    code = run("waveform", "--kind", "triangle", "--bandwidth", "8000",
               "--chirp", "0.1", "--fs", "9000", "--out", str(tmp_path))
    assert code == 2
    assert "complex-baseband bound" in capsys.readouterr().err


def test_simulate_four_path_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run("simulate", "four_path", "--seed", "7", "--out", str(out1)) == 0
    assert run("simulate", "four_path", "--seed", "7", "--out", str(out2)) == 0
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes()
    assert "PASS AC-1" in (out1 / "report.txt").read_text()


def test_simulate_unknown_scenario(tmp_path, capsys):
    assert run("simulate", "no_such_thing", "--out", str(tmp_path)) == 2
    assert "scenario" in capsys.readouterr().err


def test_simulate_custom_scenario(tmp_path):
    scn = tmp_path / "two_tap.scn"
    scn.write_text(
        "name = two_tap\n"
        "methods = triangle\n"
        "bandwidth = 8000\n"
        "chirp = 0.1\n"
        "\n"
        "[tap]\n"
        "delay_p = 10\n"
        "gain_re = 1\n"
        "\n"
        "[tap]\n"
        "delay_p = 14\n"
        "gain_re = 0.8\n"
    )
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 0
    assert (out / "profile_triangle.csv").exists()


def test_simulate_off_grid_tap_names_tap_and_suggests_fs(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text(
        "bandwidth = 8000\nchirp = 0.1\n\n[tap]\ndelay_s = 0.0001234\ngain_re = 1\n"
    )
    assert run("simulate", str(scn), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "tap 0" in err and "set fs so that" in err


def test_profile_round_trip_matches_simulate(tmp_path):
    sim_out = tmp_path / "sim"
    assert run("simulate", "four_path", "--out", str(sim_out)) == 0
    prof_out = tmp_path / "prof"
    assert run("profile", str(sim_out / "beat_triangle_det.csv"),
               "--out", str(prof_out)) == 0
    assert (prof_out / "profile.csv").read_bytes() == (
        sim_out / "profile_triangle_det.csv"
    ).read_bytes()
    peaks = read_lines(prof_out / "peaks.csv")
    assert peaks[0] == "bin_p,range_m,power"
    assert [int(r.split(",")[0]) for r in peaks[1:]] == [48, 50, 56, 57]


def test_profile_constant_beat_dc_peak(tmp_path):
    beat_csv = tmp_path / "const.csv"
    lines = ["# kind=triangle", "# bandwidth=8000", "# chirp=0.1", "# fs=16000",
             "n,t,re,im"]
    lines += [f"{n},{n / 16000.0:.6g},1,0" for n in range(3200)]
    beat_csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run("profile", str(beat_csv), "--out", str(out)) == 0
    peaks = read_lines(out / "peaks.csv")
    assert len(peaks) == 2
    assert peaks[1].startswith("0,")


def test_profile_of_analytic_beat_peaks_at_p(tmp_path):
    from trifmcw import WaveformKind, WaveformSpec, analytic_beat
    from trifmcw.csvio import write_signal_csv

    spec = WaveformSpec(WaveformKind.TRIANGLE, 8000.0, 0.1)
    beat = analytic_beat(spec, 10 / 16000.0)
    beat_csv = tmp_path / "beat.csv"
    write_signal_csv(beat_csv, beat)
    out = tmp_path / "out"
    assert run("profile", str(beat_csv), "--out", str(out)) == 0
    peaks = read_lines(out / "peaks.csv")[1:]
    assert len(peaks) == 1 and peaks[0].startswith("10,")


def test_profile_malformed_csv_reports_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# kind=triangle\n# bandwidth=8000\n# chirp=0.1\n# fs=16000\n"
                   "n,t,re,im\n0,0,1,0\n1,zzz,1\n")
    assert run("profile", str(bad), "--out", str(tmp_path / "o")) == 2
    assert ":7:" in capsys.readouterr().err


def test_profile_missing_metadata(tmp_path, capsys):
    bad = tmp_path / "bare.csv"
    bad.write_text("n,t,re,im\n0,0,1,0\n")
    assert run("profile", str(bad), "--out", str(tmp_path / "o")) == 2
    assert "metadata" in capsys.readouterr().err


def test_simulate_builtin_rejects_fs_override(capsys):
    assert run("simulate", "four_path", "--fs", "32000") == 1
    assert "unrecognized arguments: --fs 32000" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--speed", "340"], ["--one-way"]], ids=["speed", "one_way"])
@pytest.mark.parametrize("scenario", ["four_path", "sntr_sweep", "non_integer", "spacing_sweep"])
def test_simulate_builtin_rejects_range_mapping_flags(tmp_path, capsys, scenario, flags):
    out = tmp_path / "out"
    assert run("simulate", scenario, *flags, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in err
    assert not out.exists()


# A .scn file pins its whole setup: each of its keys has no flag.
@pytest.mark.parametrize("flags", [["--threshold-db", "-20"], ["--fs", "32000"],
                                   ["--speed", "340"], ["--one-way"]],
                         ids=["threshold_db", "fs", "speed", "one_way"])
def test_simulate_scn_rejects_the_flags_of_its_keys(tmp_path, capsys, flags):
    scn = _scn(tmp_path, "\n[tap]\ndelay_p = 48\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), *flags, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in err
    assert not out.exists()


def test_profile_remaps_a_builtin_beat(tmp_path, four_path_dir):
    # The digest is of `simulate four_path --speed 340 --one-way`'s
    # profile_triangle_det.csv, from before built-ins pinned their mapping:
    # one way at 340 m/s is round trip at 680 m/s, bit for bit.
    out = tmp_path / "out"
    beat = four_path_dir / "beat_triangle_det.csv"
    assert run("profile", str(beat), "--speed", "680", "--out", str(out)) == 0
    digest = hashlib.sha256((out / "profile.csv").read_bytes()).hexdigest()
    assert digest == "201ea6a075b853ac4fe07eb1639d1ab7923b40ece7448baa4e9ce248a92b976e"


def test_simulate_failing_report_exits_three(tmp_path, monkeypatch):
    from trifmcw import cli as cli_module
    from trifmcw.experiments import AssertionResult, ExperimentReport

    failing = ExperimentReport(scenario="four_path", constants={},
                               ground_truth_ranges_m=())
    failing.assertions.append(
        AssertionResult("AC-1", "forced failure", False, "x", "y")
    )
    monkeypatch.setattr(
        cli_module.experiments, "run_named_scenario", lambda *a, **k: failing
    )
    assert run("simulate", "four_path", "--out", str(tmp_path)) == 3
    assert "FAIL AC-1" in (tmp_path / "report.txt").read_text()


def test_simulate_out_through_regular_file_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run("simulate", "four_path", "--out", str(blocker / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "Not a directory" in err
    assert len(err.splitlines()) == 1


def test_profile_missing_file_is_io_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert run("profile", str(missing), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(missing) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, names",
    [
        (["profile", "<beat>", "--speed", "nan"], "propagation speed"),
        (["profile", "<beat>", "--speed", "inf"], "propagation speed"),
        (["waveform", "--bandwidth", "inf", "--chirp", "0.1"], "bandwidth_hz"),
        (["waveform", "--bandwidth", "8000", "--chirp", "nan"], "chirp_duration_s"),
        (["waveform", "--bandwidth", "8000", "--chirp", "0.1", "--fs", "inf"],
         "sample_rate_hz"),
    ],
)
def test_non_finite_flag_exits_two_naming_it(tmp_path, capsys, four_path_dir, argv, names):
    beat = str(four_path_dir / "beat_triangle_det.csv")
    argv = [beat if arg == "<beat>" else arg for arg in argv]
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and names in err
    assert beat not in err  # a bad flag is the flag's error, not the beat's
    assert not out.exists()


def test_profile_of_truncated_beat_names_both_lengths(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    assert run("simulate", "four_path", "--out", str(sim_out)) == 0
    beat = sim_out / "beat_triangle_det.csv"
    beat.write_text("".join(beat.read_text().splitlines(keepends=True)[:-1]))
    assert run("profile", str(beat), "--out", str(tmp_path / "prof")) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "3199" in err and "3200" in err


@pytest.fixture(scope="module")
def four_path_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("four_path")
    assert run("simulate", "four_path", "--out", str(out)) == 0
    return out


def _drop_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


@pytest.mark.parametrize("edit, names", [
    (lambda text: text.replace("# bandwidth=8000.0\n", "# bandwidth=abc\n"),
     ["metadata bandwidth='abc'"]),
    (lambda text: text.replace("# kind=triangle\n", "# kind=bogus\n"), ["metadata kind='bogus'"]),
    (lambda text: text.replace("# fs=16000.0\n", "# fs=nan\n"), ["metadata fs='nan'"]),
    (_drop_last_row, ["(3199,)", "3200 samples"]),
    (lambda text: text.replace("# f0=0.0\n", "# f0=500\n"), ["metadata f0='500' is not 0"]),
    (lambda text: text.replace("# f0=0.0\n", "# f0=abc\n"), ["metadata f0='abc'"]),
], ids=["bandwidth", "kind", "fs", "one_row_short", "f0_nonzero", "f0_abc"])
def test_profile_of_bad_beat_metadata_names_the_file_and_key(
        tmp_path, capsys, four_path_dir, edit, names):
    beat = tmp_path / "beat.csv"
    text = (four_path_dir / "beat_triangle_det.csv").read_text()
    beat.write_text(edit(text))
    assert beat.read_text() != text
    capsys.readouterr()
    assert run("profile", str(beat), "--out", str(tmp_path / "prof")) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"configuration error: {beat}: ")
    for name in names:
        assert name in err


@pytest.mark.parametrize("line", ["", "# f0=0\n", "# f0=-0.0\n"], ids=["missing", "0", "-0.0"])
def test_profile_accepts_a_missing_or_zero_f0(tmp_path, four_path_dir, line):
    beat = tmp_path / "beat.csv"
    text = (four_path_dir / "beat_triangle_det.csv").read_text()
    beat.write_text(text.replace("# f0=0.0\n", line))
    out = tmp_path / "prof"
    assert run("profile", str(beat), "--out", str(out)) == 0
    expected = (four_path_dir / "profile_triangle_det.csv").read_bytes()
    assert (out / "profile.csv").read_bytes() == expected


def _set_row_7(text, column, value, comment):
    """``text`` with field ``column`` of sample row 7 set to ``value``.

    A comment line above the row sends the read to the per-line loop.
    """
    lines = text.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith("7,"))
    fields = lines[i].rstrip("\n").split(",")
    fields[column] = value
    lines[i] = ",".join(fields) + "\n"
    if comment:
        lines.insert(i, "# edited\n")
    return "".join(lines)


@pytest.mark.parametrize("comment", [False, True], ids=["numpy", "loop"])
@pytest.mark.parametrize("column, value", [(2, "nan"), (3, "inf")], ids=["re_nan", "im_inf"])
def test_profile_of_a_non_finite_sample_names_its_row(
        tmp_path, capsys, four_path_dir, column, value, comment):
    beat = tmp_path / "beat.csv"
    text = (four_path_dir / "beat_triangle_det.csv").read_text()
    beat.write_text(_set_row_7(text, column, value, comment))
    capsys.readouterr()
    assert run("profile", str(beat), "--out", str(tmp_path / "prof")) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {beat}: sample n=7 is not finite\n"


# Under "error" a numpy overflow warning would end the run with a traceback.
@pytest.mark.filterwarnings("error")
def test_profile_of_a_beat_too_large_for_its_power_is_one_error_line(
        tmp_path, capsys, four_path_dir):
    # At 1e300 a bin power overflows; at 1e306 the FFT itself would.
    for scale in (1e300, 1e306):
        rows = []
        for line in (four_path_dir / "beat_triangle_det.csv").read_text().splitlines():
            if line[0].isdigit():
                n, t, re, im = line.split(",")
                line = f"{n},{t},{float(re) * scale!r},{float(im) * scale!r}"
            rows.append(line + "\n")
        beat = tmp_path / "beat.csv"
        beat.write_text("".join(rows))
        capsys.readouterr()
        assert run("profile", str(beat), "--out", str(tmp_path / "prof")) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"configuration error: {beat}: beat is too large for a finite profile")


@pytest.mark.filterwarnings("error")
def test_profile_refuses_a_repeated_metadata_key(tmp_path, capsys, four_path_dir):
    # Taking the last value, bandwidth=4000 would double every range.
    lines = (four_path_dir / "beat_triangle_det.csv").read_text().splitlines(keepends=True)
    assert lines[1] == "# bandwidth=8000.0\n"
    lines.insert(2, "# bandwidth=4000\n")
    beat = tmp_path / "beat.csv"
    beat.write_text("".join(lines))
    out = tmp_path / "prof"
    assert run("profile", str(beat), "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"configuration error: {beat}:3: duplicate metadata key "
                                       "'bandwidth', first set on line 2\n")
    assert not out.exists()


def test_metadata_below_the_header_is_a_plain_comment(tmp_path, four_path_dir):
    # Read as metadata, bandwidth=4000 would double every range.
    lines = (four_path_dir / "beat_triangle_det.csv").read_text().splitlines(keepends=True)
    lines.insert(99, "# bandwidth=4000\n")
    beat = tmp_path / "beat.csv"
    beat.write_text("".join(lines))
    out = tmp_path / "prof"
    assert run("profile", str(beat), "--out", str(out)) == 0
    expected = (four_path_dir / "profile_triangle_det.csv").read_bytes()
    assert (out / "profile.csv").read_bytes() == expected


def test_cached_parser_keeps_no_state_between_calls(tmp_path, four_path_dir):
    from trifmcw import cli as cli_module

    def peak_bins(out):
        return [int(row.split(",")[0]) for row in read_lines(out / "peaks.csv")[1:]]

    # The four paths lie within 0.2 dB of each other: -0.1 dB lists one of them.
    beat = str(four_path_dir / "beat_triangle_det.csv")
    high, default = tmp_path / "high", tmp_path / "default"
    assert run("profile", beat, "--threshold-db", "-0.1", "--out", str(high)) == 0
    assert run("profile", beat, "--out", str(default)) == 0
    assert peak_bins(high) == [57]
    assert peak_bins(default) == [48, 50, 56, 57]

    one_way, plain = tmp_path / "one_way", tmp_path / "plain"
    assert run("profile", beat, "--speed", "686", "--out", str(one_way)) == 0
    assert run("profile", beat, "--out", str(plain)) == 0
    assert read_lines(one_way / "profile.csv")[2].split(",")[1] == "0.0214375"
    expected = (four_path_dir / "profile_triangle_det.csv").read_bytes()
    assert (plain / "profile.csv").read_bytes() == expected

    seeded, unseeded = tmp_path / "seeded", tmp_path / "unseeded"
    assert run("simulate", "four_path", "--seed", "7", "--out", str(seeded)) == 0
    assert run("simulate", "four_path", "--out", str(unseeded)) == 0
    assert json.loads((unseeded / "metrics.json").read_text())["constants"]["seed"] == 1
    assert cli_module._build_parser() is cli_module._build_parser()


def _scn(tmp_path, body, name="x.scn"):
    path = tmp_path / name
    path.write_text("bandwidth = 8000\nchirp = 0.1\n" + body)
    return path


@pytest.mark.parametrize("value", ["nan", "-inf", "3"])
def test_simulate_threshold_must_be_finite_and_not_positive(tmp_path, capsys, value):
    scn = _scn(tmp_path, f"threshold_db = {value}\n\n[tap]\ndelay_p = 48\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{scn}:3:" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_profile_nan_threshold_exits_two(tmp_path, capsys, value):
    wave = tmp_path / "wave"
    assert run("waveform", "--bandwidth", "8000", "--chirp", "0.1", "--out", str(wave)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    code = run("profile", str(wave / "waveform.csv"), f"--threshold-db={value}",
               "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "rel_threshold_db" in err
    assert not out.exists()


# The window is counted in samples, so the range mapping does not change it.
# One way at 343 m/s is round trip at 686 m/s.
@pytest.mark.parametrize("mapping", ["", "speed = 686\n"], ids=["round_trip", "one_way"])
def test_triangle_tap_at_or_beyond_tc_exits_two(tmp_path, capsys, mapping):
    # p = 3000 is tau = 1.5*Tc at B = 8 kHz, Tc = 0.1 s.
    scn = _scn(tmp_path, mapping + "\n[tap]\ndelay_p = 48\n\n[tap]\ndelay_p = 3000\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == (f"configuration error: {scn}:{7 + bool(mapping)}: tap 1 delay 0.1875 s is "
                   "3000 samples, beyond the triangle up ramp of 1600 samples (Tc=0.1 s)\n")
    assert not out.exists()


# Ranges past float range: the bin spacing c/(4B) itself, and the last bin and
# c*tau at 1e308 m/s. A .scn names its bandwidth line (1), or its speed line
# (3) when it sets one; a beat CSV names its file.
_RANGE_OVERFLOWS = {
    "spacing": ("bandwidth = 1e-307\nchirp = 1e16\nfs = 1e-16\n\n[tap]\ndelay_s = 0\n", 1,
                ("1e-307", "1e16", "1e-16"), []),
    "speed": ("bandwidth = 1\nchirp = 1000\nspeed = 1e308\n\n[tap]\ndelay_p = 4\n", 3,
              ("1", "1000", "2"), ["--speed", "1e308"]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", ["scn", "beat_csv"])
@pytest.mark.parametrize("case", list(_RANGE_OVERFLOWS))
def test_ranges_past_float_range_are_one_error_line(tmp_path, capsys, case, route):
    text, line, (bandwidth, chirp, fs), flags = _RANGE_OVERFLOWS[case]
    out = tmp_path / "out"
    if route == "scn":
        scn = tmp_path / "x.scn"
        scn.write_text(text)
        argv, where = ["simulate", str(scn)], f"{scn}:{line}: "
    else:
        beat = tmp_path / "beat.csv"
        rows = "".join(f"{n},0,1,0\n" for n in range(round(2 * float(fs) * float(chirp))))
        beat.write_text(f"# kind=triangle\n# bandwidth={bandwidth}\n# chirp={chirp}\n"
                        f"# f0=0.0\n# fs={fs}\nn,t,re,im\n{rows}")
        argv, where = ["profile", str(beat), *flags], f"{beat}: "
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"configuration error: {where}profile ranges must be finite, up to bin ")
    assert not out.exists()


def test_waveform_negative_bandwidth_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("waveform", "--bandwidth", "-8000", "--chirp", "0.1", "--out", str(out)) == 2
    assert capsys.readouterr().err == "configuration error: bandwidth must be > 0, got -8000.0\n"
    assert not out.exists()


def test_triangle_tap_just_inside_tc_still_runs(tmp_path):
    scn = _scn(tmp_path, "\n[tap]\ndelay_p = 1599\n")
    assert run("simulate", str(scn), "--out", str(tmp_path / "out")) == 0


def test_profile_rejects_a_non_numeric_time_column(tmp_path, capsys):
    wave = tmp_path / "wave"
    assert run("waveform", "--bandwidth", "8000", "--chirp", "0.1", "--out", str(wave)) == 0
    capsys.readouterr()
    csv = wave / "waveform.csv"
    csv.write_text(csv.read_text().replace("\n1,6.25e-05,", "\n1,zzz,", 1))
    assert run("profile", str(csv), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "zzz" in err


_SEEDED_TAPS = (
    "\n[tap]\ndelay_p = 48\ngain = rayleigh\n"
    "\n[tap]\nrange_m = 3.644375\ngain_re = 0.7\ngain_im = 0.2\n"
)


def _run_scn(tmp_path, subdir, keys, *flags):
    scn = tmp_path / subdir / "x.scn"
    scn.parent.mkdir()
    scn.write_text("bandwidth = 8000\nchirp = 0.1\nmethods = triangle,sawtooth\n"
                   + "".join(line + "\n" for line in keys) + _SEEDED_TAPS)
    out = tmp_path / subdir / "out"
    assert run("simulate", str(scn), *flags, "--out", str(out)) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_simulate_seed_flag_gives_the_bytes_of_the_seed_key(tmp_path):
    assert _run_scn(tmp_path, "flag", [], "--seed", "11") == _run_scn(tmp_path, "key", ["seed = 11"])


@pytest.mark.parametrize("line", ["threshold_db = 3", "fs = nan", "speed = inf",
                                  "one_way = maybe", "speed = -1"])
def test_bad_scn_global_value_exits_two_naming_its_line(tmp_path, capsys, line):
    scn = _scn(tmp_path, line + "\n" + _SEEDED_TAPS)
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{scn}:3:" in err
    assert not out.exists()


# --seed replaces the file's seed, and the file's seed is still checked.
@pytest.mark.parametrize("line, flags", [("seed = x", ["--seed", "3"]),
                                         ("seed = -1", ["--seed", "18446744073709551615"])])
def test_bad_scn_value_replaced_by_a_flag_still_exits_two(tmp_path, capsys, line, flags):
    scn = _scn(tmp_path, line + "\n" + _SEEDED_TAPS)
    out = tmp_path / "out"
    assert run("simulate", str(scn), *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{scn}:3:" in err
    assert not out.exists()


def test_simulate_negative_seed_on_a_scn_exits_two(tmp_path, capsys):
    scn = _scn(tmp_path, _SEEDED_TAPS)
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--seed", "-1", "--out", str(out)) == 2
    # The message of a built-in's --seed -1, with no prefix of its own.
    err = capsys.readouterr().err
    assert err == "configuration error: seed must be non-negative and below 2^64, got -1\n"
    assert not out.exists()


def test_simulate_builtin_negative_seed_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("simulate", "four_path", "--seed", "-1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "seed" in err and "got -1" in err
    assert not out.exists()


def test_scn_seed_of_two_to_the_64_exits_two(tmp_path, capsys):
    scn = _scn(tmp_path, "seed = 18446744073709551616\n" + _SEEDED_TAPS)
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{scn}:3:" in err
    assert "got 18446744073709551616" in err
    assert not out.exists()


@pytest.mark.parametrize("fs", ["5", "-5"])
def test_file_fs_below_the_band_edge_exits_two_on_a_scn_without_taps(tmp_path, capsys, fs):
    scn = _scn(tmp_path, f"methods = triangle,extended\nfs = {fs}\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{scn}:4: fs={float(fs)} Hz is below" in err
    assert not out.exists()


# 4e15 samples (28 PiB) exceed any address space, so the allocation fails at
# once without touching memory.
def test_waveform_too_large_to_allocate_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("waveform", "--bandwidth", "1e15", "--chirp", "1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("out of memory: ")
    assert not out.exists()


def test_simulate_scn_too_large_to_allocate_exits_two(tmp_path, capsys):
    scn = tmp_path / "big.scn"
    scn.write_text("bandwidth = 1e15\nchirp = 1\n\n[tap]\ndelay_p = 3\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("out of memory: ")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_scn_tap_too_large_for_its_power_is_one_error_line(tmp_path, capsys):
    scn = _scn(tmp_path, "\n[tap]\ndelay_p = 48\ngain_re = 1e200\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "too large for a finite profile" in err
    assert not out.exists()


# Each would overflow on the run path: round(inf) in delay_in_samples, the
# FFT of the beat, and the sum of two taps in apply_channel.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("taps, line", [
    ("\n[tap]\ndelay_s = 1e305\n", "5: tap 0 delay 1e+305 s is inf samples, beyond"),
    ("\n[tap]\ndelay_p = 48\ngain_re = 1e306\n", "7: beat is too large"),
    ("\n[tap]\ndelay_p = 48\ngain_re = 1.7e308\n\n[tap]\ndelay_p = 50\ngain_re = 1.7e308\n",
     "7: beat is too large"),
    # Each 1e150 passes alone; at N = 3200 the fifth takes the sum past 2^512.
    ("".join(f"\n[tap]\ndelay_p = {40 + 2 * k}\ngain_re = 1e150\n" for k in range(8)),
     "23: beat is too large"),
], ids=["delay", "gain", "two_gains", "eight_gains"])
def test_simulate_scn_past_float_range_is_one_error_line(tmp_path, capsys, taps, line):
    scn = _scn(tmp_path, "methods = sawtooth\n" + taps)
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{scn}:{line}" in err
    assert not out.exists()


def test_off_grid_second_tap_names_its_tap_line(tmp_path, capsys):
    # p = 10.5 is 10.5 samples at the default 16 kHz.
    scn = _scn(tmp_path, "\n[tap]\ndelay_p = 48\n\n[tap]\ndelay_p = 10.5\n", "off.scn")
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {scn}:7: tap 1 delay ")
    assert not out.exists()


# (bandwidth, chirp, fs) that synthesis, the range axis or numpy cannot hold,
# and the rule each breaks.
_UNHELD_CHIRPS = {
    # B/Tc = 1e-330 underflows to 0, which range bins divide by.
    "zero_rate": (1e-300, 1e30, 1e-30, "chirp rate B/Tc must be at least"),
    # (2*Tc)^2 overflows, and times the zero rate gives nan.
    "overflow": (1e-300, 1e300, 2e-300, "chirp rate B/Tc must keep each phase"),
    # The rate 5e-311 is above 0, yet (2*Tc)^2 overflows.
    "overflow_above_zero": (5e-156, 1e155, 1e-155, "chirp rate B/Tc must keep each phase"),
    # N = 2^60 complex samples take 2^64 bytes.
    "sample_count": (2.0**58, 1.0, 2.0**59, "fs*Tc=5.76461e+17 gives 1.15292e+18 complex samples"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", ["waveform", "scn", "beat_csv"])
@pytest.mark.parametrize("case", list(_UNHELD_CHIRPS))
def test_a_chirp_no_array_can_hold_is_one_error_line(tmp_path, capsys, case, route):
    bandwidth, chirp, fs, message = _UNHELD_CHIRPS[case]
    out = tmp_path / "out"
    if route == "waveform":
        argv = ["waveform", "--bandwidth", repr(bandwidth), "--chirp", repr(chirp),
                "--fs", repr(fs)]
    elif route == "scn":
        scn = tmp_path / "x.scn"
        scn.write_text(f"bandwidth = {bandwidth!r}\nchirp = {chirp!r}\nfs = {fs!r}\n"
                       "\n[tap]\ndelay_s = 0\n")
        # B/Tc rules name the chirp line; the grid ties B and Tc to fs.
        line = 3 if case == "sample_count" else 2
        argv, message = ["simulate", str(scn)], f"{scn}:{line}: {message}"
    else:
        beat = tmp_path / "beat.csv"
        beat.write_text(f"# kind=triangle\n# bandwidth={bandwidth!r}\n# chirp={chirp!r}\n"
                        f"# f0=0.0\n# fs={fs!r}\nn,t,re,im\n0,0,1,0\n1,0,1,0\n")
        argv, message = ["profile", str(beat)], f"{beat}: {message}"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"configuration error: {message}")
    assert not out.exists()


def test_one_way_is_no_scn_key_and_no_profile_flag(tmp_path, capsys, four_path_dir):
    # One-way ranging is round trip at twice the speed: `speed = 686` for 343 m/s.
    scn = _scn(tmp_path, "one_way = true\n\n[tap]\ndelay_p = 48\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"configuration error: {scn}:3: unknown key 'one_way'\n"
    beat = str(four_path_dir / "beat_triangle_det.csv")
    assert run("profile", beat, "--one-way", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "unrecognized arguments: --one-way" in err
    assert not out.exists()


def test_simulate_onto_an_occupied_csv_path_is_one_io_error_line(tmp_path, capsys):
    occupied = tmp_path / "beat_extended.csv"
    occupied.mkdir()
    assert run("simulate", "non_integer", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == f"i/o error: [Errno 21] Is a directory: '{occupied}'\n"
    assert not (tmp_path / "report.txt").exists()
