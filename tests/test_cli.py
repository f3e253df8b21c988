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
    assert "tap 0" in err and "override fs" in err


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
    write_signal_csv(beat_csv, beat.samples, 16000.0,
                     {"kind": "triangle", "bandwidth": 8000.0, "chirp": 0.1,
                      "f0": 0.0, "fs": 16000.0})
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
    assert "custom scenarios only" in capsys.readouterr().err


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


def test_speed_flag_keeps_the_files_one_way(tmp_path):
    scn = tmp_path / "delay_p.scn"
    scn.write_text("bandwidth = 8000\nchirp = 0.1\none_way = true\n\n[tap]\ndelay_p = 24\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--speed", "340", "--out", str(out)) == 0
    constants = json.loads((out / "metrics.json").read_text())["constants"]
    assert constants["speed_mps"] == 340.0
    assert constants["round_trip"] is False


def test_one_way_flag_keeps_the_files_speed(tmp_path):
    # 0.51 m one way at 340 m/s is 1.5 ms, sample 24; at 343 m/s it is off the grid.
    scn = tmp_path / "range.scn"
    scn.write_text("bandwidth = 8000\nchirp = 0.1\nspeed = 340\n\n[tap]\nrange_m = 0.51\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--one-way", "--out", str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["constants"]["speed_mps"] == 340.0
    assert metrics["constants"]["round_trip"] is False
    assert metrics["methods"]["triangle"]["peak_bins"] == [24]


@pytest.mark.parametrize(
    "argv, names",
    [
        (["simulate", "four_path", "--speed", "nan"], "propagation speed"),
        (["simulate", "four_path", "--speed", "inf"], "propagation speed"),
        (["waveform", "--bandwidth", "inf", "--chirp", "0.1"], "bandwidth_hz"),
        (["waveform", "--bandwidth", "8000", "--chirp", "nan"], "chirp_duration_s"),
        (["waveform", "--bandwidth", "8000", "--chirp", "0.1", "--f0", "nan"],
         "start_freq_hz"),
        (["waveform", "--bandwidth", "8000", "--chirp", "0.1", "--fs", "inf"],
         "sample_rate_hz"),
    ],
)
def test_non_finite_flag_exits_two_naming_it(tmp_path, capsys, argv, names):
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and names in err
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
    (_drop_last_row, ["3199 sample rows", "needs 3200"]),
], ids=["bandwidth", "kind", "fs", "one_row_short"])
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
        assert len(err.splitlines()) == 1 and "too large for a finite profile" in err


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
    assert run("simulate", "four_path", "--seed", "7", "--one-way", "--out", str(one_way)) == 0
    assert run("simulate", "four_path", "--out", str(plain)) == 0
    constants = json.loads((plain / "metrics.json").read_text())["constants"]
    assert constants["seed"] == 1 and constants["round_trip"] is True
    assert cli_module._build_parser() is cli_module._build_parser()


def _scn(tmp_path, body, name="x.scn"):
    path = tmp_path / name
    path.write_text("bandwidth = 8000\nchirp = 0.1\n" + body)
    return path


@pytest.mark.parametrize("value", ["nan", "-inf", "3"])
def test_simulate_threshold_must_be_finite_and_not_positive(tmp_path, capsys, value):
    scn = _scn(tmp_path, "\n[tap]\ndelay_p = 48\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), f"--threshold-db={value}", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "threshold_db" in err
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


@pytest.mark.parametrize(
    "flags, limit",
    [([], "17.15 m (c*Tc/2 round trip)"), (["--one-way"], "34.3 m (c*Tc one way)")],
)
def test_triangle_tap_at_or_beyond_tc_exits_two(tmp_path, capsys, flags, limit):
    # p = 3000 is tau = 1.5*Tc at B = 8 kHz, Tc = 0.1 s.
    scn = _scn(tmp_path, "\n[tap]\ndelay_p = 48\n\n[tap]\ndelay_p = 3000\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "tap 1 delay 0.1875 s" in err and "maximum unambiguous range is " + limit in err
    assert not out.exists()


def test_triangle_tap_just_inside_tc_still_runs(tmp_path):
    scn = _scn(tmp_path, "\n[tap]\ndelay_p = 1599\n")
    assert run("simulate", str(scn), "--out", str(tmp_path / "out")) == 0


def test_waveform_start_frequency_past_the_band_edge_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["waveform", "--bandwidth", "8000", "--chirp", "0.1", "--f0", "500"]
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "band edge" in err and "17000" in err
    assert not out.exists()
    assert run(*argv, "--fs", "17000", "--out", str(out)) == 0


def test_profile_rejects_a_non_numeric_time_column(tmp_path, capsys):
    wave = tmp_path / "wave"
    assert run("waveform", "--bandwidth", "8000", "--chirp", "0.1", "--out", str(wave)) == 0
    capsys.readouterr()
    csv = wave / "waveform.csv"
    csv.write_text(csv.read_text().replace("\n1,6.25e-05,", "\n1,zzz,", 1))
    assert run("profile", str(csv), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "zzz" in err


# Round trip at 340 or 343 m/s and one way at 343 m/s put 3.644375 m on the
# 16-kHz grid; one way at 340 m/s needs the 32-kHz grid, given with it below.
_OVERRIDE_TAPS = (
    "\n[tap]\ndelay_p = 48\ngain = rayleigh\n"
    "\n[tap]\nrange_m = 3.644375\ngain_re = 0.7\ngain_im = 0.2\n"
)
_FLAG_KEYS = {
    "seed": (["--seed", "11"], "seed = 11"),
    "threshold": (["--threshold-db", "-20"], "threshold_db = -20"),
    "fs": (["--fs", "32000"], "fs = 32000"),
    "speed": (["--speed", "340"], "speed = 340"),
    "one_way": (["--one-way"], "one_way = true"),
}


def _run_scn(tmp_path, subdir, keys, *flags):
    scn = tmp_path / subdir / "x.scn"
    scn.parent.mkdir()
    scn.write_text("bandwidth = 8000\nchirp = 0.1\nmethods = triangle,sawtooth\n"
                   + "".join(line + "\n" for line in keys) + _OVERRIDE_TAPS)
    out = tmp_path / subdir / "out"
    assert run("simulate", str(scn), *flags, "--out", str(out)) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("names", [[name] for name in _FLAG_KEYS] + [list(_FLAG_KEYS)])
def test_simulate_flag_gives_the_bytes_of_its_scn_key(tmp_path, names):
    flags = [flag for name in names for flag in _FLAG_KEYS[name][0]]
    keys = [_FLAG_KEYS[name][1] for name in names]
    assert _run_scn(tmp_path, "flag", [], *flags) == _run_scn(tmp_path, "key", keys)


@pytest.mark.parametrize(
    "line, flags",
    [
        ("seed = x", ["--seed", "3"]),
        ("threshold_db = 3", ["--threshold-db", "-20"]),
        ("fs = nan", ["--fs", "32000"]),
        ("speed = inf", ["--speed", "340"]),
        ("one_way = maybe", ["--one-way"]),
        ("speed = -1", ["--speed", "340"]),
    ],
)
def test_bad_scn_value_replaced_by_a_flag_still_exits_two(tmp_path, capsys, line, flags):
    scn = _scn(tmp_path, line + "\n" + _OVERRIDE_TAPS)
    out = tmp_path / "out"
    assert run("simulate", str(scn), *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{scn}:3:" in err
    assert not out.exists()


def test_simulate_negative_seed_on_a_scn_exits_two(tmp_path, capsys):
    scn = _scn(tmp_path, _OVERRIDE_TAPS)
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--seed", "-1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "seed must be non-negative" in err
    assert not out.exists()


def test_simulate_builtin_negative_seed_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("simulate", "four_path", "--seed", "-1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "seed" in err and "got -1" in err
    assert not out.exists()


def test_scn_seed_of_two_to_the_64_exits_two(tmp_path, capsys):
    scn = _scn(tmp_path, "seed = 18446744073709551616\n" + _OVERRIDE_TAPS)
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{scn}:3:" in err
    assert "got 18446744073709551616" in err
    assert not out.exists()


@pytest.mark.parametrize("fs", ["5", "-5"])
def test_fs_flag_off_the_grid_exits_two_on_a_scn_without_taps(tmp_path, capsys, fs):
    scn = _scn(tmp_path, "methods = triangle,extended\n")
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--fs", fs, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "complex-baseband bound" in err
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
], ids=["delay", "gain", "two_gains"])
def test_simulate_scn_past_float_range_is_one_error_line(tmp_path, capsys, taps, line):
    scn = _scn(tmp_path, "methods = sawtooth\n" + taps)
    out = tmp_path / "out"
    assert run("simulate", str(scn), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{scn}:{line}" in err
    assert not out.exists()


# The fs key's own check is "a finite number"; the band edge and the grid
# apply to the fs the run uses, so --fs repairs a file fs that is too low.
def test_fs_flag_replaces_a_file_fs_below_the_band_edge(tmp_path, capsys):
    scn = _scn(tmp_path, "fs = 5\n")
    assert run("simulate", str(scn), "--fs", "32000", "--out", str(tmp_path / "o32")) == 0
    capsys.readouterr()
    assert run("simulate", str(scn), "--out", str(tmp_path / "o5")) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{scn}:3: fs=5.0 Hz is below" in err


def test_fs_flag_puts_an_off_grid_file_tap_on_the_grid(tmp_path, capsys):
    # p = 10.5 is 10.5 samples at the default 16 kHz and 21 at 32 kHz.
    scn = _scn(tmp_path, "\n[tap]\ndelay_p = 48\n\n[tap]\ndelay_p = 10.5\n", "off.scn")
    assert run("simulate", str(scn), "--out", str(tmp_path / "o16")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {scn}:7: tap 1 delay ")
    assert run("simulate", str(scn), "--fs", "32000", "--out", str(tmp_path / "o32")) == 0
