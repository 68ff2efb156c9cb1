"""Vibration analysis chain, config/CSV ingestion, and the CLI."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coaxtail
from coaxtail.analysis import (
    DB_FLOOR,
    PsdResult,
    TimeSeries,
    avg_psd_db,
    cli_main,
    default_mean_window,
    load_allocation_gains,
    load_scenario,
    mean_subtract,
    peak_to_peak_reduction,
    psd,
    read_timeseries_csv,
    table_config_powers,
    write_psd_csv,
    write_timeseries_csv,
)
from coaxtail.aero import WingMode
from coaxtail.errors import ConfigError, NumericalDomainError
from coaxtail.vehicle import run_scenario, transition_profile

PROPS_DIR = Path(__file__).resolve().parent.parent / "configs" / "props"


def series(values, fs=1000.0):
    return TimeSeries(fs=fs, values=np.asarray(values, dtype=float))


def sine(freq, fs=1000.0, n=8192, amp=1.0):
    t = np.arange(n) / fs
    return series(amp * np.sin(2.0 * math.pi * freq * t), fs=fs)


class TestTimeSeriesTypes:
    def test_fs_must_be_positive(self):
        with pytest.raises(ConfigError):
            TimeSeries(fs=0.0, values=np.zeros(4))
        with pytest.raises(ConfigError):
            TimeSeries(fs=-5.0, values=np.zeros(4))

    def test_needs_two_samples(self):
        with pytest.raises(ConfigError):
            TimeSeries(fs=100.0, values=np.array([1.0]))

    def test_psd_result_invariants(self):
        with pytest.raises(ConfigError):
            PsdResult(freq=np.array([0.0, 2.0, 1.0]),
                      density=np.zeros(3), avg_db=0.0)
        with pytest.raises(ConfigError):
            PsdResult(freq=np.array([0.0, 1.0]),
                      density=np.array([1.0, -1.0]), avg_db=0.0)
        with pytest.raises(ConfigError):
            PsdResult(freq=np.array([0.0, 1.0]), density=np.zeros(3),
                      avg_db=0.0)


class TestMeanSubtract:
    def test_constant_becomes_zero(self):
        out = mean_subtract(series(np.full(100, 7.3)), 10)
        assert np.all(out.values == 0.0)

    def test_window_equal_length_removes_global_mean(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = mean_subtract(series(x), 4)
        assert np.allclose(out.values, x - 2.5, atol=1e-15)

    def test_window_bounds(self):
        s = series(np.zeros(10))
        with pytest.raises(ConfigError):
            mean_subtract(s, 11)
        with pytest.raises(ConfigError):
            mean_subtract(s, 0)

    def test_integer_period_sine_unchanged(self):
        # 40 Hz at 1 kHz: exactly one period per 25-sample block
        s = sine(40.0, n=4000)
        out = mean_subtract(s, 25)
        assert np.max(np.abs(out.values - s.values)) < 1e-12

    def test_idempotent_with_partial_tail(self):
        rng = np.random.default_rng(7)
        s = series(rng.standard_normal(1000) + 3.0)
        once = mean_subtract(s, 64)  # 15 full blocks + 40-sample tail
        twice = mean_subtract(once, 64)
        assert len(once) == 1000
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    def test_default_window_is_one_revolution(self):
        # hover shaft speed 0.2793 * 900 rad/s -> 25 samples at 1 kHz
        assert default_mean_window(1000.0) == 25


class TestPsd:
    def test_bin_centered_sine_integrates_to_half(self):
        # 62.5 Hz sits exactly on bin 64 of a 1024-sample segment at 1 kHz
        s = sine(62.5)
        result = psd(s, segment=1024, overlap=0.5)
        total = float(np.sum(result.density) * (result.freq[1]
                                                - result.freq[0]))
        assert total == pytest.approx(0.5, rel=0.02)
        peak = result.freq[np.argmax(result.density)]
        assert peak == pytest.approx(62.5, abs=1.0)

    def test_parameter_validation(self):
        s = sine(50.0, n=2048)
        with pytest.raises(ConfigError):
            psd(s, segment=1)
        with pytest.raises(ConfigError):
            psd(s, segment=4096)
        with pytest.raises(ConfigError):
            psd(s, segment=256, overlap=0.95)
        with pytest.raises(ConfigError):
            psd(s, segment=256, overlap=-0.1)
        with pytest.raises(ConfigError):
            psd(s, segment=2, overlap=0.9)  # rounds to a zero hop

    def test_all_zero_series_floors(self):
        result = psd(series(np.zeros(4096)), segment=512)
        assert np.all(result.density == 0.0)
        assert result.avg_db == DB_FLOOR
        assert avg_psd_db(result) == DB_FLOOR

    def test_white_noise_level_and_parseval(self):
        rng = np.random.default_rng(1234)
        sigma = 2.0
        n = 51200  # about a hundred 50%-overlapped 1024 segments
        x = sigma * rng.standard_normal(n)
        s = series(x)
        result = psd(s, segment=1024, overlap=0.5)
        expected = sigma ** 2 / (s.fs / 2.0)
        interior = result.density[1:-1]
        assert float(np.mean(interior)) == pytest.approx(expected, rel=0.10)
        total = float(np.sum(result.density) * (result.freq[1]
                                                - result.freq[0]))
        assert total == pytest.approx(float(np.var(x)), rel=0.02)

    def test_total_power_invariant_under_circular_shift(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(16384)
        a = psd(series(x), segment=1024)
        b = psd(series(np.roll(x, 137)), segment=1024)
        df = a.freq[1] - a.freq[0]
        pa = float(np.sum(a.density) * df)
        pb = float(np.sum(b.density) * df)
        assert abs(pb - pa) / pa < 0.01  # bound checked for this seed

    @pytest.mark.parametrize("n,segment,overlap,fs", [
        (8192, 1024, 0.5, 1000.0),
        (5000, 257, 0.5, 1000.0),    # odd segment
        (3000, 512, 0.3, 250.0),     # trailing partial segment dropped
        (4096, 256, 0.9, 2000.0),
        (1000, 1000, 0.0, 10.0),     # single segment
        (2, 2, 0.5, 1.0),
    ])
    def test_matches_scipy_welch(self, n, segment, overlap, fs):
        signal = pytest.importorskip("scipy.signal")
        x = np.random.default_rng(n + segment).standard_normal(n) + 0.3
        result = psd(series(x, fs=fs), segment=segment, overlap=overlap)
        freq, density = signal.welch(
            x, fs=fs, window="hann", nperseg=segment,
            noverlap=int(round(overlap * segment)), detrend=False,
            scaling="density")
        assert np.array_equal(result.freq, freq)
        assert np.allclose(result.density, density, rtol=1e-12, atol=0.0)

    def test_bins_ascend_densities_nonneg(self):
        result = psd(sine(100.0, n=4096), segment=512)
        assert np.all(np.diff(result.freq) > 0.0)
        assert np.all(result.density >= 0.0)


class TestAvgDb:
    def test_uniform_density_oracles(self):
        freq = np.arange(1.0, 11.0)
        low = PsdResult(freq, np.full(10, 1e-5), avg_db=0.0)
        assert avg_psd_db(low) == pytest.approx(-50.0, abs=1e-9)
        base = PsdResult(freq, np.full(10, 4e-5), avg_db=0.0)
        assert avg_psd_db(base) == pytest.approx(-43.979, abs=1e-3)

    def test_times_ten_adds_ten_db(self):
        rng = np.random.default_rng(3)
        dens = rng.uniform(1e-7, 1e-3, 64)
        freq = np.arange(64.0)
        a = avg_psd_db(PsdResult(freq, dens, avg_db=0.0))
        b = avg_psd_db(PsdResult(freq, 10.0 * dens, avg_db=0.0))
        assert b - a == pytest.approx(10.0, abs=1e-12)


class TestP2pReduction:
    def test_identical_is_zero(self):
        a = sine(40.0, n=1000)
        assert peak_to_peak_reduction(a, a) == 0.0

    def test_paper_ratio(self):
        a = sine(40.0, n=1000)
        b = series(0.371 * a.values)
        assert peak_to_peak_reduction(a, b) == pytest.approx(62.9, abs=1e-9)

    def test_zero_reference_undefined(self):
        a = series(np.full(100, 1.0))
        b = sine(40.0, n=100)
        with pytest.raises(NumericalDomainError):
            peak_to_peak_reduction(a, b)

    def test_growth_reports_negative(self):
        a = sine(40.0, n=1000)
        b = series(1.5 * a.values)
        assert peak_to_peak_reduction(a, b) == pytest.approx(-50.0, abs=1e-9)


class TestCsvIngestion:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "sig.csv"
        t = np.arange(100) / 500.0
        x = np.sin(t * 20.0)
        write_timeseries_csv(p, t, x, name="torque")
        s = read_timeseries_csv(p)
        assert s.fs == pytest.approx(500.0, rel=1e-6)
        assert s.unit == "torque"
        assert np.allclose(s.values, x, atol=1e-8)

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.0,1.0\n0.001,2.0\n")
        with pytest.raises(ConfigError):
            read_timeseries_csv(p)

    def test_uniformity_enforced(self, tmp_path):
        p = tmp_path / "jitter.csv"
        p.write_text("t,x\n0,1\n0.001,2\n0.0025,3\n0.003,4\n")
        with pytest.raises(ConfigError):
            read_timeseries_csv(p)

    def test_missing_file_is_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            read_timeseries_csv(tmp_path / "absent.csv")

    def test_bad_cell_names_file_and_line(self, tmp_path):
        p = tmp_path / "cells.csv"
        for body in ("0,1\n0.001,zz\n", "0,1\nsoon,2\n", "0,1\n0.001,nan\n",
                     "0,1\n0.001,-inf\n", "0,1\n\n0.001,x\n"):
            p.write_text("t,x\n" + body)
            line = body.count("\n") + 1
            with pytest.raises(ConfigError, match=rf"cells.csv: line {line}:"):
                read_timeseries_csv(p)

    def test_psd_csv_layout(self, tmp_path):
        result = psd(sine(62.5, n=2048), segment=512)
        p = tmp_path / "out.csv"
        write_psd_csv(p, result)
        lines = p.read_text().splitlines()
        assert lines[0] == "f_Hz,psd"
        assert len(lines) == 1 + result.freq.size


SCENARIO_CFG = """\
[scenario]
name = gust_replay
mode = hover
duration_s = 6.0
dt_s = 0.001
position_m = 0 0 1.5
yaw_deg = 90

[wind]
speed_mps = 5.0
direction = 2 0 0
start_s = 2.0
ramp_s = 0.5

[schedule]
wing = fixed:extended

[vehicle]
mass_kg = 1.1
inertia_diag = 0.02 0.024 0.009
drag_cd = 1.2
"""


class TestConfigIngestion:
    def test_full_scenario_file(self, tmp_path):
        p = tmp_path / "scn.cfg"
        p.write_text(SCENARIO_CFG)
        spec, params = load_scenario(p)
        assert spec.name == "gust_replay"
        assert spec.duration == 6.0
        assert spec.yaw == pytest.approx(math.pi / 2.0)
        assert spec.wind.speed == 5.0
        assert spec.wind.direction == (1.0, 0.0, 0.0)  # normalized
        assert spec.wing.mode_at(0.0) is WingMode.EXTENDED
        assert params.mass == 1.1
        assert params.drag_cd == 1.2
        assert params.inertia[2, 2] == 0.009

    def test_defaults_for_minimal_file(self, tmp_path):
        p = tmp_path / "min.cfg"
        p.write_text("[scenario]\nname = bare\n")
        spec, params = load_scenario(p)
        assert spec.mode == "hover"
        assert spec.duration == 10.0
        assert spec.wind.speed == 0.0
        assert params.mass == 1.2

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[scenario]\nnmae = typo\n")
        with pytest.raises(ConfigError):
            load_scenario(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[rotor]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_scenario(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "nope.cfg")

    def test_bad_wing_schedule_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[schedule]\nwing = sideways\n")
        with pytest.raises(ConfigError):
            load_scenario(p)

    def test_gains_file(self, tmp_path):
        p = tmp_path / "gains.cfg"
        p.write_text("[allocation]\nc_t1 = 0.01\nc_t2 = 0.005\n"
                     "k_t1 = 5e-5\nk_t2 = 3e-5\nc_m = 0.001\n"
                     "k_ey = 0.5\nk_ez = 0.3\nlam = 0.8\n")
        gains = load_allocation_gains(p)
        assert gains.c_t1 == 0.01
        assert gains.lam == 0.8

    def test_non_numeric_values_name_file_and_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        for text, where in (
                ("[scenario]\nduration_s = abc\n", r"\[scenario\] duration_s"),
                ("[scenario]\nposition_m = 0 x 1\n", r"\[scenario\] position_m"),
                ("[wind]\nspeed_mps = 5 m/s\n", r"\[wind\] speed_mps"),
                ("[wind]\nstop_s = later\n", r"\[wind\] stop_s"),
                ("[schedule]\nlambda_fw = low\n", r"\[schedule\] lambda_fw"),
                ("[vehicle]\nmass_kg = heavy\n", r"\[vehicle\] mass_kg"),
                ("[vehicle]\ninertia_diag = 1 2\n",
                 r"\[vehicle\] inertia_diag"),
                ("[scenario]\nyaw_deg = inf\n", r"\[scenario\] yaw_deg")):
            p.write_text(text)
            with pytest.raises(ConfigError, match=where):
                load_scenario(p)
        p.write_text("[allocation]\nc_t1 = lots\n")
        with pytest.raises(ConfigError, match=r"\[allocation\] c_t1"):
            load_allocation_gains(p)

    def test_gains_file_needs_section(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("\n")
        with pytest.raises(ConfigError):
            load_allocation_gains(p)

    def test_prop_tables_wiring(self, tmp_path):
        p = tmp_path / "scn.cfg"
        p.write_text("[scenario]\nname = t\n[vehicle]\n"
                     f"prop_tables_dir = {PROPS_DIR}\n")
        _, params = load_scenario(p)
        assert params.aft_table is not None
        assert params.aft_table.diameter == pytest.approx(0.1778)


class TestTablePowers:
    def test_shipped_tables_build_study(self):
        powers = table_config_powers(PROPS_DIR)
        by_name = {p.name: p for p in powers}
        assert set(by_name) == {"HPC", "HLC", "HSC"}
        for p in powers:
            assert p.hover_w > 0.0 and p.cruise_w > 0.0
        # heterogeneous pairing: hover near the lift-prop config, cruise
        # near the cruise-prop config
        assert by_name["HLC"].hover_w < by_name["HPC"].hover_w \
            < by_name["HSC"].hover_w
        assert by_name["HPC"].cruise_w < by_name["HLC"].cruise_w


class TestImport:
    def test_runtime_needs_numpy_only(self):
        code = ("import sys, coaxtail; "
                "print(sorted({m.split('.')[0] for m in sys.modules} "
                "& {'scipy', 'numba'}))")
        src = str(Path(coaxtail.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestCli:
    def test_power_analysis_fixture_summary(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = cli_main(["power-analysis", "--fixture", "paper-2025",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "crossover_HPC_HLC=0.447" in captured.out
        assert "reduction_at_r0.2_vs_HLC=29.2%" in captured.out
        header = out.read_text().splitlines()[0]
        assert header == "r,HLC_W,HPC_W,HSC_W"

    def test_unknown_fixture_is_validation(self, tmp_path, capsys):
        code = cli_main(["power-analysis", "--fixture", "nope",
                         "--out", str(tmp_path / "c.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "category=validation" in captured.err

    def test_unknown_subcommand_usage(self, capsys):
        code = cli_main(["warp-drive"])
        captured = capsys.readouterr()
        assert code == 1
        assert "usage:" in captured.err
        assert "category=validation" in captured.err

    def test_no_subcommand_usage(self, capsys):
        code = cli_main([])
        captured = capsys.readouterr()
        assert code == 1
        assert "usage:" in captured.err

    def test_mix_check_reports_residual(self, capsys):
        code = cli_main(["mix-check", "--trials", "1000"])
        captured = capsys.readouterr()
        assert code == 0
        line = captured.out.splitlines()[0]
        fields = dict(kv.split("=", 1) for kv in line.split())
        assert int(fields["trials"]) == 1000
        assert float(fields["max_residual"]) < 1e-9

    def test_bench_then_psd_chain(self, tmp_path, capsys):
        torque = tmp_path / "tq.csv"
        code = cli_main(["bench-splm", "--variant", "decoupled",
                         "--amplitude", "0", "--duration", "2",
                         "--out", str(torque)])
        assert code == 0
        out = capsys.readouterr().out
        assert "torque_p2p=0" in out
        code = cli_main(["psd", str(torque), "--segment", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"avg_psd_db={DB_FLOOR:.9g}" in out

    def test_bench_splm_rejects_bad_inputs(self, tmp_path, capsys):
        out = str(tmp_path / "tq.csv")
        for argv in (["--duration", "nan"], ["--throttle", "nan"],
                     ["--amplitude", "nan"], ["--phase", "inf"],
                     ["--throttle", "-900"]):
            code = cli_main(["bench-splm", *argv, "--out", out])
            err = capsys.readouterr().err
            assert code == 1, argv
            lines = err.splitlines()
            assert len(lines) == 1 and "category=validation" in lines[0], argv
            assert "Traceback" not in err

    def test_psd_missing_file(self, capsys, tmp_path):
        code = cli_main(["psd", str(tmp_path / "none.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "category=validation" in captured.err

    def test_simulate_reproducible(self, tmp_path, capsys):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text("[scenario]\nname = quick\nduration_s = 1.0\n")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli_main(["simulate", str(cfg), "--out", str(a)]) == 0
        assert cli_main(["simulate", str(cfg), "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_rejects_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for text in ("[scenario]\nmode = sideways\n",
                     "[scenario]\nduration_s = nan\n",
                     "[scenario]\ndt_s = nan\n",
                     "duration_s = 1\n",  # no section header
                     "[scenario]\nduration_s = abc\n",
                     "[scenario]\nposition_m = 0 0 high\n",
                     "[wind]\nspeed_mps = nan\n",
                     "[vehicle]\nmass_kg = nan\n",
                     "[vehicle]\ngravity = inf\n"):
            cfg.write_text(text)
            code = cli_main(["simulate", str(cfg)])
            err = capsys.readouterr().err.splitlines()
            assert code == 1
            assert len(err) == 1 and "category=validation" in err[0]

    def test_psd_rejects_non_numeric_cell(self, tmp_path, capsys):
        p = tmp_path / "cells.csv"
        p.write_text("t,x\n0,1\n0.001,zz\n0.002,3\n")
        code = cli_main(["psd", str(p)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and "category=validation" in err[0]
        assert "line 3" in err[0]

    def test_simulate_transition_reports_tracking(self, tmp_path, capsys):
        cfg = tmp_path / "tr.cfg"
        cfg.write_text("[scenario]\nname = tr\nmode = transition\n"
                       "duration_s = 3.0\nposition_m = 0 0 2\n"
                       "[schedule]\nwing = pitch\n")
        out = tmp_path / "tr.csv"
        assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        fields = dict(kv.split("=", 1) for kv in lines[1].split())
        assert set(fields) == {"ramp_pitch_rms_deg", "cruise_speed_mps"}
        assert fields["cruise_speed_mps"] == "n/a"  # log ends before 41 s
        # the RMS is criterion 8's: pitch minus profile over 2..22 s
        spec, params = load_scenario(cfg)
        log = run_scenario(spec, params)
        ramp = (log.t >= 2.0) & (log.t <= 22.0)
        sp = np.array([transition_profile(t) for t in log.t[ramp]])
        rms = math.degrees(float(np.sqrt(np.mean(
            (log.pitch()[ramp] - sp) ** 2))))
        assert fields["ramp_pitch_rms_deg"] == f"{rms:.9g}"

    def test_simulate_hover_reports_position_error(self, tmp_path, capsys):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text("[scenario]\nname = quick\nduration_s = 0.5\n")
        assert cli_main(["simulate", str(cfg), "--out",
                         str(tmp_path / "q.csv")]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert set(dict(kv.split("=", 1) for kv in line.split())) == {
            "final_error_m", "peak_deviation_m"}

    def test_simulate_reports_saturation(self, tmp_path, capsys):
        """Both modes end with how hard the mixer clipped: the share of
        ticks with s < 1 and the smallest s."""
        for mode in ("hover", "transition"):
            cfg = tmp_path / f"{mode}.cfg"
            cfg.write_text(f"[scenario]\nname = {mode}\nmode = {mode}\n"
                           "duration_s = 0.5\n")
            assert cli_main(["simulate", str(cfg), "--out",
                             str(tmp_path / f"{mode}.csv")]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 3
            fields = dict(kv.split("=", 1) for kv in lines[2].split())
            assert fields == {"sat_clip_fraction": "0", "sat_min_scale": "1"}

    def test_shipped_transition_never_clips(self):
        log = run_scenario(*load_scenario(PROPS_DIR.parent / "transition.cfg"))
        assert log.saturation() == (0.0, 1.0)

    def test_wind_test_rejects_runs_ending_before_the_gust(self, capsys):
        for argv in (["--duration", "1"], ["--duration", "2"],
                     ["--duration", "nan"], ["--speed", "nan"],
                     ["--speed", "inf"]):
            code = cli_main(["wind-test", "--mode", "retracted", *argv])
            err = capsys.readouterr().err.splitlines()
            assert code == 1, argv
            assert len(err) == 1 and "category=validation" in err[0], argv

    def test_wind_test_prints_peak(self, capsys):
        code = cli_main(["wind-test", "--mode", "retracted",
                         "--duration", "4"])
        captured = capsys.readouterr()
        assert code == 0
        line = captured.out.splitlines()[0]
        assert line.startswith("mode=retracted ")
        fields = dict(kv.split("=", 1) for kv in line.split())
        assert float(fields["peak_deviation_m"]) >= 0.0
