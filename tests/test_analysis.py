"""Vibration analysis chain, config/CSV ingestion, and the CLI."""

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import coaxtail
from coaxtail.analysis import (
    DB_FLOOR,
    _SCENARIO_SCHEMA,
    _build_parser,
    _finite_float,
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
from coaxtail.control import AllocationGains
from coaxtail.errors import ConfigError, NumericalDomainError
from coaxtail.propulsion import fixture_config_powers, load_propeller_table
from coaxtail.rotor import HOVER_THROTTLE, SPEED_PER_THROTTLE
from coaxtail.stock import CRUISE_SPEED, CRUISE_THRUST, MASS
from coaxtail.vehicle import (ScenarioSpec, VehicleParams, run_scenario,
                              transition_profile)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PROPS_DIR = CONFIG_DIR / "props"


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

    def test_values_must_be_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="finite"):
                TimeSeries(fs=100.0, values=[1.0, bad])

    def test_psd_result_invariants(self):
        with pytest.raises(ConfigError):
            PsdResult(freq=np.array([0.0, 2.0, 1.0]),
                      density=np.zeros(3))
        with pytest.raises(ConfigError):
            PsdResult(freq=np.array([0.0, 1.0]),
                      density=np.array([1.0, -1.0]))
        with pytest.raises(ConfigError):
            PsdResult(freq=np.array([0.0, 1.0]), density=np.zeros(3))


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
        for window in (2.5, 0.5, math.nan, math.inf):
            with pytest.raises(ConfigError, match="whole number"):
                mean_subtract(s, window)
        # whole numbers of samples, numpy's included, are still windows
        for window in (np.int64(5), 5.0):
            assert np.all(mean_subtract(s, window).values == 0.0)

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
        rev_rate = SPEED_PER_THROTTLE * HOVER_THROTTLE / (2.0 * math.pi)
        for fs in (500.0, 1000.0, 2000.0, 4000.0):
            want = max(1, int(round(fs / rev_rate)))
            assert default_mean_window(fs) == want

    def test_default_window_needs_a_positive_finite_rate(self):
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1000.0):
            with pytest.raises(ConfigError, match="fs"):
                default_mean_window(bad)


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
        for segment in (256.7, math.nan):
            with pytest.raises(ConfigError, match="whole number"):
                psd(s, segment=segment)
        assert psd(s, segment=np.int32(256)).freq.size == 129

    def test_all_zero_series_floors(self):
        result = psd(series(np.zeros(4096)), segment=512)
        assert np.all(result.density == 0.0)
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
        low = PsdResult(freq, np.full(10, 1e-5))
        assert avg_psd_db(low) == pytest.approx(-50.0, abs=1e-9)
        base = PsdResult(freq, np.full(10, 4e-5))
        assert avg_psd_db(base) == pytest.approx(-43.979, abs=1e-3)

    def test_times_ten_adds_ten_db(self):
        rng = np.random.default_rng(3)
        dens = rng.uniform(1e-7, 1e-3, 64)
        freq = np.arange(64.0)
        a = avg_psd_db(PsdResult(freq, dens))
        b = avg_psd_db(PsdResult(freq, 10.0 * dens))
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

    def test_rows_hold_exactly_two_numbers(self, tmp_path):
        p = tmp_path / "wide.csv"
        for text, where in (("t,x,y\n0,1,2\n0.001,2,3\n", "expected header"),
                            ("t,x\n0,1\n0.001,2,7\n0.002,3\n", "line 3:"),
                            ("t,x\n0,1\n0.001\n0.002,3\n", "line 3:")):
            p.write_text(text)
            with pytest.raises(ConfigError, match=where):
                read_timeseries_csv(p)

    def test_psd_csv_layout(self, tmp_path):
        result = psd(sine(62.5, n=2048), segment=512)
        p = tmp_path / "out.csv"
        write_psd_csv(p, result)
        lines = p.read_text().splitlines()
        assert lines[0] == "f_Hz,psd"
        assert len(lines) == 1 + result.freq.size

    def test_writers_match_a_per_row_fstring_writer(self, tmp_path):
        """Both two-column writers give the bytes of a text-mode writer
        that f-strings each numpy scalar, one row at a time, signed zeros
        and the extremes of the exponent range included."""
        def reference(path, header, a, b):
            with open(path, "w", newline="") as fh:
                fh.write(f"{header}\n")
                for ai, bi in zip(a, b):
                    fh.write(f"{ai:.9g},{bi:.9g}\n")

        ref, got = tmp_path / "ref.csv", tmp_path / "got.csv"
        t = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324,
                      1.0 / 3.0, 123456789.125, math.pi])
        x = t[::-1] * -7.0
        reference(ref, "t,torque", t, x)
        write_timeseries_csv(got, t, x, name="torque")
        assert got.read_bytes() == ref.read_bytes()

        freq = np.array([-1e300, -1e-300, -0.0, 1e-300, 1.0 / 3.0, 1e300])
        density = np.array([0.0, -0.0, 1e-300, 1e300, 2.5, 5e-324])
        reference(ref, "f_Hz,psd", freq, density)
        write_psd_csv(got, PsdResult(freq, density))
        assert got.read_bytes() == ref.read_bytes()


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
                     "k_ey = 0.5\nk_ez = 0.3\n")
        assert load_allocation_gains(p) == AllocationGains(
            c_t1=0.01, c_t2=0.005, k_t1=5e-5, k_t2=3e-5, c_m=0.001,
            k_ey=0.5, k_ez=0.3)

    def test_gains_file_takes_no_allocation_ratio(self, tmp_path):
        # the ratio is the scenario's [schedule] lambda_*, decided per tick
        p = tmp_path / "gains.cfg"
        p.write_text("[allocation]\nc_t1 = 0.01\nlam = 0.8\n")
        with pytest.raises(ConfigError, match=re.escape(
                "unknown key(s) ['lam'] in [allocation]")):
            load_allocation_gains(p)

    def test_non_numeric_values_name_file_and_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        prefix = "^" + re.escape(f"{p}: ")
        for text, where in (
                ("[scenario]\nduration_s = abc\n", r"\[scenario\] duration_s"),
                ("[scenario]\nposition_m = 0 x 1\n", r"\[scenario\] position_m"),
                ("[wind]\nspeed_mps = 5 m/s\n", r"\[wind\] speed_mps"),
                ("[wind]\nstop_s = later\n", r"\[wind\] stop_s"),
                ("[schedule]\nlambda_fw = low\n", r"\[schedule\] lambda_fw"),
                ("[vehicle]\nmass_kg = heavy\n", r"\[vehicle\] mass_kg"),
                ("[vehicle]\ninertia_diag = 1 2\n",
                 r"\[vehicle\] inertia_diag"),
                ("[scenario]\nyaw_deg = inf\n", r"\[scenario\] yaw_deg"),
                ("[schedule]\nwing = sideways\n", r"\[schedule\] wing"),
                ("[vehicle]\nprop_tables_dir = no_such_dir\n",
                 r"\[vehicle\] prop_tables_dir")):
            p.write_text(text)
            with pytest.raises(ConfigError, match=prefix + where):
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


def _same(a, b):
    """Field-by-field equality of nested dataclasses holding arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


# one non-default value per scenario key: (section, key, text, part,
# fields), where part is "spec", "params" or the ScenarioSpec field
# ("wind", "wing", "lam") that the key sets
SCHEMA_CASES = [
    ("scenario", "name", "gust", "spec", {"name": "gust"}),
    ("scenario", "mode", "transition", "spec", {"mode": "transition"}),
    ("scenario", "duration_s", "3.5", "spec", {"duration": 3.5}),
    ("scenario", "dt_s", "0.0005", "spec", {"dt": 0.0005}),
    ("scenario", "position_m", "1 2 3", "spec", {"position": (1.0, 2.0, 3.0)}),
    ("scenario", "yaw_deg", "90", "spec", {"yaw": math.radians(90.0)}),
    ("scenario", "start_position_m", "0.5 0 1", "spec",
     {"start_position": (0.5, 0.0, 1.0)}),
    ("wind", "speed_mps", "4", "wind", {"speed": 4.0}),
    ("wind", "direction", "0 1 0", "wind", {"direction": (0.0, 1.0, 0.0)}),
    ("wind", "start_s", "2", "wind", {"start": 2.0}),
    ("wind", "stop_s", "9", "wind", {"stop": 9.0}),
    ("wind", "ramp_s", "0.25", "wind", {"ramp": 0.25}),
    ("schedule", "wing", "pitch", "wing", {"kind": "pitch"}),
    ("schedule", "wing", "fixed:extended", "wing",
     {"mode": WingMode.EXTENDED}),
    ("schedule", "extend_below_deg", "-10", "wing",
     {"extend_below": math.radians(-10.0)}),
    ("schedule", "lambda_hover", "0.8", "lam", {"lam_hover": 0.8}),
    ("schedule", "lambda_fw", "0.5", "lam", {"lam_fw": 0.5}),
    ("schedule", "lambda_start_deg", "-35", "lam",
     {"pitch_start": math.radians(-35.0)}),
    ("schedule", "lambda_end_deg", "-75", "lam",
     {"pitch_end": math.radians(-75.0)}),
    ("vehicle", "mass_kg", "1.5", "params", {"mass": 1.5}),
    ("vehicle", "inertia_diag", "0.03 0.02 0.01", "params",
     {"inertia": np.diag([0.03, 0.02, 0.01])}),
    ("vehicle", "drag_cd", "1.3", "params", {"drag_cd": 1.3}),
    ("vehicle", "lateral_area_m2", "0.05", "params", {"lateral_area": 0.05}),
    ("vehicle", "axial_area_m2", "0.02", "params", {"axial_area": 0.02}),
    ("vehicle", "aft_speed_per_count", "0.2", "params",
     {"aft_speed_per_count": 0.2}),
    ("vehicle", "prop_tables_dir", str(PROPS_DIR), "params",
     {"aft_table": load_propeller_table(PROPS_DIR, "7in")}),
]


class TestScenarioSchema:
    """load_scenario passes on only the keys a file sets, so every other
    field keeps the dataclass default."""

    def test_minimal_file_takes_the_dataclass_defaults(self, tmp_path):
        p = tmp_path / "min.cfg"
        p.write_text("[scenario]\n")
        spec, params = load_scenario(p)
        # an unnamed scenario is "scenario", not ScenarioSpec's "hover"
        assert spec == ScenarioSpec(name="scenario")
        assert _same(params, VehicleParams())

    def test_cases_cover_every_key(self):
        assert {(s, k) for s, k, *_ in SCHEMA_CASES} == {
            (s, k) for s, keys in _SCENARIO_SCHEMA.items() for k in keys}

    # the props directory's text is the checkout's path, so its id is fixed
    @pytest.mark.parametrize("section,key,text,part,fields", SCHEMA_CASES,
                             ids=[f"{c[1]}=" + ("configs/props"
                                                if c[2] == str(PROPS_DIR)
                                                else c[2])
                                  for c in SCHEMA_CASES])
    def test_each_key_lands_on_its_field(self, tmp_path, section, key, text,
                                         part, fields):
        p = tmp_path / "one.cfg"
        p.write_text(f"[{section}]\n{key} = {text}\n")
        spec, params = load_scenario(p)
        want_spec, want_params = ScenarioSpec(name="scenario"), VehicleParams()
        if part == "params":
            want_params = dataclasses.replace(want_params, **fields)
        elif part == "spec":
            want_spec = dataclasses.replace(want_spec, **fields)
        else:
            want_spec = dataclasses.replace(want_spec, **{
                part: dataclasses.replace(getattr(want_spec, part), **fields)})
        assert spec == want_spec
        assert _same(params, want_params)

    def test_gains_file_takes_the_defaults_it_leaves_out(self, tmp_path):
        p = tmp_path / "gains.cfg"
        p.write_text("[allocation]\nc_m = 0.003\n")
        assert load_allocation_gains(p) == AllocationGains(c_m=0.003)


# one refused value per scenario and allocation key: (section, key, the
# section's text, the keys the error names). The keys named are every key
# the file set for the refused object, in file order. A key that no check
# refuses on its own is set beside a refused key of the same object.
REFUSED_CASES = [
    ("scenario", "name", "name = gust\ndt_s = 5",
     "[scenario] name, [scenario] dt_s"),
    ("scenario", "mode", "mode = glide", "[scenario] mode"),
    ("scenario", "duration_s", "duration_s = -1", "[scenario] duration_s"),
    ("scenario", "dt_s", "dt_s = 5", "[scenario] dt_s"),
    ("scenario", "position_m", "position_m = 1 2 3\nduration_s = 0",
     "[scenario] position_m, [scenario] duration_s"),
    ("scenario", "yaw_deg", "yaw_deg = 90\nmode = glide",
     "[scenario] yaw_deg, [scenario] mode"),
    ("scenario", "start_position_m", "start_position_m = 0 0 1\ndt_s = 5",
     "[scenario] start_position_m, [scenario] dt_s"),
    ("wind", "speed_mps", "speed_mps = -1", "[wind] speed_mps"),
    ("wind", "direction", "speed_mps = 4\ndirection = 0 0 0",
     "[wind] speed_mps, [wind] direction"),
    ("wind", "start_s", "start_s = 5\nstop_s = 3",
     "[wind] start_s, [wind] stop_s"),
    ("wind", "stop_s", "stop_s = -1", "[wind] stop_s"),
    ("wind", "ramp_s", "ramp_s = -1", "[wind] ramp_s"),
    # the wing and the allocation ratio are two objects of one section
    ("schedule", "wing", "wing = fixed:sideways\nlambda_hover = 0.5",
     "[schedule] wing"),
    ("schedule", "extend_below_deg",
     "extend_below_deg = -10\nwing = fixed:sideways",
     "[schedule] extend_below_deg, [schedule] wing"),
    ("schedule", "lambda_hover", "wing = pitch\nlambda_hover = 1.5",
     "[schedule] lambda_hover"),
    ("schedule", "lambda_fw", "lambda_fw = -0.5", "[schedule] lambda_fw"),
    ("schedule", "lambda_start_deg", "lambda_start_deg = -80",
     "[schedule] lambda_start_deg"),
    ("schedule", "lambda_end_deg",
     "lambda_start_deg = -40\nlambda_end_deg = -10",
     "[schedule] lambda_start_deg, [schedule] lambda_end_deg"),
    ("vehicle", "mass_kg", "mass_kg = 0", "[vehicle] mass_kg"),
    ("vehicle", "inertia_diag", "inertia_diag = 0 0 0",
     "[vehicle] inertia_diag"),
    ("vehicle", "drag_cd", "drag_cd = 0", "[vehicle] drag_cd"),
    ("vehicle", "lateral_area_m2", "lateral_area_m2 = 0",
     "[vehicle] lateral_area_m2"),
    ("vehicle", "axial_area_m2", "axial_area_m2 = 0",
     "[vehicle] axial_area_m2"),
    ("vehicle", "aft_speed_per_count", "aft_speed_per_count = 0",
     "[vehicle] aft_speed_per_count"),
    ("vehicle", "prop_tables_dir",
     f"prop_tables_dir = {PROPS_DIR}\nmass_kg = 0",
     "[vehicle] prop_tables_dir, [vehicle] mass_kg"),
    ("allocation", "c_t1", "c_t1 = -1", "[allocation] c_t1"),
    ("allocation", "c_t2", "c_t2 = -1", "[allocation] c_t2"),
    ("allocation", "k_t1", "k_t1 = -1", "[allocation] k_t1"),
    ("allocation", "k_t2", "k_t2 = -1", "[allocation] k_t2"),
    ("allocation", "c_m", "c_m = 0", "[allocation] c_m"),
    ("allocation", "k_ey", "k_ey = 0", "[allocation] k_ey"),
    # each product underflows to zero: a cross-field refusal
    ("allocation", "k_ez", "c_t1 = 1e-200\nk_t2 = 1e-200\nc_t2 = 1e-200\n"
     "k_t1 = 1e-200\nk_ez = 0.5",
     "[allocation] c_t1, [allocation] k_t2, [allocation] c_t2, "
     "[allocation] k_t1, [allocation] k_ez"),
]


class TestRefusedValueNamesFileAndKeys:
    def test_cases_cover_every_key(self):
        assert {(s, k) for s, k, *_ in REFUSED_CASES} == {
            *((s, k) for s, keys in _SCENARIO_SCHEMA.items() for k in keys),
            *(("allocation", f.name)
              for f in dataclasses.fields(AllocationGains))}

    @pytest.mark.parametrize("section,key,text,named", REFUSED_CASES,
                             ids=[f"{c[0]}.{c[1]}" for c in REFUSED_CASES])
    def test_refusal_is_prefixed(self, tmp_path, section, key, text, named):
        p = tmp_path / "bad.cfg"
        p.write_text(f"[{section}]\n{text}\n")
        load = (load_allocation_gains if section == "allocation"
                else load_scenario)
        with pytest.raises(ConfigError) as info:
            load(p)
        message = str(info.value)
        assert message.startswith(f"{p}: {named}: "), message
        # the object's own reason follows the prefix
        assert len(message) > len(f"{p}: {named}: ")

    def test_cli_exits_1_with_one_line(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        for dt_s, reason in (
                ("5", "dt must lie in [1 us, 1 ms], got 5.0"),
                # a tick below 1 us, by the tick's own rule, not by the
                # loop-rate check with its 300-digit base rate
                ("1e-300", "dt must lie in [1 us, 1 ms], got 1e-300"),
                # a whole tick rate that a controller loop rate does not
                # divide is refused with the file, before the run
                ("0.0004", "yaw_rate_rate rate 200 must divide base rate "
                           "2500")):
            p.write_text(f"[scenario]\ndt_s = {dt_s}\n")
            code = cli_main(["simulate", str(p)])
            err = capsys.readouterr().err.splitlines()
            assert code == 1
            assert err == [f"error: category=validation type=ConfigError "
                           f"message={p}: [scenario] dt_s: {reason}"]

    def test_cli_refuses_a_gravity_key(self, tmp_path, capsys):
        """The simulator flies under stock.GRAVITY; [vehicle] has no
        gravity key, so setting one is an unknown key."""
        p = tmp_path / "bad.cfg"
        p.write_text("[vehicle]\ngravity = 9.81\n")
        code = cli_main(["simulate", str(p)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error: category=validation type=ConfigError "
                       f"message={p}: unknown key(s) ['gravity'] in "
                       f"[vehicle]"]


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

    def test_same_configs_in_the_same_order_as_the_fixture(self):
        names = [p.name for p in table_config_powers(PROPS_DIR)]
        assert names == [p.name for p in fixture_config_powers()]
        assert names == ["HPC", "HLC", "HSC"]

    @pytest.mark.parametrize("name", ["mass", "cruise_thrust",
                                      "cruise_speed"])
    def test_study_parameters_are_not_arguments(self, name):
        """The study's mass, cruise thrust and cruise speed are the stock
        constants: passing one is a TypeError naming it, not a study at
        another operating point."""
        value = {"mass": MASS, "cruise_thrust": CRUISE_THRUST,
                 "cruise_speed": CRUISE_SPEED}[name]
        with pytest.raises(TypeError, match=name):
            table_config_powers(PROPS_DIR, **{name: value})


class TestImport:
    def test_runtime_needs_numpy_only(self):
        code = ("import sys, coaxtail; "
                "print(sorted({m.split('.')[0] for m in sys.modules} "
                "& {'scipy', 'numba'}))")
        src = str(Path(coaxtail.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


# the commands that take --out
_OUT_COMMANDS = ("simulate", "bench-splm", "power-analysis", "psd")

# sha256 of each pinned CLI output (the file --out names), by command
PINNED = {
    "power-analysis --fixture paper-2025":
    "dad2c61e6f5cc96f7c42b5c8bf570141618b19c18382e538ab076040fbc9b5f2",
    "bench-splm":
    "5f3f8e247c30da58f80257825d28f40f252ee2ac606b08604db9f50f28266952",
    "simulate wind_retracted.cfg":
    "06cfe794f3a35aec5482042fbadc6607c263c79f6b184ae33c7d42ea3fb959af",
    "psd":
    "5e6ea3219958aac3a21d6a1d523f59885f2a9bf00a2a6fff7b06219ac546360a",
    "power-analysis --tables":
    "ba731e802322d3d848a776b75cc36f2b1cb7b8d0b34d8d9a56c6b1887d143e39",
}


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

    def test_power_analysis_fixture_csv_is_pinned(self, tmp_path, capsys):
        """The paper-2025 curve is IEEE arithmetic on fixed wattages (101
        ratios, the csv module's CRLF rows), so its bytes hash the same on
        any machine."""
        out = tmp_path / "curve.csv"
        assert cli_main(["power-analysis", "--fixture", "paper-2025",
                         "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[
            "power-analysis --fixture paper-2025"]

    def test_bench_splm_default_csv_is_pinned(self, tmp_path, capsys):
        """The default bench (coupled head, 10 s at 1 kHz) is fixed
        arithmetic on a fixed command, so its CSV bytes move only if the
        bench's arithmetic does."""
        out = tmp_path / "torque.csv"
        assert cli_main(["bench-splm", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[
            "bench-splm"]

    def test_simulate_wind_retracted_csv_is_pinned(self, tmp_path, capsys):
        """12,000 ticks that read the air density through drag and the
        elevon scale: the log's bytes move if either does."""
        out = tmp_path / "log.csv"
        assert cli_main(["simulate", str(CONFIG_DIR / "wind_retracted.cfg"),
                         "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[
            "simulate wind_retracted.cfg"]

    def test_psd_of_the_pinned_bench_csv_is_pinned(self, tmp_path, capsys):
        """The default mean-subtraction window reads the rotor's hover
        speed, so the density's bytes move if the rotor constants do."""
        bench, out = tmp_path / "torque.csv", tmp_path / "psd.csv"
        assert cli_main(["bench-splm", "--out", str(bench)]) == 0
        assert cli_main(["psd", str(bench), "--out", str(out)]) == 0
        assert "avg_psd_db=-35.4896431\n" in capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[
            "psd"]

    def test_power_analysis_tables_csv_is_pinned(self, tmp_path, capsys):
        """The table study reads the air density, gravity, the stock mass
        and the cruise speed."""
        out = tmp_path / "curve.csv"
        assert cli_main(["power-analysis", "--tables", str(PROPS_DIR),
                         "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[
            "power-analysis --tables"]

    @pytest.mark.parametrize("mode", ["retracted", "extended"])
    def test_shipped_wind_config_peak_is_the_post_gust_peak(self, mode,
                                                           shipped_run):
        """simulate's peak_deviation_m of a shipped wind config, taken over
        the whole run, is the peak after the gust starts, bit for bit: the
        vehicle holds its target until the wind arrives."""
        spec, _, log, _ = shipped_run(f"wind_{mode}")
        target = np.asarray(spec.position)
        whole = log.peak_deviation(target)
        assert whole > 0.0
        assert whole == log.peak_deviation(target, t_min=spec.wind.start)

    def test_unknown_fixture_is_validation(self, tmp_path, capsys):
        code = cli_main(["power-analysis", "--fixture", "nope",
                         "--out", str(tmp_path / "c.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "category=validation" in captured.err

    @pytest.mark.parametrize("argv,named", [
        # the study's mass, cruise thrust and cruise speed are the stock
        # values; no flag sets them
        (["--mass", "5"], "--mass 5"),
        (["--fixture", "paper-2025", "--cruise-thrust", "3"],
         "--cruise-thrust 3"),
        (["--cruise-speed", "10", "--mass", "2"], "--cruise-speed 10 --mass 2"),
        (["--tables", str(PROPS_DIR), "--mass", "1.2"], "--mass 1.2"),
        (["--tables", str(PROPS_DIR), "--cruise-speed=15.6"],
         "--cruise-speed=15.6"),
        (["--tables", str(PROPS_DIR), "--cruise-thrust", "4.4"],
         "--cruise-thrust 4.4"),
    ])
    def test_power_analysis_study_flags_are_unknown(self, tmp_path, capsys,
                                                    argv, named):
        out = tmp_path / "c.csv"
        code = cli_main(["power-analysis", *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1, argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "category=validation" in lines[0], argv
        assert lines[0].endswith(f"unrecognized arguments: {named}"), argv
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

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

    def test_mix_check_rejects_bad_counts(self, capsys):
        for argv in (["--trials", "0"], ["--seed", "-1"]):
            code = cli_main(["mix-check", *argv])
            err = capsys.readouterr().err
            assert code == 1, argv
            assert err.count("category=validation") == 1, argv
            assert "Traceback" not in err

    def test_counts_past_float_range_are_whole(self, tmp_path, capsys):
        """A count flag of 400 digits is checked as a whole number, not
        converted to a float that overflows."""
        huge = "1" + "0" * 399
        assert cli_main(["mix-check", "--trials", "1", "--seed", huge]) == 0
        assert capsys.readouterr().out.startswith("trials=1 max_residual=")
        series = tmp_path / "x.csv"
        series.write_text("t,x\n" + "".join(f"{i / 1000},{i % 3}\n"
                                            for i in range(64)))
        code = cli_main(["psd", str(series), "--window", "4",
                         "--segment", huge])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1
        assert f"message=segment {huge} exceeds series length 64" in err[0]

    def test_mix_check_reports_residual(self, capsys):
        code = cli_main(["mix-check", "--trials", "1000"])
        captured = capsys.readouterr()
        assert code == 0
        line = captured.out.splitlines()[0]
        fields = dict(kv.split("=", 1) for kv in line.split())
        assert int(fields["trials"]) == 1000
        assert float(fields["max_residual"]) < 1e-9

    def test_mix_check_draws_lam_over_the_unit_interval(self, monkeypatch,
                                                        capsys):
        from coaxtail import control

        lams = []
        mix = control.mix

        def recording_mix(wrench, gains, lam):
            lams.append(lam)
            return mix(wrench, gains, lam)

        monkeypatch.setattr(control, "mix", recording_mix)
        code = cli_main(["mix-check", "--trials", "2000", "--seed", "3",
                         "--gains", str(PROPS_DIR.parent / "gains.cfg")])
        fields = dict(kv.split("=", 1)
                      for kv in capsys.readouterr().out.split())
        assert code == 0
        assert float(fields["max_residual"]) < 1e-9
        assert len(lams) == 2000
        assert 0.0 <= min(lams) < 0.01 and 0.99 < max(lams) <= 1.0

    def test_bench_then_psd_chain(self, tmp_path, capsys):
        """The decoupled head at zero amplitude holds its fixed point to
        the bit at 1, 2 and 4 integrator steps per sample (300, 900 and
        1,500 counts at 1 kHz), so its torque is flat and its PSD floors."""
        torque = tmp_path / "tq.csv"
        for throttle in ("300", "900", "1500"):
            code = cli_main(["bench-splm", "--variant", "decoupled",
                             "--throttle", throttle, "--amplitude", "0",
                             "--duration", "2", "--out", str(torque)])
            assert code == 0
            out = capsys.readouterr().out
            assert "torque_p2p=0\n" in out, throttle
            code = cli_main(["psd", str(torque), "--segment", "512"])
            assert code == 0
            out = capsys.readouterr().out
            assert f"avg_psd_db={DB_FLOOR:.9g}" in out, throttle

    @pytest.mark.parametrize("argv", [
        # 2.5x the 40 Hz rotation: diverged at 4 steps per sample
        ["--fs", "100"],
        # 4 steps per sample overflowed the torque readout to -inf
        ["--variant", "decoupled", "--throttle", "300", "--amplitude", "150",
         "--duration", "20", "--fs", "33.0106084"],
        ["--variant", "decoupled", "--fs", "100"],
        # just above 2x the rotation at hover and at 1600 counts
        ["--fs", "80.1"],
        ["--throttle", "1600", "--amplitude", "400", "--fs", "142.3"],
    ])
    def test_bench_at_a_low_rate_is_finite(self, tmp_path, capsys, argv):
        """A sample rate the bench admits is one it can integrate: exit
        0, a finite CSV and a finite peak-to-peak, and no warning."""
        out = tmp_path / "tq.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["bench-splm", *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        p2p = float(captured.out.split("torque_p2p=")[1])
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.isfinite(rows).all() and math.isfinite(p2p)

    def test_bench_splm_rejects_bad_inputs(self, tmp_path, capsys):
        out = str(tmp_path / "tq.csv")
        # 0.0001 s at 1 kHz rounds to no output sample
        for argv in (["--duration", "nan"], ["--throttle", "nan"],
                     ["--amplitude", "nan"], ["--phase", "inf"],
                     ["--throttle", "-900"], ["--duration", "0.0001"],
                     # a command that would dip below zero counts
                     ["--amplitude", "5000"],
                     # duration * fs overflows to inf
                     ["--fs", "1e308", "--duration", "10"],
                     # past numpy's shape limit: refused before allocating
                     ["--fs", "1e12", "--duration", "1e12"]):
            code = cli_main(["bench-splm", *argv, "--out", out])
            err = capsys.readouterr().err
            assert code == 1, argv
            lines = err.splitlines()
            assert len(lines) == 1 and "category=validation" in lines[0], argv
            assert "Traceback" not in err
        assert not (tmp_path / "tq.csv").exists()

    def test_bench_splm_refuses_an_underflowing_step(self, tmp_path,
                                                      capsys):
        """An azimuth step that rounds to zero is one validation line
        naming the throttle and the rate, not a traceback."""
        out = tmp_path / "tq.csv"
        code = cli_main(["bench-splm", "--throttle", "1e-300", "--amplitude",
                         "0", "--fs", "1e300", "--duration", "1e-300",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: category=validation type=ConfigError message=throttle="
            "1e-300 at fs=1e+300 Hz gives an azimuth step that underflows "
            "to zero"]
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["coupled", "decoupled"])
    def test_bench_splm_refuses_a_peak_past_full_throttle(
            self, tmp_path, capsys, variant):
        out = tmp_path / "tq.csv"
        code = cli_main(["bench-splm", "--variant", variant, "--throttle",
                         "1900", "--amplitude", "500", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and "category=validation" in err[0]
        assert "throttle scale" in err[0]
        assert not out.exists()

    def test_bench_splm_fault_names_the_head_and_throttle(self, tmp_path,
                                                          capsys):
        """Past about 1,752 counts the coupled head's steady-state branch
        ends; the one error line says which head and which throttle."""
        out = tmp_path / "tq.csv"
        code = cli_main(["bench-splm", "--variant", "coupled", "--throttle",
                         "1800", "--amplitude", "0", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: category=runtime type=SimulationFault "
                       "message=no steady-state pitch solution in the "
                       "admissible range for the coupled head at throttle "
                       "1800 counts"]
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["abc", "", "nan"])
    def test_table_commands_reject_a_bad_cell(self, tmp_path, capsys, cell):
        """A propeller-table cell that is not a finite number fails both
        commands that read tables with one validation line naming the
        file and line."""
        props = tmp_path / "props"
        props.mkdir()
        for sheet in PROPS_DIR.glob("*.csv"):
            (props / sheet.name).write_text(sheet.read_text())
        bad = props / "7in_9000.csv"
        rows = bad.read_text().splitlines()
        rows[2] = f"0.15,{cell},0.0560"
        bad.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "scn.cfg"
        cfg.write_text("[scenario]\nduration_s = 0.01\n[vehicle]\n"
                       f"prop_tables_dir = {props}\n")
        for argv in (["power-analysis", "--tables", str(props), "--out",
                      str(tmp_path / "c.csv")],
                     ["simulate", str(cfg), "--out", str(tmp_path / "s.csv")]):
            code = cli_main(argv)
            err = capsys.readouterr().err
            assert code == 1, argv
            lines = err.splitlines()
            assert len(lines) == 1 and "category=validation" in lines[0], argv
            assert "Traceback" not in err
            assert "7in_9000.csv: line 3" in lines[0], argv

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
                     "[scenario]\ndt_s = 5e-324\n",  # 1/dt overflows
                     b"[scenario]\nname = \xff\n",  # not UTF-8
                     "duration_s = 1\n",  # no section header
                     "[scenario]\nduration_s = abc\n",
                     "[scenario]\nposition_m = 0 0 high\n",
                     "[wind]\nspeed_mps = nan\n",
                     "[wind]\nspeed_mps = 5\nstart_s = 2\nstop_s = 1.9\n",
                     "[vehicle]\nmass_kg = nan\n",
                     "[vehicle]\ngravity = inf\n",
                     # tick counts no log can hold fail before allocating
                     "[scenario]\nduration_s = 1e300\n",
                     "[scenario]\nduration_s = 1e13\n",
                     "[scenario]\nduration_s = 1e10\ndt_s = 1e-300\n"):
            cfg.write_bytes(text if isinstance(text, bytes)
                            else text.encode())
            # a wrongly accepted row writes its log under tmp_path
            code = cli_main(["simulate", str(cfg), "--out",
                             str(tmp_path / "log.csv")])
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

    @pytest.mark.parametrize("command,fault", [
        ("mix-check", "not_utf8"),
        ("psd", "not_utf8"),
        ("psd", "huge_field"),
        ("power-analysis", "not_utf8"),
        ("power-analysis", "huge_field"),
        ("power-analysis", "directory"),
        ("simulate", "directory"),
    ])
    def test_unreadable_input_file_is_a_validation_error(
            self, tmp_path, capsys, command, fault):
        """An input file that is not UTF-8 text, holds a field past csv's
        131,072-character limit or is a directory fails with one
        validation line naming the file."""
        props = tmp_path / "props"
        props.mkdir()
        for sheet in PROPS_DIR.glob("*.csv"):
            (props / sheet.name).write_text(sheet.read_text())
        sheet = props / "7in_9000.csv"
        cell = {"not_utf8": b"\xff", "huge_field": b"1" * 200_000}.get(fault)
        if command == "mix-check":
            bad = tmp_path / "gains.cfg"
            bad.write_bytes(b"[allocation]\nc_t1 = " + cell + b"\n")
            argv = ["mix-check", "--gains", str(bad)]
        elif command == "psd":
            bad = tmp_path / "series.csv"
            bad.write_bytes(b"t,x\n0,1\n0.001," + cell + b"\n")
            argv = ["psd", str(bad)]
        else:
            bad = sheet
            if fault == "directory":
                sheet.unlink()
                sheet.mkdir()
            else:
                sheet.write_bytes(sheet.read_bytes() + b"0.5," + cell
                                  + b",0.05\n")
            cfg = tmp_path / "scn.cfg"
            cfg.write_text("[scenario]\nduration_s = 0.01\n[vehicle]\n"
                           f"prop_tables_dir = {props}\n")
            argv = (["power-analysis", "--tables", str(props), "--out",
                     str(tmp_path / "c.csv")]
                    if command == "power-analysis"
                    else ["simulate", str(cfg), "--out",
                          str(tmp_path / "s.csv")])
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and "category=validation" in lines[0]
        assert bad.name in lines[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,case",
        [(c, k) for k in ("missing", "is-a-dir", "empty")
         for c in _OUT_COMMANDS],
        ids=[*_OUT_COMMANDS, *(f"{c}-is-a-dir" for c in _OUT_COMMANDS),
             *(f"{c}-empty" for c in _OUT_COMMANDS)])
    def test_out_in_a_missing_directory_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch, command, case):
        """An output path whose directory does not exist, that names an
        existing directory or that is empty is a validation error raised
        before the command's work, not after it."""
        work = {"bench-splm": "coaxtail.analysis.bench_torque_series",
                "power-analysis": "coaxtail.propulsion.fixture_config_powers",
                "psd": "coaxtail.analysis.read_timeseries_csv",
                }.get(command, "coaxtail.vehicle.run_scenario")

        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} was called")

        monkeypatch.setattr(work, no_work)
        out = tmp_path / "missing" / "log.csv"
        if case == "is-a-dir":
            out = tmp_path / "outdir"
            out.mkdir()
        cfg = tmp_path / "quick.cfg"
        cfg.write_text("[scenario]\nname = quick\nduration_s = 1.0\n")
        argv = {"simulate": ["simulate", str(cfg)],
                "psd": ["psd", str(tmp_path / "in.csv")],
                }.get(command, [command])
        monkeypatch.chdir(tmp_path)
        given = "" if case == "empty" else str(out)
        code = cli_main([*argv, "--out", given])
        err = capsys.readouterr().err
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and "category=validation" in lines[0]
        assert "--out" in lines[0] and given in lines[0]
        assert "Traceback" not in err
        if case == "is-a-dir":
            assert out.is_dir() and not any(out.iterdir())
        elif case == "missing":
            assert not out.parent.exists()
        else:
            assert "empty" in lines[0]
            # nothing written, not even a default output
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "quick.cfg"]

    @pytest.mark.parametrize("command,flag,work", [
        ("power-analysis", "--fixture",
         "coaxtail.propulsion.fixture_config_powers"),
        ("power-analysis", "--tables", "coaxtail.analysis.table_config_powers"),
        ("mix-check", "--gains", "coaxtail.control.mix"),
    ])
    def test_an_empty_source_is_refused_before_the_work(
            self, tmp_path, capsys, monkeypatch, command, flag, work):
        """An empty --fixture, --tables or --gains is refused before the
        command's work; it is not read as the flag left unset (the stock
        fixture, the fixture and the stock mixer)."""
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} was called")

        monkeypatch.setattr(work, no_work)
        monkeypatch.chdir(tmp_path)
        code = cli_main([command, f"{flag}="])
        err = capsys.readouterr().err
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and "category=validation" in lines[0]
        assert f"{flag} must not be empty" in lines[0]
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_simulate_checks_its_derived_log_path_before_the_run(
            self, tmp_path, capsys, monkeypatch):
        """Without --out the log is <name>_log.csv, and a name with a
        slash can point into a missing directory; that path may not name
        an existing directory either."""
        from coaxtail import vehicle

        def no_run(*args):
            raise AssertionError("run_scenario was called")

        monkeypatch.setattr(vehicle, "run_scenario", no_run)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "quick.cfg"
        cfg.write_text("[scenario]\nname = nodir/x\nduration_s = 1.0\n")
        code = cli_main(["simulate", str(cfg)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and "category=validation" in lines[0]
        assert "nodir/x_log.csv" in lines[0]
        assert not (tmp_path / "nodir").exists()
        (tmp_path / "x_log.csv").mkdir()
        cfg.write_text("[scenario]\nname = x\nduration_s = 1.0\n")
        code = cli_main(["simulate", str(cfg)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and "category=validation" in lines[0]
        assert "x_log.csv" in lines[0] and "is a directory" in lines[0]

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

    def test_shipped_transition_never_clips(self, shipped_run):
        log = shipped_run("transition")[2]
        assert log.saturation() == (0.0, 1.0)


def pinned_outputs(cli_sha256, tmp_path, **env):
    """The sha256 of each pinned CLI output, re-run under env, by command."""
    bench = tmp_path / "torque.csv"
    return {
        "power-analysis --fixture paper-2025": cli_sha256(
            ["power-analysis", "--fixture", "paper-2025"],
            tmp_path / "curve.csv", **env),
        "bench-splm": cli_sha256(["bench-splm"], bench, **env),
        "simulate wind_retracted.cfg": cli_sha256(
            ["simulate", CONFIG_DIR / "wind_retracted.cfg"],
            tmp_path / "log.csv", **env),
        "psd": cli_sha256(["psd", bench], tmp_path / "psd.csv", **env),
        "power-analysis --tables": cli_sha256(
            ["power-analysis", "--tables", PROPS_DIR],
            tmp_path / "tables.csv", **env),
    }


# Prints, as JSON, the sha256 of the 18 criterion-4 torque series and of
# the logs of six scenarios with a yaw target and wind off every axis,
# the first of them a transition.
RAW_DIGESTS = """
import hashlib, json
import numpy as np
from coaxtail.rotor import SplmParams, bench_torque_series
from coaxtail.vehicle import (ScenarioSpec, VehicleParams, WindProfile,
                              WingSchedule, run_scenario)

series = hashlib.sha256()
for phi in (0.08, 0.12, 0.16):
    for e in (0.15, 0.20, 0.25):
        for variant in ("coupled", "decoupled"):
            p = SplmParams(variant=variant, downwash_angle=phi, hinge_offset=e)
            series.update(bench_torque_series(p, 900.0, 200.0, 0.0, 10.0,
                                              1000.0)[1])
rng = np.random.default_rng(1501)
logs = []
for i in range(6):
    wind = WindProfile(speed=float(rng.uniform(1.0, 6.0)),
                       direction=tuple(rng.normal(size=3).tolist()),
                       start=float(rng.uniform(0.2, 1.0)))
    spec = ScenarioSpec(
        mode="transition" if i == 0 else "hover",
        duration=8.0 if i == 0 else 2.0,
        position=(0.0, 0.0, 2.0), yaw=float(rng.uniform(-3.0, 3.0)),
        start_position=tuple((rng.normal(size=3) * 0.3 + [0.0, 0.0, 1.8])
                             .tolist()),
        wind=wind, wing=WingSchedule(kind="pitch" if i == 0 else "fixed"))
    logs.append(hashlib.sha256(run_scenario(spec, VehicleParams()).data)
                .hexdigest())
print(json.dumps([series.hexdigest(), logs]))
"""


class TestPortableBytes:
    """The pinned CLI outputs are portable bytes: neither numpy's dispatch
    level, nor OpenBLAS's kernel, nor glibc's libm variant moves them.
    Raw arrays do not move with numpy's dispatch level (README,
    Determinism)."""

    def test_pinned_outputs_hold_without_dispatched_features(
            self, numpy_features_off, cli_sha256, tmp_path):
        """Every pinned output, re-run with each feature numpy dispatches
        to on this CPU turned off, keeps its hash."""
        assert pinned_outputs(cli_sha256, tmp_path,
                              **numpy_features_off) == PINNED

    def test_pinned_outputs_hold_across_libm_variants(self, cli_sha256,
                                                      tmp_path):
        """Every pinned output keeps its hash with glibc held to its
        baseline libm, without the AVX2, FMA and AVX-512 variants it
        picks by CPU. (The transition log's CSV is not pinned: it moves
        there.)"""
        if platform.libc_ver()[0] != "glibc" or \
                platform.machine() not in ("x86_64", "AMD64"):
            pytest.skip("GLIBC_TUNABLES picks libm variants on glibc "
                        "x86-64 only")
        assert pinned_outputs(
            cli_sha256, tmp_path,
            GLIBC_TUNABLES="glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F") == PINNED

    def test_raw_arrays_hold_without_dispatched_features(
            self, numpy_features_off, run_snippet):
        """The 18 criterion-4 torque series and six closed-loop logs with
        a yaw target and wind off every axis keep every bit with each
        feature numpy dispatches to turned off: the rotor kernel's tan
        and the tick's sin, cos and atan2 are libm's, which do not
        depend on numpy's dispatch level."""
        with ThreadPoolExecutor(2) as pool:
            on, off = pool.map(
                lambda env: json.loads(run_snippet(RAW_DIGESTS, **env)),
                ({"NPY_DISABLE_CPU_FEATURES": None}, numpy_features_off))
        assert len(on[1]) == 6
        assert off == on

    def test_simulate_bytes_hold_across_blas_kernels(
            self, openblas_kernels, cli_sha256, tmp_path):
        """simulate's logs are the same bytes whichever kernel OpenBLAS
        picks: its default for this CPU, Haswell's (a left-to-right dot)
        or Prescott's. The hover and wind runs take every dot product
        and norm of the tick, the hover thrust's among them."""
        runs = {}
        for core in (None, "Haswell", "Prescott"):
            runs[core] = [cli_sha256(["simulate", CONFIG_DIR / f"{name}.cfg"],
                                     tmp_path / f"{name}.csv",
                                     OPENBLAS_CORETYPE=core)
                          for name in ("hover", "wind_retracted")]
        assert runs[None][1] == PINNED["simulate wind_retracted.cfg"]
        assert runs["Haswell"] == runs[None]
        assert runs["Prescott"] == runs[None]


# every float flag of every subcommand, and what the subcommand needs
# besides it to get past the parser
FLOAT_FLAGS = {
    "bench-splm": ("--throttle", "--amplitude", "--phase", "--duration",
                   "--fs"),
    "psd": ("--overlap",),
}
REQUIRED_ARGS = {
    "psd": ["missing.csv"],
}


class TestCliFloatFlags:
    def test_table_lists_every_float_flag(self):
        """The float flags are those parsed by _finite_float; none uses the
        bare float, which would let NaN and inf through."""
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {}
        for name, parser in sub.choices.items():
            assert all(a.type is not float for a in parser._actions), name
            flags = tuple(a.option_strings[0] for a in parser._actions
                          if a.type is _finite_float)
            if flags:
                found[name] = flags
        assert found == FLOAT_FLAGS

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in FLOAT_FLAGS.items()
        for flag in flags])
    def test_non_finite_value_is_a_validation_error(self, command, flag,
                                                    value, capsys):
        argv = [command, *REQUIRED_ARGS.get(command, []), f"{flag}={value}"]
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert "category=validation" in errors[0]
        assert flag in errors[0]
        assert "Traceback" not in err
