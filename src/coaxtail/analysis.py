"""Vibration analysis, file ingestion, and the command-line front end.

The processing chain mirrors the bench workflow: a logged torque trace
gets a fixed-window mean subtraction (one shaft revolution by default,
which strips DC and slow drift but keeps the per-rev oscillation), then
an averaged-periodogram PSD, then a scalar average density in dB/Hz.
All numeric output is serialized with 9 significant digits so repeated
runs produce byte-identical files.
"""

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .aero import WingMode
from .control import AllocationGains, forward_model, mix, Wrench
from .errors import (
    CoaxtailError,
    ConfigError,
    LinearRangeError,
    NumericalDomainError,
    TableRangeError,
)
from .propulsion import (
    PropulsionConfig,
    average_power_curve,
    fixture_config_powers,
    load_propeller_table,
    mode_power,
    study_summary,
    write_power_curve_csv,
    ConfigPower,
)
from .rotor import SplmParams, bench_torque_series
from .vehicle import (
    LambdaSchedule,
    ScenarioSpec,
    VehicleParams,
    WindProfile,
    WingSchedule,
    run_scenario,
)

DB_FLOOR = -300.0  # reported instead of -inf for silent signals
_ZERO_POWER = 1e-30


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar signal."""

    fs: float
    values: np.ndarray
    unit: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.fs) and self.fs > 0.0):
            raise ConfigError("sample rate must be positive and finite")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ConfigError("time series needs at least 2 samples")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class PsdResult:
    """One-sided power spectral density estimate."""

    freq: np.ndarray  # Hz, ascending
    density: np.ndarray  # unit^2/Hz, non-negative
    avg_db: float  # 10*log10(mean density), or DB_FLOOR

    def __post_init__(self):
        freq = np.asarray(self.freq, dtype=float)
        density = np.asarray(self.density, dtype=float)
        if freq.size == 0 or freq.size != density.size:
            raise ConfigError("frequency and density lengths must match")
        if np.any(np.diff(freq) <= 0.0):
            raise ConfigError("frequency bins must ascend")
        if np.any(density < 0.0):
            raise ConfigError("power density must be non-negative")
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "density", density)


def mean_subtract(series, window):
    """Subtract each fixed, non-overlapping block's mean from its samples.

    The trailing partial block (when window does not divide the length)
    uses its own mean, so the output always matches the input length and
    a second application changes nothing.
    """
    window = int(window)
    n = len(series)
    if window < 1:
        raise ConfigError("window must be at least 1 sample")
    if window > n:
        raise ConfigError(f"window {window} exceeds series length {n}")
    out = series.values.copy()
    n_full = (n // window) * window
    if n_full:
        head = out[:n_full].reshape(-1, window)
        head -= head.mean(axis=1, keepdims=True)
    if n_full < n:
        out[n_full:] -= out[n_full:].mean()
    return TimeSeries(series.fs, out, series.unit)


def psd(series, segment=1024, overlap=0.5):
    """Averaged-periodogram (Welch) density with a Hann taper.

    Normalized so sum(density)*df recovers the signal's mean square for
    stationary input. The DC bin is kept; run mean_subtract first if the
    offset should not count.
    """
    segment = int(segment)
    n = len(series)
    if segment < 2:
        raise ConfigError("segment must be at least 2 samples")
    if segment > n:
        raise ConfigError(f"segment {segment} exceeds series length {n}")
    if not 0.0 <= overlap <= 0.9:
        raise ConfigError("overlap must lie in [0, 0.9]")
    step = segment - int(round(overlap * segment))
    if step < 1:
        raise ConfigError(f"overlap {overlap} leaves no hop between "
                          f"{segment}-sample segments")
    frames = np.lib.stride_tricks.sliding_window_view(
        series.values, segment)[::step]
    window = np.hanning(segment + 1)[:-1]  # periodic Hann
    spectra = np.fft.rfft(frames * window, axis=1)
    density = np.mean(spectra.real ** 2 + spectra.imag ** 2, axis=0)
    density /= series.fs * np.sum(window * window)
    # one-sided: fold negative frequencies in, except DC and even Nyquist
    density[1:(segment + 1) // 2] *= 2.0
    freq = np.fft.rfftfreq(segment, 1.0 / series.fs)
    return PsdResult(freq=freq, density=density,
                     avg_db=_mean_density_db(density))


def _mean_density_db(density):
    mean = float(np.mean(density))
    if mean <= _ZERO_POWER:
        return DB_FLOOR
    return 10.0 * math.log10(mean)


def avg_psd_db(result):
    """Average density in dB/Hz: 10*log10 of the mean linear density."""
    return _mean_density_db(result.density)


def peak_to_peak_reduction(a, b):
    """Percent reduction of peak-to-peak amplitude from a to b."""
    p2p_a = float(np.max(a.values) - np.min(a.values))
    p2p_b = float(np.max(b.values) - np.min(b.values))
    if p2p_a <= 0.0:
        raise NumericalDomainError(
            "reference series has zero peak-to-peak amplitude")
    return 100.0 * (1.0 - p2p_b / p2p_a)


def default_mean_window(fs, splm=None):
    """Samples per shaft revolution at the nominal hover throttle."""
    params = splm if splm is not None else SplmParams()
    rev_rate = params.omega_hover / (2.0 * math.pi)
    return max(1, int(round(fs / rev_rate)))


# ---------------------------------------------------------------------------
# CSV ingestion and emission

def read_timeseries_csv(path):
    """Read a `t,<value>` CSV with header; sampling must be uniform."""
    t = []
    x = []
    name = ""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0].strip() != "t":
            raise ConfigError(f"{path}: expected header t,<value>")
        name = header[1].strip()
        for row in reader:
            if not row or not "".join(row).strip():
                continue
            if len(row) < 2:
                raise ConfigError(f"{path}: malformed row {row!r}")
            try:
                ti, xi = float(row[0]), float(row[1])
            except ValueError:
                ti = xi = math.nan
            if not (math.isfinite(ti) and math.isfinite(xi)):
                raise ConfigError(f"{path}: line {reader.line_num}: "
                                  f"{row[0]!r}, {row[1]!r} are not two "
                                  f"finite numbers")
            t.append(ti)
            x.append(xi)
    if len(t) < 2:
        raise ConfigError(f"{path}: need at least 2 samples")
    dt = np.diff(np.asarray(t))
    step = float(np.median(dt))
    if step <= 0.0 or np.max(np.abs(dt - step)) > 1e-6 * max(step, 1e-12):
        raise ConfigError(f"{path}: sampling is not uniform")
    return TimeSeries(fs=1.0 / step, values=np.asarray(x), unit=name)


def write_timeseries_csv(path, t, values, name="value"):
    with open(path, "w", newline="") as fh:
        fh.write(f"t,{name}\n")
        for ti, xi in zip(t, values):
            fh.write(f"{ti:.9g},{xi:.9g}\n")


def write_psd_csv(path, result):
    with open(path, "w", newline="") as fh:
        fh.write("f_Hz,psd\n")
        for f, d in zip(result.freq, result.density):
            fh.write(f"{f:.9g},{d:.9g}\n")


# ---------------------------------------------------------------------------
# Scenario and gains config files (INI)

_SCENARIO_KEYS = {
    "scenario": {"name", "mode", "duration_s", "dt_s", "position_m",
                 "yaw_deg", "start_position_m"},
    "wind": {"speed_mps", "direction", "start_s", "stop_s", "ramp_s"},
    "schedule": {"wing", "extend_below_deg", "lambda_hover", "lambda_fw",
                 "lambda_start_deg", "lambda_end_deg"},
    "vehicle": {"mass_kg", "inertia_diag", "drag_cd", "lateral_area_m2",
                "axial_area_m2", "aft_speed_per_count", "gravity",
                "prop_tables_dir"},
}

_ALLOCATION_KEYS = {"c_t1", "c_t2", "k_t1", "k_t2", "c_m", "k_ey", "k_ez",
                    "lam"}


def _read_ini(path, allowed):
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        loaded = cfg.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not loaded:
        raise ConfigError(f"cannot read config file {path}")
    for section in cfg.sections():
        if section not in allowed:
            raise ConfigError(f"{path}: unknown section [{section}]")
        extra = set(cfg[section]) - allowed[section]
        if extra:
            raise ConfigError(
                f"{path}: unknown key(s) {sorted(extra)} in [{section}]")
    return cfg


def _finite(text, where):
    """float(text); ConfigError naming `where` unless it is a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not finite")
    return value


def _floats(text, count, where):
    parts = tuple(_finite(x, where) for x in text.split())
    if len(parts) != count:
        raise ConfigError(f"{where}: expected {count} numbers, got {text!r}")
    return parts


def _wing_schedule(text, extend_below_deg):
    text = text.strip().lower()
    if text == "pitch":
        return WingSchedule(kind="pitch",
                            extend_below=math.radians(extend_below_deg))
    if text.startswith("fixed:"):
        mode = text.split(":", 1)[1]
        try:
            return WingSchedule(kind="fixed", mode=WingMode(mode))
        except ValueError:
            raise ConfigError(f"unknown wing mode {mode!r}") from None
    raise ConfigError(
        f"wing schedule must be 'pitch' or 'fixed:<mode>', got {text!r}")


def load_scenario(path):
    """Parse a scenario config file into (ScenarioSpec, VehicleParams)."""
    cfg = _read_ini(path, _SCENARIO_KEYS)
    values = {name: dict(cfg[name]) for name in cfg.sections()}

    def text(section, key, default=None):
        return values.get(section, {}).get(key, default)

    def number(section, key, default=None):
        raw = text(section, key)
        return default if raw is None else \
            _finite(raw, f"{path}: [{section}] {key}")

    def numbers(section, key, default=None):
        return _floats(text(section, key, default), 3,
                       f"{path}: [{section}] {key}")

    # an empty stop_s, start_position_m or [vehicle] value means "not set"
    wind = WindProfile(
        speed=number("wind", "speed_mps", 0.0),
        direction=numbers("wind", "direction", "1 0 0"),
        start=number("wind", "start_s", 0.0),
        stop=number("wind", "stop_s") if text("wind", "stop_s") else None,
        ramp=number("wind", "ramp_s", 0.5))
    wing = _wing_schedule(text("schedule", "wing", "fixed:retracted"),
                          number("schedule", "extend_below_deg", -20.0))
    lam = LambdaSchedule(
        lam_hover=number("schedule", "lambda_hover", 1.0),
        lam_fw=number("schedule", "lambda_fw", 0.3),
        pitch_start=math.radians(number("schedule", "lambda_start_deg",
                                        -30.0)),
        pitch_end=math.radians(number("schedule", "lambda_end_deg", -70.0)))

    spec = ScenarioSpec(
        name=text("scenario", "name", "scenario"),
        mode=text("scenario", "mode", "hover"),
        duration=number("scenario", "duration_s", 10.0),
        dt=number("scenario", "dt_s", 1e-3),
        position=numbers("scenario", "position_m", "0 0 1.5"),
        yaw=math.radians(number("scenario", "yaw_deg", 0.0)),
        start_position=(numbers("scenario", "start_position_m")
                        if text("scenario", "start_position_m") else None),
        wind=wind, wing=wing, lam=lam)

    kwargs = {}
    if text("vehicle", "inertia_diag"):
        kwargs["inertia"] = np.diag(numbers("vehicle", "inertia_diag"))
    for key, field_name in (("mass_kg", "mass"),
                            ("drag_cd", "drag_cd"),
                            ("lateral_area_m2", "lateral_area"),
                            ("axial_area_m2", "axial_area"),
                            ("aft_speed_per_count", "aft_speed_per_count"),
                            ("gravity", "gravity")):
        if text("vehicle", key):
            kwargs[field_name] = number("vehicle", key)
    if text("vehicle", "prop_tables_dir"):
        kwargs["aft_table"] = load_propeller_table(
            text("vehicle", "prop_tables_dir"), "7in", diameter=0.1778)
    params = VehicleParams(**kwargs)
    return spec, params


def load_allocation_gains(path):
    cfg = _read_ini(path, {"allocation": _ALLOCATION_KEYS})
    if not cfg.has_section("allocation"):
        raise ConfigError(f"{path}: missing [allocation] section")
    sec = cfg["allocation"]
    return AllocationGains(**{
        k: _finite(v, f"{path}: [allocation] {k}") for k, v in sec.items()})


# ---------------------------------------------------------------------------
# Propulsion study from raw tables

def table_config_powers(tables_dir, mass=1.2, gravity=9.81,
                        cruise_thrust=4.4, cruise_speed=15.6, rho=1.225):
    """Build the three study configurations from measured propeller tables.

    Hover power produces the full weight split across both rotors at zero
    inflow; cruise power produces cruise_thrust at cruise_speed split
    across the active subset. Directory must hold 16in_<rpm>.csv and
    7in_<rpm>.csv sheets.
    """
    big = load_propeller_table(tables_dir, "16in", diameter=0.4064)
    small = load_propeller_table(tables_dir, "7in", diameter=0.1778)
    configs = (
        PropulsionConfig("HPC", fore=big, aft=small),
        PropulsionConfig("HLC", fore=big, aft=big,
                         fixedwing_active=("fore", "aft")),
        PropulsionConfig("HSC", fore=small, aft=small),
    )
    hover_thrust = mass * gravity
    powers = []
    for config in configs:
        hover_w = mode_power(config, "multirotor", rho, 0.0, hover_thrust)
        cruise_w = mode_power(config, "fixedwing", rho, cruise_speed,
                              cruise_thrust)
        powers.append(ConfigPower(config.name, hover_w, cruise_w))
    return tuple(powers)


# ---------------------------------------------------------------------------
# Command line

class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="coaxtail",
                     description="Reconfigurable-tailsitter analysis tools")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("simulate", help="run a scenario config file")
    p.add_argument("scenario", help="scenario .cfg path")
    p.add_argument("--out", default=None, help="log CSV path")

    p = sub.add_parser("bench-splm", help="simulate a rotor bench run")
    p.add_argument("--variant", choices=("coupled", "decoupled"),
                   default="coupled")
    p.add_argument("--throttle", type=float, default=900.0)
    p.add_argument("--amplitude", type=float, default=200.0)
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--fs", type=float, default=1000.0)
    p.add_argument("--out", default="torque.csv")

    p = sub.add_parser("power-analysis", help="mission power study")
    p.add_argument("--fixture", default=None,
                   help="named wattage fixture (default paper-2025)")
    p.add_argument("--tables", default=None,
                   help="directory of <prop>_<rpm>.csv coefficient sheets")
    p.add_argument("--out", default="power_curve.csv")
    p.add_argument("--mass", type=float, default=1.2)
    p.add_argument("--cruise-thrust", type=float, default=4.4)
    p.add_argument("--cruise-speed", type=float, default=15.6)

    p = sub.add_parser("wind-test", help="gust rejection scenario")
    p.add_argument("--mode", choices=("extended", "retracted"),
                   required=True)
    p.add_argument("--speed", type=float, default=5.0)
    p.add_argument("--duration", type=float, default=12.0)
    p.add_argument("--out", default=None, help="optional log CSV path")

    p = sub.add_parser("mix-check", help="mixer round-trip property run")
    p.add_argument("--gains", default=None, help="allocation gains .cfg")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("psd", help="mean-subtract + PSD of a t,<value> CSV")
    p.add_argument("csv", help="input CSV path")
    p.add_argument("--segment", type=int, default=1024)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--window", type=int, default=None,
                   help="mean-subtraction block, samples "
                        "(default: one shaft revolution at hover)")
    p.add_argument("--out", default=None, help="optional density CSV path")
    return parser


def _cmd_simulate(args):
    spec, params = load_scenario(args.scenario)
    log = run_scenario(spec, params)
    out = args.out if args.out else f"{spec.name}_log.csv"
    log.write_csv(out)
    print(f"scenario={spec.name} ticks={log.t.size} out={out}")
    if spec.mode == "transition":
        # the hover target is not chased in transition; report tracking
        rms, speed = log.transition_tracking()
        print(f"ramp_pitch_rms_deg={_optional(rms)} "
              f"cruise_speed_mps={_optional(speed)}")
    else:
        target = np.asarray(spec.position, dtype=float)
        final_err = float(np.linalg.norm(log.position[-1] - target))
        print(f"final_error_m={final_err:.9g} "
              f"peak_deviation_m={log.peak_deviation(target):.9g}")
    clip_fraction, min_scale = log.saturation()
    print(f"sat_clip_fraction={clip_fraction:.9g} "
          f"sat_min_scale={min_scale:.9g}")
    return 0


def _optional(value):
    return "n/a" if value is None else f"{value:.9g}"


def _cmd_bench_splm(args):
    params = SplmParams(variant=args.variant)
    t, torque = bench_torque_series(params, args.throttle, args.amplitude,
                                    args.phase, args.duration, args.fs)
    write_timeseries_csv(args.out, t, torque, name="torque")
    print(f"variant={args.variant} samples={t.size} out={args.out}")
    print(f"torque_p2p={float(np.max(torque) - np.min(torque)):.9g}")
    return 0


def _cmd_power_analysis(args):
    if args.fixture and args.tables:
        raise ConfigError("--fixture and --tables are mutually exclusive")
    if args.tables:
        powers = table_config_powers(args.tables, mass=args.mass,
                                     cruise_thrust=args.cruise_thrust,
                                     cruise_speed=args.cruise_speed)
    else:
        powers = fixture_config_powers(args.fixture or "paper-2025")
    curve = average_power_curve(powers, np.linspace(0.0, 1.0, 101))
    write_power_curve_csv(args.out, curve)
    for line in study_summary(powers):
        print(line)
    print(f"out={args.out}")
    return 0


_WIND_TEST_START_S = 2.0


def _cmd_wind_test(args):
    mode = WingMode(args.mode)
    if not args.duration > _WIND_TEST_START_S:
        raise ConfigError(f"--duration must exceed the "
                          f"{_WIND_TEST_START_S:g} s wind start, "
                          f"got {args.duration:g}")
    spec = ScenarioSpec(
        name=f"wind_{args.mode}", mode="hover", duration=args.duration,
        position=(0.0, 0.0, 1.5),
        wind=WindProfile(speed=args.speed, direction=(1.0, 0.0, 0.0),
                         start=_WIND_TEST_START_S),
        wing=WingSchedule(kind="fixed", mode=mode))
    log = run_scenario(spec, VehicleParams())
    if args.out:
        log.write_csv(args.out)
    peak = log.peak_deviation(np.asarray(spec.position),
                              t_min=_WIND_TEST_START_S)
    print(f"mode={args.mode} wind_mps={args.speed:.9g} "
          f"peak_deviation_m={peak:.9g}")
    return 0


def _cmd_mix_check(args):
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    gains = (load_allocation_gains(args.gains) if args.gains
             else AllocationGains())
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        f_t = rng.uniform(0.0, 30.0)
        taus = rng.uniform(-5.0, 5.0, 3)
        wrench = Wrench(f_t, *taus)
        back = forward_model(mix(wrench, gains), gains)
        worst = max(worst,
                    abs(back.f_t - wrench.f_t), abs(back.tau_x - wrench.tau_x),
                    abs(back.tau_y - wrench.tau_y),
                    abs(back.tau_z - wrench.tau_z))
    source = args.gains if args.gains else "default"
    print(f"trials={args.trials} max_residual={worst:.9g} gains={source}")
    if worst >= 1e-9:
        raise NumericalDomainError(
            f"round-trip residual {worst:.3e} exceeds 1e-9")
    return 0


def _cmd_psd(args):
    series = read_timeseries_csv(args.csv)
    window = (args.window if args.window is not None
              else default_mean_window(series.fs))
    detrended = mean_subtract(series, window)
    result = psd(detrended, segment=args.segment, overlap=args.overlap)
    if args.out:
        write_psd_csv(args.out, result)
    print(f"file={args.csv} n={len(series)} fs={series.fs:.9g}")
    print(f"window={window} segment={args.segment} "
          f"overlap={args.overlap:.9g}")
    print(f"avg_psd_db={result.avg_db:.9g}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bench-splm": _cmd_bench_splm,
    "power-analysis": _cmd_power_analysis,
    "wind-test": _cmd_wind_test,
    "mix-check": _cmd_mix_check,
    "psd": _cmd_psd,
}


def _error_line(category, exc):
    msg = " ".join(str(exc).split())
    print(f"error: category={category} type={type(exc).__name__} "
          f"message={msg}", file=sys.stderr)


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        _error_line("validation", exc)
        return 1
    if args.command is None:
        print(parser.format_usage(), end="", file=sys.stderr)
        _error_line("validation", ConfigError("a subcommand is required"))
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, TableRangeError, LinearRangeError) as exc:
        _error_line("validation", exc)
        return 1
    except CoaxtailError as exc:
        _error_line("runtime", exc)
        return 2
    except OSError as exc:
        _error_line("runtime", exc)
        return 2
