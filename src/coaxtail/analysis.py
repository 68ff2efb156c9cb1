"""Vibration analysis, file ingestion, and the command-line front end.

The processing chain mirrors the bench workflow: a logged torque trace
gets a fixed-window mean subtraction (one shaft revolution by default,
which strips DC and slow drift but keeps the per-rev oscillation), then
an averaged-periodogram PSD, then a scalar average density in dB/Hz.
All numeric output is serialized with 9 significant digits so repeated
runs produce byte-identical files.

Only the rotor layer is imported at module level: the vehicle, control,
propulsion and aero layers are imported inside the functions that use
them, so a CLI command loads only the layers it runs (`psd` and
`bench-splm` never load the simulator or the power study).
"""

import argparse
import configparser
import math
import os
import random
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    CoaxtailError,
    ConfigError,
    LinearRangeError,
    NumericalDomainError,
    TableRangeError,
    check_positive,
    finite_number,
    finite_vector3,
    read_number_rows,
    whole_count,
)
from .rotor import (HOVER_THROTTLE, SPEED_PER_THROTTLE, SplmParams,
                    bench_torque_series)
from .stock import CRUISE_SPEED, CRUISE_THRUST, GRAVITY, MASS

DB_FLOOR = -300.0  # reported instead of -inf for silent signals
_ZERO_POWER = 1e-30


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar signal."""

    fs: float
    values: np.ndarray

    def __post_init__(self):
        check_positive(fs=self.fs)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ConfigError("time series needs at least 2 samples")
        if not np.isfinite(values).all():
            raise ConfigError("time series values must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class PsdResult:
    """One-sided power spectral density estimate."""

    freq: np.ndarray  # Hz, ascending
    density: np.ndarray  # unit^2/Hz, non-negative

    def __post_init__(self):
        freq = np.asarray(self.freq, dtype=float)
        density = np.asarray(self.density, dtype=float)
        if freq.size == 0 or freq.size != density.size:
            raise ConfigError("frequency and density lengths must match")
        # each test is written so that NaN fails it
        if not (np.isfinite(freq).all() and np.all(np.diff(freq) > 0.0)):
            raise ConfigError("frequency bins must ascend")
        if not np.all(density >= 0.0):
            raise ConfigError("power density must be non-negative")
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "density", density)


def mean_subtract(series, window):
    """Subtract each fixed, non-overlapping block's mean from its samples.

    The trailing partial block (when window does not divide the length)
    uses its own mean, so the output always matches the input length and
    a second application changes nothing.
    """
    window = whole_count("window", window, 1)
    n = len(series)
    if window > n:
        raise ConfigError(f"window {window} exceeds series length {n}")
    out = series.values.copy()
    n_full = (n // window) * window
    if n_full:
        head = out[:n_full].reshape(-1, window)
        head -= head.mean(axis=1, keepdims=True)
    if n_full < n:
        out[n_full:] -= out[n_full:].mean()
    return TimeSeries(series.fs, out)


def psd(series, segment=1024, overlap=0.5):
    """Averaged-periodogram (Welch) density with a Hann taper.

    Normalized so sum(density)*df recovers the signal's mean square for
    stationary input. The DC bin is kept; run mean_subtract first if the
    offset should not count.
    """
    segment = whole_count("segment", segment, 2)
    n = len(series)
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
    return PsdResult(freq=freq, density=density)


def avg_psd_db(result):
    """Average density in dB/Hz: 10*log10 of the mean linear density, or
    DB_FLOOR for a silent signal."""
    mean = float(np.mean(result.density))
    if mean <= _ZERO_POWER:
        return DB_FLOOR
    return 10.0 * math.log10(mean)


def peak_to_peak_reduction(a, b):
    """Percent reduction of peak-to-peak amplitude from a to b."""
    p2p_a = float(np.max(a.values) - np.min(a.values))
    p2p_b = float(np.max(b.values) - np.min(b.values))
    if p2p_a <= 0.0:
        raise NumericalDomainError(
            "reference series has zero peak-to-peak amplitude")
    return 100.0 * (1.0 - p2p_b / p2p_a)


def default_mean_window(fs):
    """Samples per shaft revolution at the nominal hover throttle."""
    check_positive(fs=fs)
    rev_rate = SPEED_PER_THROTTLE * HOVER_THROTTLE / (2.0 * math.pi)
    return max(1, int(round(fs / rev_rate)))


# ---------------------------------------------------------------------------
# CSV ingestion and emission

def read_timeseries_csv(path):
    """Read a `t,<value>` CSV with header, two numbers per row; sampling
    must be uniform."""
    rows = read_number_rows(path, ("t", None))
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least 2 samples")
    dt = np.diff(rows[:, 0])
    step = _median(dt)
    if step <= 0.0 or np.max(np.abs(dt - step)) > 1e-6 * max(step, 1e-12):
        raise ConfigError(f"{path}: sampling is not uniform")
    return TimeSeries(fs=1.0 / step, values=rows[:, 1])


def _median(values):
    """np.median of a 1-D float array, bit for bit, without the import of
    numpy.ma that np.median makes on its first call."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return (float(ordered[mid - 1]) + float(ordered[mid])) / 2.0


def _write_pairs(path, header, x, y):
    """Write the header line, then one "%.9g,%.9g" row per (x, y) pair;
    the rows are formatted as bytes, from Python floats."""
    rows = zip(np.asarray(x).tolist(), np.asarray(y).tolist())
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        fh.write(b"".join(b"%.9g,%.9g\n" % row for row in rows))


def write_timeseries_csv(path, t, values, name="value"):
    _write_pairs(path, f"t,{name}", t, values)


def write_psd_csv(path, result):
    _write_pairs(path, "f_Hz,psd", result.freq, result.density)


# ---------------------------------------------------------------------------
# Scenario and gains config files (INI)

def _read_ini(path, allowed):
    """The parsed file; its sections and their keys must be in `allowed`."""
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        loaded = cfg.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not loaded:
        raise ConfigError(f"cannot read config file {path}")
    for section in cfg.sections():
        if section not in allowed:
            raise ConfigError(f"{path}: unknown section [{section}]")
        extra = set(cfg[section]).difference(allowed[section])
        if extra:
            raise ConfigError(
                f"{path}: unknown key(s) {sorted(extra)} in [{section}]")
    return cfg


def _vector3(text, where):
    return finite_vector3([finite_number(x, where) for x in text.split()],
                          where)


def _radians(text, where):
    return math.radians(finite_number(text, where))


def _text(text, where):
    return text


def _aft_table(text, where):
    from .propulsion import load_propeller_table

    try:
        return load_propeller_table(text, "7in")
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _wing_fields(text, where):
    """WingSchedule fields of 'pitch' or 'fixed:<mode>'."""
    text = text.lower()
    if text == "pitch":
        return {"kind": "pitch"}
    if text.startswith("fixed:"):
        return {"kind": "fixed", "mode": text.split(":", 1)[1]}
    raise ConfigError(f"{where}: wing schedule must be 'pitch' or "
                      f"'fixed:<mode>', got {text!r}")


# [section] key -> (object, field, parser(text, where)). Only the keys a
# file sets are passed on: every other field keeps its dataclass default,
# except that an unnamed scenario is "scenario" (ScenarioSpec says
# "hover"), whose log is scenario_log.csv by default. The parser of a None
# field returns a dict of fields.
_SCENARIO_SCHEMA = {
    "scenario": {
        "name": ("spec", "name", _text),
        "mode": ("spec", "mode", _text),
        "duration_s": ("spec", "duration", finite_number),
        "dt_s": ("spec", "dt", finite_number),
        "position_m": ("spec", "position", _vector3),
        "yaw_deg": ("spec", "yaw", _radians),
        "start_position_m": ("spec", "start_position", _vector3),
    },
    "wind": {
        "speed_mps": ("wind", "speed", finite_number),
        "direction": ("wind", "direction", _vector3),
        "start_s": ("wind", "start", finite_number),
        "stop_s": ("wind", "stop", finite_number),
        "ramp_s": ("wind", "ramp", finite_number),
    },
    "schedule": {
        "wing": ("wing", None, _wing_fields),
        "extend_below_deg": ("wing", "extend_below", _radians),
        "lambda_hover": ("lam", "lam_hover", finite_number),
        "lambda_fw": ("lam", "lam_fw", finite_number),
        "lambda_start_deg": ("lam", "pitch_start", _radians),
        "lambda_end_deg": ("lam", "pitch_end", _radians),
    },
    "vehicle": {
        "mass_kg": ("params", "mass", finite_number),
        "inertia_diag": ("params", "inertia", _vector3),
        "drag_cd": ("params", "drag_cd", finite_number),
        "lateral_area_m2": ("params", "lateral_area", finite_number),
        "axial_area_m2": ("params", "axial_area", finite_number),
        "aft_speed_per_count": ("params", "aft_speed_per_count",
                                finite_number),
        "prop_tables_dir": ("params", "aft_table", _aft_table),
    },
}

# the keys whose empty value means "not set"; any other is refused
_EMPTY_IS_UNSET = {("scenario", "start_position_m"), ("wind", "stop_s"),
                   *(("vehicle", key) for key in _SCENARIO_SCHEMA["vehicle"])}


def _build(path, keys, cls, **kwargs):
    """cls(**kwargs); a ConfigError it raises is raised again naming the
    file and every `[section] key` the file set for the object."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {', '.join(keys)}: {exc}") from exc


def load_scenario(path):
    """Parse a scenario config file into (ScenarioSpec, VehicleParams)."""
    from .vehicle import (LambdaSchedule, ScenarioSpec, VehicleParams,
                          WindProfile, WingSchedule)

    cfg = _read_ini(path, _SCENARIO_SCHEMA)
    given = {"spec": {}, "wind": {}, "wing": {}, "lam": {}, "params": {}}
    keys = {target: [] for target in given}
    for section in cfg.sections():
        for key, text in cfg[section].items():
            if not text and (section, key) in _EMPTY_IS_UNSET:
                continue
            target, field, parse = _SCENARIO_SCHEMA[section][key]
            value = parse(text, f"{path}: [{section}] {key}")
            given[target].update(value if field is None else {field: value})
            keys[target].append(f"[{section}] {key}")
    given["spec"].setdefault("name", "scenario")

    def build(target, cls, **parts):
        return _build(path, keys[target], cls, **given[target], **parts)

    spec = build("spec", ScenarioSpec, wind=build("wind", WindProfile),
                 wing=build("wing", WingSchedule),
                 lam=build("lam", LambdaSchedule))
    return spec, build("params", VehicleParams)


def load_allocation_gains(path):
    from .control import AllocationGains

    cfg = _read_ini(path, {"allocation": {
        f.name for f in fields(AllocationGains)}})
    if not cfg.has_section("allocation"):
        raise ConfigError(f"{path}: missing [allocation] section")
    sec = cfg["allocation"]
    return _build(path, [f"[allocation] {k}" for k in sec], AllocationGains,
                  **{k: finite_number(v, f"{path}: [allocation] {k}")
                     for k, v in sec.items()})


# ---------------------------------------------------------------------------
# Propulsion study from raw tables

def table_config_powers(tables_dir):
    """Build propulsion.STUDY_PAIRINGS from measured propeller tables.

    Hover power produces the stock weight (stock.MASS * stock.GRAVITY)
    split across both rotors at zero inflow; cruise power produces
    stock.CRUISE_THRUST at stock.CRUISE_SPEED split across the active
    subset, both in sea-level air (stock.RHO). The directory holds
    <stem>_<rpm>.csv sheets for each stem of PROP_DIAMETERS.
    """
    from .propulsion import (PROP_DIAMETERS, load_propeller_table,
                             shared_power, study_powers)

    tables = {stem: load_propeller_table(tables_dir, stem)
              for stem in PROP_DIAMETERS}
    # (airspeed, total thrust) of each mode
    flight = {"multirotor": (0.0, MASS * GRAVITY),
              "fixedwing": (CRUISE_SPEED, CRUISE_THRUST)}
    return study_powers(lambda stems, mode: shared_power(
        [tables[s] for s in stems], *flight[mode]))


# ---------------------------------------------------------------------------
# Command line

class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise ConfigError(message)


def _finite_float(text):
    """The type of every float flag: text that is not a finite number,
    NaN and infinities included, is refused while parsing."""
    try:
        return finite_number(text, "value")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    p.add_argument("--throttle", type=_finite_float,
                   default=HOVER_THROTTLE)
    p.add_argument("--amplitude", type=_finite_float, default=200.0)
    p.add_argument("--phase", type=_finite_float, default=0.0)
    p.add_argument("--duration", type=_finite_float, default=10.0)
    p.add_argument("--fs", type=_finite_float, default=1000.0)
    p.add_argument("--out", default="torque.csv")

    p = sub.add_parser("power-analysis", help="mission power study")
    p.add_argument("--fixture", default=None,
                   help="named wattage fixture (default paper-2025)")
    p.add_argument("--tables", default=None,
                   help="directory of <prop>_<rpm>.csv coefficient sheets")
    p.add_argument("--out", default="power_curve.csv")

    p = sub.add_parser("mix-check", help="mixer round-trip property run")
    p.add_argument("--gains", default=None, help="allocation gains .cfg")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("psd", help="mean-subtract + PSD of a t,<value> CSV")
    p.add_argument("csv", help="input CSV path")
    p.add_argument("--segment", type=int, default=1024)
    p.add_argument("--overlap", type=_finite_float, default=0.5)
    p.add_argument("--window", type=int, default=None,
                   help="mean-subtraction block, samples "
                        "(default: one shaft revolution at hover)")
    p.add_argument("--out", default=None, help="optional density CSV path")
    return parser


def _output_dir_exists(path):
    """ConfigError unless the directory that is to hold path exists and
    path is not a directory itself: an output path is checked before the
    work, not after it."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"--out {path!r}: no directory {folder!r}")
    if os.path.isdir(path):
        raise ConfigError(f"--out {path!r}: is a directory")


def _cmd_simulate(args):
    from . import quat
    from .vehicle import run_scenario

    spec, params = load_scenario(args.scenario)
    out = args.out
    if not out:  # cli_main has checked a given --out
        out = f"{spec.name}_log.csv"
        _output_dir_exists(out)
    log = run_scenario(spec, params)
    log.write_csv(out)
    print(f"scenario={spec.name} ticks={log.t.size} out={out}")
    if spec.mode == "transition":
        # the hover target is not chased in transition; report tracking
        rms, speed = log.transition_tracking()
        print(f"ramp_pitch_rms_deg={_optional(rms)} "
              f"cruise_speed_mps={_optional(speed)}")
    else:
        target = np.asarray(spec.position, dtype=float)
        final_err = quat.norm(log.position[-1] - target)
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
    from .propulsion import (fixture_config_powers, study_summary,
                             write_power_curve_csv)

    if args.fixture and args.tables:
        raise ConfigError("--fixture and --tables are mutually exclusive")
    if args.tables:
        powers = table_config_powers(args.tables)
    else:
        powers = fixture_config_powers(args.fixture or "paper-2025")
    write_power_curve_csv(args.out, powers)
    for line in study_summary(powers):
        print(line)
    print(f"out={args.out}")
    return 0


def _cmd_mix_check(args):
    from .control import ALLOCATION, Wrench, forward_model, mix

    whole_count("--trials", args.trials, 1)
    whole_count("--seed", args.seed, 0)
    gains = load_allocation_gains(args.gains) if args.gains else ALLOCATION
    # the standard library's generator: numpy's own import loads random,
    # not numpy.random
    uniform = random.Random(args.seed).uniform
    worst = 0.0
    for _ in range(args.trials):
        wrench = Wrench(uniform(0.0, 30.0), uniform(-5.0, 5.0),
                        uniform(-5.0, 5.0), uniform(-5.0, 5.0))
        lam = uniform(0.0, 1.0)
        back = forward_model(mix(wrench, gains, lam), gains)
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
    print(f"avg_psd_db={avg_psd_db(result):.9g}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bench-splm": _cmd_bench_splm,
    "power-analysis": _cmd_power_analysis,
    "mix-check": _cmd_mix_check,
    "psd": _cmd_psd,
}


def _error_line(category, exc):
    msg = " ".join(str(exc).split())
    print(f"error: category={category} type={type(exc).__name__} "
          f"message={msg}", file=sys.stderr)


def cli_main(argv=None):
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        # a subcommand's error names the argument; without a known
        # subcommand the usage lists them
        if not argv or argv[0] not in _COMMANDS:
            print(parser.format_usage(), end="", file=sys.stderr)
        _error_line("validation", exc)
        return 1
    if args.command is None:
        print(parser.format_usage(), end="", file=sys.stderr)
        _error_line("validation", ConfigError("a subcommand is required"))
        return 1
    try:
        # an empty value is refused, not taken as the flag left unset
        for flag in ("out", "fixture", "tables", "gains"):
            if getattr(args, flag, None) == "":
                raise ConfigError(f"--{flag} must not be empty")
        if getattr(args, "out", None):
            _output_dir_exists(args.out)
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
