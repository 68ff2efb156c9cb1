"""One benchmark workload in one process.

    python3 perfbench/worker.py --workload NAME --seed N --tmp DIR
        [--seconds S | --one-round] [--trace] [--smoke] [--setup-only]

`run.py` starts this with ``src`` on PYTHONPATH and BLAS pinned to one
thread; it is not meant to be run by hand. The worker builds the
workload's inputs from the seed, runs whole rounds of operations until
`--seconds` have passed (or exactly one round), checks every output, and
prints one JSON object as its last line. With `--trace` it wraps the
layer boundaries first (see layers.py), runs the layer probe after the
workload, and adds the per-layer figures.
With `--setup-only` it stops once the inputs are built and prints
``ready`` with its CPU-speed samples (speed.py), so the parent can time
set-up.
"""

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import install, layer_metrics
from spans import SpanTable, Tracer
from speed import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "configs"
SPANS_DIR = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Run:
    """One measured run: operations attempted and failed, summed figures."""

    def __init__(self, tracer, clock):
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.tally = {}

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")

    def timed(self, what, fn, *args, **kwargs):
        """(result, seconds, scaled seconds) of one operation, or None if
        it raised."""
        try:
            return self.clock.time(fn, *args, **kwargs)
        except Exception as exc:  # the benchmark keeps running and reports it
            self.record(what, [f"{type(exc).__name__}: {exc}"])
            return None

    def add(self, key, amount):
        self.tally[key] = self.tally.get(key, 0) + amount

    def set_phase(self, phase):
        if self.tracer is not None:
            self.tracer.set_phase(phase)

    def add_time(self, key, timing):
        """Sum an operation's (seconds, scaled seconds) under `key`."""
        self.add(key, timing[1])
        self.add("raw_" + key, timing[0])

    def rate(self, units, seconds):
        """Units per second at nominal CPU speed, and per raw second."""
        count = sum(self.tally.get(k, 0) for k in units)
        scaled = sum(self.tally.get(k, 0.0) for k in seconds)
        raw = sum(self.tally.get("raw_" + k, 0.0) for k in seconds)
        if not scaled:
            return None, None
        return count / scaled, count / raw


class Workload:
    """Builds its inputs from the seed; `run_round` runs and checks them."""

    def spans(self, tracer):
        return tracer.table()


class ClosedLoop(Workload):
    """The transition scenario and the wind pair, each log written as CSV.

    A round runs the wind pair, the transition, then the retracted wind
    case again, so every round repeats inputs and the repeat's CSV digest
    must match.
    The seed moves the wind speed (4.5 to 5.5 m/s, along body x) and the
    hold positions; wind along y would void the retracted-vs-extended
    check, so the direction stays fixed.
    """

    ORDER = ("wind_extended", "wind_retracted", "transition",
             "wind_retracted")

    def __init__(self, seed, tmp, smoke, tracer):
        from coaxtail import analysis

        rng = random.Random(seed)
        wind_speed = rng.uniform(4.5, 5.5)
        hold = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                rng.uniform(1.2, 2.0))
        altitude = rng.uniform(1.5, 2.5)
        self.smoke = smoke
        self.tmp = tmp
        self.cases = {}
        for name in ("wind_extended", "wind_retracted", "transition"):
            cfg = configparser.ConfigParser()
            cfg.read(CONFIGS / f"{name}.cfg")
            sc = cfg["scenario"]
            if name == "transition":
                sc["position_m"] = f"0 0 {altitude:.6f}"
            else:
                sc["position_m"] = " ".join(f"{x:.6f}" for x in hold)
                cfg["wind"]["speed_mps"] = f"{wind_speed:.6f}"
                if smoke:
                    cfg["wind"]["start_s"] = "1.0"
            if smoke:
                sc["duration_s"] = "3.0"
            path = tmp / f"{name}.cfg"
            with open(path, "w") as fh:
                cfg.write(fh)
            phase = "transition" if name == "transition" else "hover"
            if tracer is not None:
                tracer.set_phase(phase)
            spec, params = analysis.load_scenario(str(path))
            self.cases[name] = (phase, spec, params)
        self.digests = {}
        self.peaks = {}

    def _check_log(self, name, spec, log):
        import numpy as np
        from coaxtail import vehicle

        problems = []
        cols = (log.state, log.td1, log.td2, log.mdx, log.mdy, log.d1,
                log.d2, log.lam)
        if not all(np.all(np.isfinite(c)) for c in cols):
            problems.append("non-finite log entries")
        if name == "transition" and not self.smoke:
            tail = (log.t >= 41.0) & (log.t < 42.0)
            speed = float(np.mean(np.abs(log.velocity[tail, 0])))
            if not abs(speed - 15.6) <= 2.0:
                problems.append(f"cruise speed {speed:.3f} m/s not 15.6+-2")
            ramp = (log.t >= 2.0) & (log.t <= 22.0)
            sp = np.array([vehicle.transition_profile(t) for t in log.t[ramp]])
            rms = math.degrees(float(np.sqrt(np.mean(
                (log.pitch()[ramp] - sp) ** 2))))
            if not rms < 5.0:
                problems.append(f"ramp pitch RMS {rms:.3f} deg not < 5")
        elif name != "transition":
            peak = log.peak_deviation(np.asarray(spec.position),
                                      t_min=spec.wind.start)
            self.peaks[name] = peak
            if (name == "wind_retracted" and not self.smoke
                    and "wind_extended" in self.peaks):
                ratio = peak / self.peaks["wind_extended"]
                if not ratio <= 0.5:
                    problems.append(f"retracted/extended peak ratio "
                                    f"{ratio:.3f} not <= 0.5")
        return problems

    def run_round(self, index, run):
        from coaxtail import vehicle

        for name in self.ORDER:
            phase, spec, params = self.cases[name]
            run.set_phase(phase)
            self.peaks.pop(name, None)
            ran = run.timed(f"run {name}", vehicle.run_scenario, spec, params)
            if ran is None:
                continue
            log, run_s = ran[0], ran[1:]
            run.record(f"run {name}", self._check_log(name, spec, log))
            path = self.tmp / f"{name}.csv"
            wrote = run.timed(f"csv {name}", log.write_csv, str(path))
            if wrote is None:
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.digests.setdefault(name, digest)
            run.record(f"csv {name}", [] if digest == first else
                       ["log differs from an earlier run of the same inputs"])
            run.add(f"ticks_{phase}", log.t.size)
            run.add_time(f"run_s_{phase}", run_s)
            run.add_time(f"csv_s_{phase}", wrote[1:])

    @staticmethod
    def figures(run):
        phases = ("hover", "transition")
        work = run.rate([f"ticks_{p}" for p in phases],
                        [f"{k}_s_{p}" for k in ("run", "csv") for p in phases])
        return work, [
            ("hover_ticks_per_s", run.rate(["ticks_hover"], ["run_s_hover"]),
             "ticks/s", "wind pair"),
            ("transition_ticks_per_s",
             run.rate(["ticks_transition"], ["run_s_transition"]),
             "ticks/s", ""),
            ("log_rows_per_s",
             run.rate(["ticks_transition"], ["csv_s_transition"]),
             "rows/s", "write_csv on the transition log"),
        ]


class RotorSweep(Workload):
    """The criterion-4 matrix: downwash x hinge offset x variant.

    Each config is one bench run at throttle 900, amplitude 200 and
    1 kHz, then mean subtraction and a Welch PSD with the criterion's
    settings. The seed orders the nine geometries; a round takes the
    next four, and decoupled must beat coupled on both p2p and PSD.
    """

    FS = 1000.0
    GEOMETRIES = tuple((phi, e) for phi in (0.08, 0.12, 0.16)
                       for e in (0.15, 0.20, 0.25))

    def __init__(self, seed, tmp, smoke, tracer):
        from coaxtail import analysis
        from coaxtail.rotor import SplmParams

        order = list(self.GEOMETRIES)
        random.Random(seed).shuffle(order)
        self.pairs = [
            (phi, e, {v: SplmParams(variant=v, downwash_angle=phi,
                                    hinge_offset=e)
                      for v in ("coupled", "decoupled")})
            for phi, e in order]
        self.duration = 4.0 if smoke else 10.0
        self.per_round = 1 if smoke else 4
        self.window = analysis.default_mean_window(self.FS)
        if tracer is not None:
            tracer.set_phase("sweep")

    def _config(self, params):
        import numpy as np
        from coaxtail import analysis, rotor

        _, tau = rotor.bench_torque_series(params, 900.0, 200.0, 0.0,
                                           self.duration, self.FS)
        s = analysis.mean_subtract(
            analysis.TimeSeries(fs=self.FS, values=tau[2000:]), self.window)
        db = analysis.avg_psd_db(analysis.psd(s, segment=1024, overlap=0.5))
        finite = bool(np.all(np.isfinite(tau))) and math.isfinite(db)
        return float(s.values.max() - s.values.min()), db, finite

    def run_round(self, index, run):
        for k in range(self.per_round):
            phi, e, params = self.pairs[(index * self.per_round + k)
                                        % len(self.pairs)]
            coupled = None
            for variant in ("coupled", "decoupled"):
                what = f"phi={phi:g} e={e:g} {variant}"
                ran = run.timed(what, self._config, params[variant])
                if ran is None:
                    continue
                (p2p, db, finite), timing = ran[0], ran[1:]
                problems = [] if finite else ["non-finite torque or PSD"]
                if variant == "coupled":
                    coupled = (p2p, db)
                elif coupled is not None and not (p2p < coupled[0]
                                                  and db < coupled[1]):
                    problems.append(
                        f"decoupled (p2p {p2p:.4g}, {db:.2f} dB) does not beat "
                        f"coupled (p2p {coupled[0]:.4g}, {coupled[1]:.2f} dB)")
                run.record(what, problems)
                run.add("configs", 1)
                run.add_time("config_s", timing)

    @staticmethod
    def figures(run):
        work = run.rate(["configs"], ["config_s"])
        return work, [("sweep_configs_per_s", work, "configs/s",
                       "geometry x variant, bench plus analysis")]


def _keys(stdout):
    """key=value tokens of a CLI's standard output."""
    return dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)


def _number(text):
    return float(text.rstrip("%"))


POWER_KEYS = {
    "HPC_hover_W", "HPC_cruise_W", "HLC_hover_W", "HLC_cruise_W",
    "HSC_hover_W", "HSC_cruise_W", "crossover_HPC_HLC",
    "reduction_at_r0.2_vs_HLC", "reduction_at_r0.2_vs_HSC",
    "multirotor_gap_vs_HSC", "fixedwing_gap_vs_HLC", "out"}

# The published wattage fixture and the study figures derived from it:
# key -> (expected, tolerance), tolerances as in acceptance criterion 1.
PAPER_2025 = {
    "HPC_hover_W": (138.3, 1e-9), "HLC_cruise_W": (122.0, 1e-9),
    "HSC_hover_W": (210.6, 1e-9), "crossover_HPC_HLC": (0.447, 1e-3),
    "reduction_at_r0.2_vs_HLC": (29.2, 0.1),
    "reduction_at_r0.2_vs_HSC": (15.6, 0.1),
    "multirotor_gap_vs_HSC": (34.0, 0.5), "fixedwing_gap_vs_HLC": (48.0, 0.5),
}


def _check_keys(out, expected):
    keys = _keys(out)
    missing = sorted(expected - keys.keys())
    return keys, ([f"missing stdout keys {missing}"] if missing else [])


def _check_fixture(out):
    keys, problems = _check_keys(out, POWER_KEYS)
    for key, (want, tol) in PAPER_2025.items():
        if key in keys and not abs(_number(keys[key]) - want) <= tol:
            problems.append(f"{key}={keys[key]} not {want}+-{tol}")
    return problems


def _check_tables(out):
    keys, problems = _check_keys(out, POWER_KEYS)
    for key in POWER_KEYS & keys.keys():
        if key.endswith("_W") and not _number(keys[key]) > 0.0:
            problems.append(f"{key}={keys[key]} not positive")
    return problems


class CliCold(Workload):
    """Light CLI commands, each in a fresh interpreter, one at a time.

    Children run `cli_child.py`, which calls `cli_main` with ``src`` on
    the path (no ``python -m`` runpy warning, no installed console
    script needed). The seed picks the mix-check seed and the bench
    variant and phase. A round is the five commands; rounds are whole so
    the mix of commands stays the same.
    """

    BENCH_SECONDS = 2.0
    FS = 1000.0

    def __init__(self, seed, tmp, smoke, tracer):
        from coaxtail.analysis import cli_main  # noqa: F401  (a CLI's set-up)

        rng = random.Random(seed)
        self.mix_seed = rng.randrange(1_000_000)
        self.variant = rng.choice(("coupled", "decoupled"))
        self.phase = rng.uniform(0.0, 2.0 * math.pi)
        self.trials = 100 if smoke else 1000
        self.tmp = tmp
        self.traced = tracer is not None
        self.span_files = []
        self.walls = []

    def _commands(self):
        samples = int(round(self.BENCH_SECONDS * self.FS)) + 1
        torque = str(self.tmp / "torque.csv")

        def mix(out):
            keys, problems = _check_keys(out, {"trials", "max_residual",
                                               "gains"})
            if "max_residual" in keys and not (
                    _number(keys["max_residual"]) < 1e-9):
                problems.append(f"max_residual={keys['max_residual']}")
            return problems

        def bench(out):
            keys, problems = _check_keys(out, {"variant", "samples", "out",
                                               "torque_p2p"})
            if keys.get("samples") != str(samples):
                problems.append(f"samples={keys.get('samples')}")
            if "torque_p2p" in keys and not _number(keys["torque_p2p"]) > 0.0:
                problems.append(f"torque_p2p={keys['torque_p2p']}")
            return problems

        def spectrum(out):
            keys, problems = _check_keys(out, {"file", "n", "fs", "window",
                                               "segment", "overlap",
                                               "avg_psd_db"})
            if keys.get("n") != str(samples):
                problems.append(f"n={keys.get('n')}")
            if "avg_psd_db" in keys and not math.isfinite(
                    _number(keys["avg_psd_db"])):
                problems.append(f"avg_psd_db={keys['avg_psd_db']}")
            return problems

        return [
            (["power-analysis", "--fixture", "paper-2025", "--out",
              str(self.tmp / "power_fixture.csv")], _check_fixture),
            (["power-analysis", "--tables", str(CONFIGS / "props"), "--out",
              str(self.tmp / "power_tables.csv")], _check_tables),
            (["mix-check", "--trials", str(self.trials), "--seed",
              str(self.mix_seed)], mix),
            (["bench-splm", "--variant", self.variant, "--phase",
              f"{self.phase:.6f}", "--duration", f"{self.BENCH_SECONDS:g}",
              "--fs", f"{self.FS:g}", "--out", torque], bench),
            (["psd", torque], spectrum),
        ]

    def run_round(self, index, run):
        for argv, check in self._commands():
            clock_file = self.tmp / "clock.txt"
            clock_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "cli_child.py"),
                   "--clock", str(clock_file)]
            if self.traced:
                spans = self.tmp / f"cli-spans-{len(self.span_files)}.npz"
                self.span_files.append(spans)
                cmd += ["--spans", str(spans)]
            ran = run.timed(argv[0], self._call, cmd + argv, clock_file,
                            run.clock)
            if ran is None:
                continue
            proc, timing = ran[0], ran[1:]
            if proc.returncode != 0:
                problems = [f"exit {proc.returncode}: {proc.stderr.strip()}"]
            else:
                problems = check(proc.stdout)
                if proc.stderr:
                    problems.append(f"stderr: {proc.stderr.strip()[:200]}")
            run.record(argv[0], problems)
            self.walls.append(timing)
            run.add("calls", 1)
            run.add_time("call_s", timing)

    def _call(self, cmd, clock_file, clock):
        with clock.paused():
            proc = subprocess.run(cmd, cwd=self.tmp, capture_output=True,
                                  text=True, timeout=120)
        clock.absorb(clock_file.read_text())
        return proc

    def spans(self, tracer):
        return SpanTable.concat([tracer.table()] + [
            SpanTable.load(p) for p in self.span_files if p.exists()])

    def figures(self, run):
        p50 = (None, None) if not self.walls else (
            statistics.median(t[1] for t in self.walls),
            statistics.median(t[0] for t in self.walls))
        return run.rate(["calls"], ["call_s"]), [
            ("cli_wall_s_p50", p50, "s", f"n={len(self.walls)}")]


PROBE_SCENARIO_S = 2.0
PROBE_BENCH_S = 3.0


def layer_probe(tracer, tmp, run):
    """Call every layer once at a small fixed size (traced runs only).

    A workload reaches only some layers; each figure the workload leaves
    without a call comes from these spans instead, so every traced run
    reports every layer. The inputs are fixed, so the probe's counts
    repeat exactly. Its operations are checked and counted like the
    workload's, but they add to no rate.
    """
    import numpy as np
    from coaxtail import analysis, rotor, vehicle
    from coaxtail.rotor import SplmParams

    def fly(cfg_path, csv_path):
        spec, params = analysis.load_scenario(str(cfg_path))
        log = vehicle.run_scenario(spec, params)
        log.write_csv(str(csv_path))
        return np.all(np.isfinite(log.state))

    def bench(params):
        _, tau = rotor.bench_torque_series(params, 900.0, 200.0, 0.0,
                                           PROBE_BENCH_S, 1000.0)
        s = analysis.mean_subtract(
            analysis.TimeSeries(fs=1000.0, values=tau[1000:]),
            analysis.default_mean_window(1000.0))
        db = analysis.avg_psd_db(analysis.psd(s, segment=1024, overlap=0.5))
        return bool(np.all(np.isfinite(tau))) and math.isfinite(db)

    def powers():
        study = analysis.table_config_powers(str(CONFIGS / "props"))
        return all(p.hover_w > 0.0 and p.cruise_w > 0.0 for p in study)

    ops = []
    for name, phase in (("wind_retracted", "hover"),
                        ("transition", "transition")):
        cfg = configparser.ConfigParser()
        cfg.read(CONFIGS / f"{name}.cfg")
        cfg["scenario"]["duration_s"] = f"{PROBE_SCENARIO_S:g}"
        if cfg.has_section("wind"):
            cfg["wind"]["start_s"] = "0.5"
        path = tmp / f"probe_{name}.cfg"
        with open(path, "w") as fh:
            cfg.write(fh)
        ops.append((phase, f"probe {name}", fly,
                    (path, tmp / f"probe_{name}.csv")))
    for variant in ("coupled", "decoupled"):
        ops.append(("probe", f"probe bench {variant}", bench,
                    (SplmParams(variant=variant),)))
    ops.append(("probe", "probe power tables", powers, ()))
    for phase, what, fn, args in ops:
        tracer.set_phase(phase)
        ran = run.timed(what, fn, *args)
        if ran is not None:
            run.record(what, [] if ran[0] else ["non-finite output"])


WORKLOADS = {
    "closed_loop": ClosedLoop,
    "rotor_sweep": RotorSweep,
    "cli_cold": CliCold,
}


def machine_info():
    """Machine and backend state, so a number from elsewhere shows as such."""
    import numpy
    import scipy
    from coaxtail import kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "blas": blas,
        "blas_threads": ",".join(
            f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_VARS),
    }


def _peak_rss_mb(workload):
    # ru_maxrss is in KiB on Linux; for the CLI it is the largest child
    who = (resource.RUSAGE_CHILDREN if workload == "cli_cold"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--one-round", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with SpeedClock() as clock:
        tracer = None
        if args.trace:
            tracer = Tracer()
            install(tracer)
        args.tmp.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed, args.tmp, args.smoke,
                                            tracer)
        if args.setup_only:
            print(f"ready {clock.report()}", flush=True)
            return 0
        run = Run(tracer, clock)
        t0 = time.perf_counter()
        rounds = 0
        while True:
            workload.run_round(rounds, run)
            rounds += 1
            if args.one_round or time.perf_counter() - t0 >= args.seconds:
                break
        measured_s = time.perf_counter() - t0
        slowdown = clock.factor()
        if tracer is not None:
            spans = workload.spans(tracer)
            tracer.reset()
            first = len(clock.bursts)
            layer_probe(tracer, args.tmp, run)
            # the probe's own samples: a CLI round's come from its children
            probe_slowdown = clock.factor(clock.bursts[first:])
            probe = tracer.table()
            tracer.uninstall()
    work, figures = workload.figures(run)
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.reasons,
        "rounds": rounds,
        "measured_s": measured_s,
        "slowdown": slowdown,
        "work_units_per_s": work,
        "figures": figures,
        "peak_rss_mb": _peak_rss_mb(args.workload),
        "machine": machine_info(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(spans, probe, slowdown,
                                         probe_slowdown)
        result["missing_wrap_points"] = tracer.missing
        SPANS_DIR.mkdir(exist_ok=True)
        spans.save(SPANS_DIR / f"spans-{args.workload}.npz")
        probe.save(SPANS_DIR / f"spans-{args.workload}-probe.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
