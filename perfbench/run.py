"""Layered benchmark for coaxtail.

    python3 perfbench/run.py --workload {closed_loop,rotor_sweep,cli_cold}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; the repository root is the parent of this directory,
and coaxtail is imported from its ``src``. Every child process gets
``src`` on PYTHONPATH, BLAS pinned to one thread, a fixed hash seed and
the numpy kernels (COAXTAIL_NO_NUMBA=1), the path that runs where numba
is absent. All processes share one CPU, and every time is scaled to the
nominal speed of that CPU by a sampled calibration loop (speed.py); the
raw figures are printed alongside.

Workloads (the reasons are in BENCHMARK.json; the inputs come from the
seed and the outputs are checked, see worker.py):

- closed_loop: transition.cfg and the wind pair, each log written as CSV;
- rotor_sweep: the criterion-4 vibration matrix, bench plus analysis;
- cli_cold: power-analysis (fixture and tables), mix-check, bench-splm
  and psd, each in a fresh interpreter.

With ``--trace 0`` the workload runs in one child for at least
`--seconds`, in whole rounds, and the end-to-end figures are printed.
Set-up is timed in separate children (start to inputs ready) and the
median is reported. With ``--trace 1`` one round runs twice, untraced and
traced, each in its own process, plus ``python -X importtime`` probes;
the per-layer figures are printed. The traced process then calls every
layer once at a small fixed size (worker.layer_probe); a layer the
workload does not reach is reported from that probe, labelled so.
``--smoke`` shrinks every workload for the benchmark's own test
(test_smoke.py).

Human-readable lines come first, including the machine and backend
state; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed_loop", "rotor_sweep", "cli_cold")
SETUP_PROBES = 5
IMPORT_PROBES = 3
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["COAXTAIL_NO_NUMBA"] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict layout in every run
    return env


class Runner:
    def __init__(self, args, tmp):
        self.args = args
        self.tmp = tmp
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S:g} s reached")
        return left

    def _worker_cmd(self, *extra):
        self.count += 1
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--tmp", str(self.tmp / f"w{self.count}"), *extra]
        return cmd + (["--smoke"] if self.args.smoke else [])

    def setup_probe(self, importtime=False):
        """Set-up seconds at nominal CPU speed: process start until the
        workload's inputs are ready. With `importtime`, also the import
        split from ``python -X importtime`` (see parse_importtime)."""
        cmd = self._worker_cmd("--setup-only")
        if importtime:
            cmd[1:1] = ["-X", "importtime"]
        err_path = self.tmp / f"probe{self.count}.err"
        with open(err_path, "wb") as err, subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, env=self.env) as proc:
            t0 = time.perf_counter()
            ready, _, _ = select.select([proc.stdout], [], [],
                                        self.remaining())
            line = proc.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - t0
            try:
                proc.wait(timeout=self.remaining())
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("set-up probe did not exit") from None
        words = line.split()
        if proc.returncode != 0 or words[:1] != [b"ready"]:
            raise BenchError(f"set-up probe failed: "
                             f"{err_path.read_text()[-2000:]}")
        clock = SpeedClock()
        clock.absorb(b" ".join(words[1:]).decode())
        setup = (elapsed - clock.burst_total) / clock.factor()
        if not importtime:
            return setup, None
        split = parse_importtime(err_path.read_text())
        return setup, {k: v / clock.factor() for k, v in split.items()}

    def worker(self, *extra):
        cmd = self._worker_cmd(*extra)
        # own process group, so a timeout also stops the worker's children
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=self.env,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=self.remaining())
            except (subprocess.TimeoutExpired, BenchError):
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError("workload did not finish in time") from None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exit {proc.returncode}: {err[-2000:]}")
        return json.loads(lines[-1])


def parse_importtime(text):
    """Seconds for numpy, scipy (outermost imports) and coaxtail's own modules.

    Lines are ``import time: self | cumulative | <indent>name`` in
    post-order, two spaces of indent per nesting level.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))

    def family(name, root):
        return name == root or name.startswith(root + ".")

    sums = {"numpy": 0, "scipy": 0, "coaxtail_self": 0}
    ancestors = []  # walking backwards, parents come before children
    for depth, name, self_us, cum_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else ""
        for root in ("numpy", "scipy"):
            if family(name, root) and not family(parent, root):
                sums[root] += cum_us
        if family(name, "coaxtail"):
            sums["coaxtail_self"] += self_us
        ancestors.append((depth, name))
    return {k: v * 1e-6 for k, v in sums.items()}


def _line(name, value, unit, note=""):
    shown = "absent" if value is None else f"{value:.6g}"
    print(f"  {name:<44} = {shown} {unit}" + (f"  ({note})" if note else ""))


def _raw(value, unit):
    return "" if value is None else f"raw {value:.6g} {unit}"


def run_plain(runner):
    args = runner.args
    setup = [runner.setup_probe()[0]
             for _ in range(1 if args.smoke else SETUP_PROBES)]
    res = runner.worker("--seconds", str(args.seconds))
    attempted, failed = res["attempted"], res["failed"]
    work, work_raw = res["work_units_per_s"]
    metrics = {
        "setup_s": (statistics.median(setup), "s", None),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", None),
        "success_ratio": ((attempted - failed) / attempted if attempted
                          else None, "1", None),
        "work_units_per_s": (work, "1/s", None),
    }
    _print_machine(res)
    print(f"end-to-end ({res['rounds']} rounds, {res['measured_s']:.1f} s "
          f"measured; times at nominal CPU speed, CPU ran "
          f"{res['slowdown']:.3f}x nominal time):")
    _line("setup_s", metrics["setup_s"][0], "s", f"median of {len(setup)}")
    _line("peak_rss_mb", res["peak_rss_mb"], "MB")
    _line("fail_ratio", failed / attempted if attempted else None, "1",
          f"{failed}/{attempted}")
    _line("success_ratio", metrics["success_ratio"][0], "1")
    _line("work_units_per_s", work, "1/s",
          f"{WORK_UNIT[args.workload]}, {_raw(work_raw, '1/s')}")
    for name, (value, raw), unit, note in res["figures"]:
        _line(name, value, unit, ", ".join(filter(None, [note, _raw(raw, unit)])))
    return res["failures"], attempted, failed, metrics


WORK_UNIT = {
    "closed_loop": "1 ms ticks per second of run_scenario plus write_csv",
    "rotor_sweep": "configs per second, bench plus analysis",
    "cli_cold": "CLI invocations per second, fresh interpreter each",
}


def run_traced(runner):
    args = runner.args
    base = runner.worker("--one-round")
    traced = runner.worker("--one-round", "--trace")
    probes = [runner.setup_probe(importtime=True)[1]
              for _ in range(1 if args.smoke else IMPORT_PROBES)]
    layers = {k: tuple(v) for k, v in traced["layers"].items()}
    for key, name in (("numpy", "coaxtail.import_numpy_s"),
                      ("scipy", "analysis.import_scipy_s"),
                      ("coaxtail_self", "coaxtail.import_self_s")):
        layers[name] = (statistics.median(p[key] for p in probes), "s", None)
    base_rate = base["work_units_per_s"][0]
    traced_rate = traced["work_units_per_s"][0]
    layers["trace.overhead_ratio"] = (
        (traced_rate / base_rate, "1", None) if base_rate and traced_rate
        else (None, "1", "no completed work to compare"))
    _print_machine(traced)
    if traced["missing_wrap_points"]:
        print("missing wrap points: " + ", ".join(traced["missing_wrap_points"]))
    print("per-layer (one round traced, times at nominal CPU speed; "
          "'layer probe' = the workload made no call, so the figure is "
          "the probe's):")
    for name, (value, unit, why) in layers.items():
        _line(name, value, unit, why or "")
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    return base["failures"] + traced["failures"], attempted, failed, layers


def _print_machine(res):
    info = " ".join(f"{k}={v}" for k, v in res["machine"].items())
    print(f"machine: {info}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "coaxtail" / "__init__.py").is_file():
        print(f"error: no coaxtail sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # one CPU for every process, so calibration and work share its speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          + (" smoke" if args.smoke else ""))
    tmp = ROOT / ".perfbench" / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args, tmp)
        failures, attempted, failed, metrics = (
            run_traced if args.trace else run_plain)(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for reason in failures:
        print(f"FAILED {reason}")
    out = {}
    for name, (value, unit, why) in metrics.items():
        if value is None or not math.isfinite(value):
            # a number is required; zero would pass for a measurement
            print(f"error: metric {name} could not be measured"
                  + (f": {why}" if why else ""), file=sys.stderr)
            return 1
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
