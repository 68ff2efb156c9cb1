"""Smoke test of the benchmark itself: every workload at a small size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs ``run.py --smoke`` on each workload, untraced and traced, and checks
the result line against BENCHMARK.json (every end-to-end or per-layer
metric, with its declared unit), the human-readable lines (each
workload's own figures, by name and unit), that the traced counts repeat
exactly, and that the benchmark fails cleanly without the sources.
About two minutes on two cores.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The figures each workload prints besides the JSON metrics.
FIGURES = {
    "closed_loop": [("hover_ticks_per_s", "ticks/s"),
                    ("transition_ticks_per_s", "ticks/s"),
                    ("log_rows_per_s", "rows/s")],
    "rotor_sweep": [("sweep_configs_per_s", "configs/s")],
    "cli_cold": [("cli_wall_s_p50", "s")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("fail_ratio", "1")]
# Per-layer figures each workload must measure itself, not take from the
# layer probe.
OWN_LAYERS = {
    "closed_loop": ["control.cascade_step_us_transition",
                    "vehicle.write_csv_us_per_row_transition",
                    "kernels.rigid_step_us_hover",
                    "quat.rotate_us_per_tick_hover",
                    "analysis.load_scenario_ms_hover"],
    "rotor_sweep": ["kernels.splm_us_per_step_coupled",
                    "kernels.splm_us_per_step_decoupled",
                    "rotor.steady_state_ms_coupled", "analysis.psd_ms"],
    "cli_cold": ["propulsion.solve_rpm_us", "analysis.psd_ms"],
}
COUNTS = ("control.saturate_clip_ratio_hover",
          "control.saturate_clip_ratio_transition",
          "kernels.rigid_step_calls_hover", "kernels.rigid_step_calls_transition",
          "kernels.splm_steps", "quat.rotate_calls_per_tick_hover",
          "quat.rotate_calls_per_tick_transition")
LINE = re.compile(r"^\s+(\S+)\s+= (\S+) (\S+)(.*)")


def _run(root, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    printed = {m.group(1): (m.group(2), m.group(3), m.group(4))
               for m in map(LINE.match, lines[:-1]) if m}
    return result["metrics"], printed


def _check_declared(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert set(metrics[m["name"]]) == {"value", "unit"}, m["name"]
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_prints_every_end_to_end_metric(workload):
    metrics, printed = _run(HERE.parent, workload, 0)
    _check_declared(metrics, SPEC["end_to_end"])
    for m in metrics.values():
        assert m["value"] > 0
    for name, unit in COMMON + FIGURES[workload]:
        value, shown_unit, _ = printed[name]
        assert shown_unit == unit, name
        float(value)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_prints_every_per_layer_metric(workload):
    metrics, printed = _run(HERE.parent, workload, 1)
    _check_declared(metrics, SPEC["per_layer"])
    for name in metrics:
        assert name in printed
    for name, m in metrics.items():
        if name not in COUNTS:
            assert m["value"] > 0, name
    for name in OWN_LAYERS[workload] + ["trace.overhead_ratio"]:
        assert "layer probe" not in printed[name][2], name
    if workload == "closed_loop":
        assert "layer probe" in printed["kernels.splm_us_per_step_coupled"][2]


@pytest.mark.parametrize("workload", ["closed_loop", "rotor_sweep"])
def test_traced_counts_repeat_exactly(workload):
    first, _ = _run(HERE.parent, workload, 1)
    second, _ = _run(HERE.parent, workload, 1)
    for name in COUNTS:
        assert first[name] == second[name], name


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
