"""The benchmark's layers: where it wraps coaxtail, and what it reports.

Layers are the package modules. Each wrap point is the name the program
looks up at call time, so patching it catches every call the program
makes. `layer_metrics` turns the recorded spans into the per-layer
figures. A figure whose wrap point saw no call in the workload is never
reported as zero: it is taken from the layer probe, a small fixed call
of every layer that each traced run makes after its workload, and
labelled as such.

What each figure should move (end-to-end metric, workload):

- control.*, vehicle.*, kernels.rigid_step_*, quat.*: work_units_per_s
  (closed-loop ticks) on closed_loop; no move on rotor_sweep.
  control.saturate_clip_ratio is a behaviour check and moves nothing.
- vehicle.write_csv_us_per_row: work_units_per_s and log_rows_per_s on
  closed_loop.
- kernels.splm_*, rotor.*, analysis.mean_subtract/psd: work_units_per_s
  (configs) on rotor_sweep; no move on closed_loop.
- analysis.load_scenario_ms: setup_s on closed_loop.
- propulsion.solve_rpm_*: cli_wall_s_p50 on cli_cold.
- coaxtail.import_*, analysis.import_scipy_s: setup_s everywhere and
  work_units_per_s on cli_cold.
- trace.overhead_ratio: nothing; it says how far traced figures stray.

Counts (calls, steps, calls per tick, clip ratio) repeat exactly for a
seed; a change that only makes the program faster leaves them equal.
"""

# Closed-loop figures are split by phase: the wind pair ("hover") and the
# hover-to-cruise transition use the same layers differently.
CLOSED_LOOP_PHASES = ("hover", "transition")


def install(tracer):
    """Wrap every layer boundary the benchmark times."""
    from coaxtail import analysis, control, kernels, propulsion, quat, rotor, vehicle

    def clipped(args, result):
        return 1.0 if result[1] < 1.0 else 0.0

    def splm_label(args):
        return "kernels.splm_coupled" if args[7] else "kernels.splm_decoupled"

    def steady_label(args):
        return ("rotor.steady_state_coupled" if args[0].coupled
                else "rotor.steady_state_decoupled")

    tracer.wrap(control.CascadeController, "step", "control.cascade_step")
    tracer.wrap(vehicle, "saturate", "control.saturate", value=clipped)
    tracer.wrap(vehicle, "realized_wrench", "vehicle.realized_wrench")
    tracer.wrap(vehicle, "step_6dof", "vehicle.step_6dof")
    tracer.wrap(vehicle, "run_scenario", "vehicle.run_scenario",
                value=lambda args, log: log.t.size)
    tracer.wrap(vehicle.SimLog, "write_csv", "vehicle.write_csv",
                value=lambda args, _: args[0].t.size)
    tracer.wrap(kernels, "rigid_step", "kernels.rigid_step")
    tracer.wrap(kernels, "splm_trajectory", splm_label,
                value=lambda args, _: args[1])
    tracer.wrap(quat, "rotate", "quat.rotate")
    tracer.wrap(rotor, "steady_state", steady_label)
    # the sweep calls the rotor module's name, the CLI its own import
    tracer.wrap(rotor, "bench_torque_series", "rotor.bench_torque_series")
    tracer.wrap(analysis, "bench_torque_series", "rotor.bench_torque_series")
    tracer.wrap(analysis, "mean_subtract", "analysis.mean_subtract")
    tracer.wrap(analysis, "psd", "analysis.psd")
    tracer.wrap(analysis, "load_scenario", "analysis.load_scenario")
    tracer.wrap(propulsion, "solve_rpm_for_thrust", "propulsion.solve_rpm")


def _ratio(num, den, scale, unit, why):
    if den == 0:
        return None, unit, why
    return num / den * scale, unit, None


def _per_call(spans, name, phase, scale, unit, own=False):
    calls = spans.calls(name, phase)
    return _ratio(spans.total_s(name, phase, own), calls, scale, unit,
                  f"no call to {name}" + (f" in {phase}" if phase else ""))


def _count(spans, name, phase=None):
    calls = spans.calls(name, phase)
    return (calls or None), "count", None if calls else f"no call to {name}"


def layer_metrics(spans, probe, slowdown, probe_slowdown):
    """Per-layer figures: {name: (value|None, unit, note)}.

    Each figure comes from the workload's spans. Where the workload made
    no call to that layer, it comes from the layer probe's spans instead
    (see worker.layer_probe) and the note says so; it is None only if
    the probe did not reach the layer either. Each table's times are
    divided by the CPU speed factor sampled while it was recorded.
    """
    own = _layer_figures(spans, slowdown)
    fallback = _layer_figures(probe, probe_slowdown)
    merged = {}
    for name, (value, unit, why) in own.items():
        if value is None:
            value, _, probe_why = fallback[name]
            why = (f"layer probe; workload: {why}" if value is not None
                   else f"{why}, also in the layer probe ({probe_why})")
        merged[name] = (value, unit, why)
    return merged


def _layer_figures(spans, slowdown):
    """Figures of one span table: {name: (value|None, unit, why)}.

    A figure over zero calls, a count of zero included, is None with the
    reason. Times are divided by `slowdown`, the run's CPU speed factor
    (see speed.py).
    """
    us, ms = 1e6 / slowdown, 1e3 / slowdown
    m = {}
    for ph in CLOSED_LOOP_PHASES:
        ticks = spans.value_sum("vehicle.run_scenario", ph)
        no_ticks = f"no closed-loop ticks in {ph}"
        m[f"control.cascade_step_us_{ph}"] = _per_call(
            spans, "control.cascade_step", ph, us, "us")
        m[f"control.saturate_us_{ph}"] = _per_call(
            spans, "control.saturate", ph, us, "us")
        m[f"control.saturate_clip_ratio_{ph}"] = _ratio(
            spans.value_sum("control.saturate", ph),
            spans.calls("control.saturate", ph), 1.0, "1",
            f"no call to control.saturate in {ph}")
        m[f"vehicle.realized_wrench_us_{ph}"] = _per_call(
            spans, "vehicle.realized_wrench", ph, us, "us")
        m[f"vehicle.step_6dof_self_us_{ph}"] = _per_call(
            spans, "vehicle.step_6dof", ph, us, "us", own=True)
        m[f"vehicle.run_scenario_self_us_per_tick_{ph}"] = _ratio(
            spans.total_s("vehicle.run_scenario", ph, own=True), ticks,
            us, "us/tick", no_ticks)
        m[f"vehicle.write_csv_us_per_row_{ph}"] = _ratio(
            spans.total_s("vehicle.write_csv", ph),
            spans.value_sum("vehicle.write_csv", ph), us, "us/row",
            f"no call to vehicle.write_csv in {ph}")
        m[f"kernels.rigid_step_us_{ph}"] = _per_call(
            spans, "kernels.rigid_step", ph, us, "us")
        m[f"kernels.rigid_step_calls_{ph}"] = _count(
            spans, "kernels.rigid_step", ph)
        m[f"quat.rotate_calls_per_tick_{ph}"] = _ratio(
            spans.calls("quat.rotate", ph), ticks, 1.0, "calls/tick",
            no_ticks)
        m[f"quat.rotate_us_per_tick_{ph}"] = _ratio(
            spans.total_s("quat.rotate", ph), ticks, us, "us/tick",
            no_ticks)
        m[f"analysis.load_scenario_ms_{ph}"] = _per_call(
            spans, "analysis.load_scenario", ph, ms, "ms")

    for variant in ("coupled", "decoupled"):
        name = f"kernels.splm_{variant}"
        m[f"kernels.splm_us_per_step_{variant}"] = _ratio(
            spans.total_s(name), spans.value_sum(name), us, "us/step",
            f"no call to kernels.splm_trajectory ({variant})")
    steps = int(spans.value_sum("kernels.splm_coupled")
                + spans.value_sum("kernels.splm_decoupled"))
    m["kernels.splm_steps"] = (steps or None, "count",
                               None if steps else "no splm step")
    for variant in ("coupled", "decoupled"):
        m[f"rotor.steady_state_ms_{variant}"] = _per_call(
            spans, f"rotor.steady_state_{variant}", None, ms, "ms")
    m["rotor.bench_self_ms"] = _per_call(
        spans, "rotor.bench_torque_series", None, ms, "ms", own=True)
    m["analysis.mean_subtract_ms"] = _per_call(
        spans, "analysis.mean_subtract", None, ms, "ms")
    m["analysis.psd_ms"] = _per_call(spans, "analysis.psd", None, ms, "ms")

    m["propulsion.solve_rpm_calls"] = _count(spans, "propulsion.solve_rpm")
    m["propulsion.solve_rpm_us"] = _per_call(
        spans, "propulsion.solve_rpm", None, us, "us")
    return m
