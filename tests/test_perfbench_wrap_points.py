"""The benchmark's wrap points still exist and see what they expect.

perfbench/layers.py times the program by replacing module attributes
with recording wrappers; a wrap point the program no longer has is only
noted, so a rename or deletion in the program would leave the traced
benchmark silently short of figures. This test installs the wrappers on
the real modules, runs one small rotor integration and two short
closed-loop runs through them and puts everything back. A closed-loop
path that bypassed a timed layer would leave the traced figures short.
"""

from pathlib import Path

import numpy as np
import pytest

from coaxtail import kernels, rotor, vehicle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrap_point_exists_and_the_rotor_kernel_is_seen(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        assert tracer.missing == []
        params = rotor.SplmParams(variant="coupled")
        n_steps = 40
        rotor.integrate(params, np.zeros(6), 0.05, n_steps,
                        np.full(2 * n_steps + 1, 900.0))
    finally:
        tracer.uninstall()
    table = tracer.table()
    # layers.py labels the span from splm_trajectory's args[7] (coupled)
    # and stores args[1] (n_steps) as its value
    assert table.calls("kernels.splm_coupled") == 1
    assert table.calls("kernels.splm_decoupled") == 0
    assert table.value_sum("kernels.splm_coupled") == n_steps
    assert not hasattr(kernels.splm_trajectory, "__wrapped__")


@pytest.mark.parametrize("mode", ["hover", "transition"])
def test_every_closed_loop_tick_passes_each_timed_layer(monkeypatch, mode):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    tracer = spans.Tracer()
    spec = vehicle.ScenarioSpec(name=mode, mode=mode, duration=0.2)
    try:
        layers.install(tracer)
        tracer.set_phase(mode)
        log = vehicle.run_scenario(spec, vehicle.VehicleParams())
    finally:
        tracer.uninstall()
    table = tracer.table()
    ticks = log.t.size
    assert ticks == 200
    assert table.calls("vehicle.run_scenario", mode) == 1
    for name in ("control.cascade_step", "control.saturate",
                 "vehicle.realized_wrench", "vehicle.step_6dof",
                 "kernels.rigid_step"):
        assert table.calls(name, mode) == ticks, name
    # every tick rotates through the timed name at least three times (the
    # pitch measurement, the body-frame airflow and the thrust axis), and
    # the attitude ticks once more for the tilt
    assert table.calls("quat.rotate", mode) >= 3 * ticks
    # step_6dof's self time is its span minus the kernel's
    kernel = table.name == table.names.index("kernels.rigid_step")
    assert np.all(table.name[table.parent[kernel]]
                  == table.names.index("vehicle.step_6dof"))
