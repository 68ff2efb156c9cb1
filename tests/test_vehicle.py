"""Closed-loop 6-DOF simulation: integrator physics, force model, scenarios."""

import copy
import math
import pickle

import numpy as np
import pytest

from coaxtail import kernels, quat
from coaxtail.aero import TandemConfig, WingMode, WingPanel
from coaxtail.control import ActuatorCommand, ActuatorLimits
from coaxtail.errors import ConfigError, SimulationFault
from coaxtail.propulsion import PropellerTable
from coaxtail.vehicle import (
    LOG_COLUMNS,
    LambdaSchedule,
    ScenarioSpec,
    SimLog,
    VehicleParams,
    VehicleState,
    WindProfile,
    WingSchedule,
    _drag_body,
    _panel_cn,
    _wing_wrench,
    measured_pitch,
    realized_wrench,
    run_scenario,
    step_6dof,
    transition_profile,
)

RHO = 1.225


def resting_state(z=2.0):
    return VehicleState.at_rest(np.array([0.0, 0.0, z]))


def moving_state(velocity, z=2.0):
    """Level attitude at (0, 0, z), no spin, the given world velocity."""
    return VehicleState(position=np.array([0.0, 0.0, z]), velocity=velocity,
                        orientation=np.array([1.0, 0.0, 0.0, 0.0]),
                        body_rate=np.zeros(3))


def pitched_quat(theta):
    return quat.from_axis_angle(np.array([0.0, 1.0, 0.0]), theta)


class TestRigidStep:
    def test_free_fall_matches_analytic(self):
        params = VehicleParams()
        state = resting_state(z=100.0)
        dt = 1e-3
        for _ in range(1000):
            state = step_6dof(state, np.zeros(3), np.zeros(3), params, dt)
        t = 1.0
        assert state.velocity[2] == pytest.approx(-9.81 * t, abs=1e-9)
        assert state.position[2] == pytest.approx(100.0 - 0.5 * 9.81 * t * t,
                                                  abs=1e-9)
        assert np.allclose(state.orientation, [1, 0, 0, 0], atol=1e-12)

    def test_free_body_coasts(self):
        """No force and no gravity: translation and spin are untouched for
        10 s of integration."""
        params = VehicleParams(gravity=0.0)
        state = VehicleState(
            position=np.zeros(3), velocity=np.array([1.0, -2.0, 0.5]),
            orientation=np.array([1.0, 0.0, 0.0, 0.0]),
            body_rate=np.array([0.0, 0.0, 1.3]))  # principal axis spin
        for _ in range(10000):
            state = step_6dof(state, np.zeros(3), np.zeros(3), params, 1e-3)
        assert np.allclose(state.velocity, [1.0, -2.0, 0.5], atol=1e-12)
        assert np.allclose(state.body_rate, [0.0, 0.0, 1.3], atol=1e-12)

    def test_weight_balanced_by_body_thrust(self):
        params = VehicleParams()
        state = resting_state()
        hold = np.array([0.0, 0.0, params.mass * params.gravity])
        for _ in range(500):
            state = step_6dof(state, hold, np.zeros(3), params, 1e-3)
        assert np.allclose(state.position, [0, 0, 2.0], atol=1e-12)
        assert np.allclose(state.velocity, 0.0, atol=1e-12)

    def test_dt_bounds_enforced(self):
        params = VehicleParams()
        state = resting_state()
        for dt in (0.0, -1e-3, 2e-3):
            with pytest.raises(ConfigError):
                step_6dof(state, np.zeros(3), np.zeros(3), params, dt)

    def test_nonfinite_inputs_fault(self):
        params = VehicleParams()
        state = resting_state()
        with pytest.raises(SimulationFault):
            step_6dof(state, np.array([np.nan, 0, 0]), np.zeros(3), params,
                      1e-3)
        with pytest.raises(SimulationFault):
            step_6dof(state, np.zeros(3), np.array([0, np.inf, 0]), params,
                      1e-3)

    def test_state_validation(self):
        with pytest.raises(SimulationFault):
            VehicleState(position=np.zeros(3), velocity=np.zeros(3),
                         orientation=np.array([1.0, 0.0, 0.1, 0.0]),
                         body_rate=np.zeros(3))
        with pytest.raises(SimulationFault):
            VehicleState(position=np.array([np.nan, 0, 0]),
                         velocity=np.zeros(3),
                         orientation=np.array([1.0, 0, 0, 0]),
                         body_rate=np.zeros(3))
        y = np.array(resting_state())
        for bad in (np.inf, np.nan):
            y_bad = y.copy()
            y_bad[11] = bad
            with pytest.raises(SimulationFault):
                VehicleState(y=y_bad)
        y_bad = y.copy()
        y_bad[6] = 0.5
        with pytest.raises(SimulationFault):
            VehicleState(y=y_bad)
        with pytest.raises(ConfigError):
            VehicleState(y=y[:12])
        with pytest.raises(ConfigError):
            VehicleState(position=np.zeros(4), velocity=np.zeros(2),
                         orientation=np.array([1.0, 0, 0, 0]),
                         body_rate=np.zeros(3))
        with pytest.raises(ConfigError):
            VehicleState(position=np.zeros(3), y=y)

    def test_state_is_an_immutable_tuple_of_floats(self):
        y = np.arange(13.0)
        y[6:10] = [0.0, 0.6, 0.0, 0.8]
        state = VehicleState(y=y)
        y[0] = 99.0  # a later write to the caller's array
        assert type(state) is VehicleState and isinstance(state, tuple)
        assert len(state) == 13 and all(type(v) is float for v in state)
        assert state.position == (0.0, 1.0, 2.0)
        assert state.velocity == (3.0, 4.0, 5.0)
        assert state.orientation == (0.0, 0.6, 0.0, 0.8)
        assert state.body_rate == (10.0, 11.0, 12.0)
        with pytest.raises(TypeError):
            state[0] = 1.0
        with pytest.raises(AttributeError):
            state.position = (0.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            state.wing_mode = WingMode.EXTENDED
        parts = VehicleState(position=state.position,
                             velocity=state.velocity,
                             orientation=state.orientation,
                             body_rate=state.body_rate)
        assert parts == state
        # copy and pickle rebuild it through the validating constructor
        for copied in (copy.deepcopy(state),
                       pickle.loads(pickle.dumps(state))):
            assert type(copied) is VehicleState and copied == state

    def test_step_validates_the_kernel_result(self):
        params = VehicleParams()
        state = resting_state()
        nxt = step_6dof(state, (0.0, 0.0, 5.0), [0.0, 0.0, 0.0], params, 1e-3)
        assert type(nxt) is VehicleState
        # a torque whose body-rate change overflows makes the result inf
        with pytest.raises(SimulationFault, match="non-finite vehicle state"):
            step_6dof(state, (0.0, 0.0, 0.0), (1e308, 0.0, 0.0), params,
                      1e-3)

    def test_step_returns_the_kernel_floats(self):
        """200 random states: step_6dof returns a VehicleState of 13
        Python floats, bit-equal (sign bits included) to the rigid-step
        kernel's result on the same inputs."""
        params = VehicleParams()
        rng = np.random.default_rng(41)
        for case in range(200):
            q = rng.normal(size=4)
            y = np.concatenate((rng.normal(size=3) * 10.0,
                                rng.normal(size=3) * 5.0,
                                q / np.linalg.norm(q),
                                rng.normal(size=3) * 3.0))
            if case % 4 == 0:
                # signed zeros in position, velocity and body rate
                for i in rng.choice([0, 1, 2, 3, 4, 5, 10, 11, 12], 4,
                                    replace=False):
                    y[i] = rng.choice([0.0, -0.0])
            if case % 10 == 0:
                y[6:10] = (1.0, -0.0, 0.0, -0.0)
            state = VehicleState(y=y)
            force = (rng.normal(size=3) * 10.0).tolist()
            torque = (rng.normal(size=3) * 0.1).tolist()
            dt = float(rng.choice([1e-3, 5e-4]))
            got = step_6dof(state, force, torque, params, dt)
            want = kernels.rigid_step(
                y.tolist(), force, torque, params.mass,
                params.inertia.tolist(),
                np.linalg.inv(params.inertia).tolist(),
                (0.0, 0.0, -params.gravity), dt)
            assert type(got) is VehicleState and len(got) == 13
            assert all(type(v) is float for v in got)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_step_faults(self, monkeypatch):
        params = VehicleParams()
        state = resting_state()
        zero = (0.0, 0.0, 0.0)
        cases = (
            ((math.nan, 0.0, 0.0), zero, "non-finite force or torque input"),
            (zero, (0.0, math.inf, 0.0), "non-finite force or torque input"),
            # a body-rate change that overflows makes the result inf
            (zero, (1e308, 0.0, 0.0), "non-finite vehicle state"),
        )
        for force, torque, message in cases:
            with pytest.raises(SimulationFault, match=f"^{message}$"):
                step_6dof(state, force, torque, params, 1e-3)
        rigid_step = kernels.rigid_step

        def off_the_unit_sphere(y, *args):
            out = list(rigid_step(y, *args))
            out[6] *= 1.5
            return tuple(out)

        monkeypatch.setattr(kernels, "rigid_step", off_the_unit_sphere)
        with pytest.raises(SimulationFault,
                           match="^orientation quaternion not normalized$"):
            step_6dof(state, zero, zero, params, 1e-3)

    def test_params_validation(self):
        for name in ("mass", "drag_cd", "lateral_area", "axial_area",
                     "elevon_q_ref", "aft_speed_per_count", "gravity"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError, match=name):
                    VehicleParams(**{name: bad})
        inertia = np.diag([0.02, 0.025, np.nan])
        with pytest.raises(ConfigError, match="inertia"):
            VehicleParams(inertia=inertia)
        with pytest.raises(ConfigError):
            VehicleParams(mass=0.0)

    def test_params_inertia_is_a_read_only_copy(self):
        given = np.diag([0.02, 0.025, 0.01])
        params = VehicleParams(inertia=given)
        given[0, 0] = 1.0
        assert params.inertia[0, 0] == 0.02
        with pytest.raises(ValueError):
            params.inertia[1, 1] = 1.0

    def test_torque_free_tumble_conserves_invariants(self):
        """Asymmetric-inertia tumble: rotational energy and the world-frame
        angular momentum vector must survive 10 s of RK4, and the fall is
        exactly ballistic."""
        params = VehicleParams()
        inertia = params.inertia
        state = VehicleState(
            position=np.zeros(3), velocity=np.array([3.0, 1.0, 2.0]),
            orientation=np.array([1.0, 0.0, 0.0, 0.0]),
            body_rate=np.array([2.0, -1.5, 3.0]))

        def invariants(s):
            e_rot = 0.5 * float(s.body_rate @ inertia @ s.body_rate)
            l_world = np.array(quat.rotate(s.orientation,
                                           inertia @ s.body_rate))
            return e_rot, l_world

        e0, l0 = invariants(state)
        dt = 1e-3
        for _ in range(10000):
            state = step_6dof(state, np.zeros(3), np.zeros(3), params, dt)
        e1, l1 = invariants(state)
        assert abs(e1 - e0) / e0 < 1e-6
        assert np.linalg.norm(l1 - l0) / np.linalg.norm(l0) < 1e-6
        assert abs(np.linalg.norm(state.orientation) - 1.0) < 1e-9
        assert state.velocity[0] == pytest.approx(3.0, abs=1e-9)
        assert state.velocity[2] == pytest.approx(2.0 - 9.81 * 10.0, abs=1e-6)

    def test_step_is_deterministic(self):
        params = VehicleParams()
        state = VehicleState(
            position=np.array([1.0, 2.0, 3.0]),
            velocity=np.array([0.3, -0.2, 0.1]),
            orientation=quat.from_axis_angle(np.array([1.0, 1.0, 0.0])
                                             / math.sqrt(2.0), 0.4),
            body_rate=np.array([0.5, 0.2, -0.7]))
        f = np.array([0.1, -0.2, 11.0])
        tau = np.array([0.01, 0.02, -0.005])
        a = step_6dof(state, f, tau, params, 1e-3)
        b = step_6dof(state, f, tau, params, 1e-3)
        for name in ("position", "velocity", "orientation", "body_rate"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_halving_dt_changes_little(self):
        # RK4 is O(dt^4); one tumbling second at 1 ms vs 0.5 ms
        params = VehicleParams()
        def run(dt):
            s = VehicleState(
                position=np.zeros(3), velocity=np.array([1.0, 0.0, 0.0]),
                orientation=np.array([1.0, 0.0, 0.0, 0.0]),
                body_rate=np.array([2.0, -1.5, 3.0]))
            for _ in range(int(round(1.0 / dt))):
                s = step_6dof(s, np.zeros(3), np.zeros(3), params, dt)
            return s
        a, b = run(1e-3), run(5e-4)
        assert np.allclose(a.orientation, b.orientation, atol=1e-9)
        assert np.allclose(a.position, b.position, atol=1e-9)


class TestMeasuredPitch:
    def test_identity_is_level(self):
        assert measured_pitch(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0

    def test_pure_pitch_recovered(self):
        for theta in (-1.2, -0.5, 0.0, 0.3):
            assert measured_pitch(pitched_quat(theta)) == pytest.approx(
                theta, abs=1e-12)

    def test_body_yaw_does_not_register(self):
        q = quat.multiply(pitched_quat(-0.8),
                          quat.from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.4))
        assert measured_pitch(q) == pytest.approx(-0.8, abs=1e-12)

    def test_matches_array_reference_bit_for_bit(self):
        """measured_pitch runs on Python floats; it must equal the numpy
        form (rotate body +z as arrays, clip, asin), signed zeros and the
        clipped range of a non-unit quaternion included."""

        def reference(q):
            w, x, y, z = np.asarray(q, dtype=float)
            v = np.array([0.0, 0.0, 1.0])
            t = 2.0 * np.array([y * v[2] - z * v[1], z * v[0] - x * v[2],
                                x * v[1] - y * v[0]])
            z_w = v + w * t + np.array([y * t[2] - z * t[1],
                                        z * t[0] - x * t[2],
                                        x * t[1] - y * t[0]])
            return math.asin(min(1.0, max(-1.0, float(z_w[0]))))

        rng = np.random.default_rng(31)
        clipped = 0
        for case in range(2000):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            if case % 4 == 0:
                q[rng.integers(4)] = rng.choice([0.0, -0.0])
            if case % 6 == 0:  # two zeros: the pitch itself can be -0.0
                q[rng.choice(4, 2, replace=False)] = rng.choice([0.0, -0.0],
                                                               2)
            if case % 5 == 0:
                q *= rng.uniform(1.0, 2.0)
            want = reference(q)
            clipped += abs(want) == math.pi / 2
            for arg in (q, q.tolist()):
                got = measured_pitch(arg)
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert clipped > 10


def quadratic_drag(v_rel, area, cd, rho):
    """The plain quadratic drag formula 0.5*rho*Cd*A*|v_rel|*v_rel, with
    v_rel the air velocity relative to the body."""
    v_rel = np.asarray(v_rel, dtype=float)
    return 0.5 * rho * cd * area * np.linalg.norm(v_rel) * v_rel


class TestWindForce:
    """The body drag model _drag_body against the quadratic formula.

    _drag_body takes the body's velocity through the air, (ux, uy, uz);
    the air velocity relative to the body is its negative.
    """

    LATERAL, AXIAL = 0.05, 0.02

    def drag(self, u, cd=1.0):
        return np.array(_drag_body(*u, self.LATERAL, self.AXIAL, cd, RHO))

    def test_quadratic_oracle(self):
        # pure crossflow sees the lateral area, pure axial flow the axial
        for u, area in (((5.0, 0.0, 0.0), self.LATERAL),
                        ((0.0, -3.0, 0.0), self.LATERAL),
                        ((0.0, 0.0, 7.0), self.AXIAL),
                        ((0.0, 0.0, -2.5), self.AXIAL)):
            want = quadratic_drag(-np.array(u), area, 1.3, RHO)
            assert self.drag(u, cd=1.3) == pytest.approx(want, rel=1e-12)
        f = self.drag((5.0, 0.0, 0.0))
        assert f[0] == pytest.approx(-0.5 * RHO * self.LATERAL * 25.0,
                                     rel=1e-12)
        assert f[1] == 0.0 and f[2] == 0.0

    def test_quadratic_in_speed_linear_in_area(self):
        base = _drag_body(4.0, 0.0, 0.0, 0.05, 0.02, 1.0, RHO)
        double_v = _drag_body(8.0, 0.0, 0.0, 0.05, 0.02, 1.0, RHO)
        double_a = _drag_body(4.0, 0.0, 0.0, 0.10, 0.02, 1.0, RHO)
        assert double_v[0] == pytest.approx(4.0 * base[0], rel=1e-12)
        assert double_a[0] == pytest.approx(2.0 * base[0], rel=1e-12)

    def test_zero_relative_flow(self):
        # moving with the wind: no drag, whatever the body's velocity
        params = VehicleParams()
        state = moving_state(np.array([3.0, -2.0, 1.0]))
        still_air, _ = realized_wrench(state, params, ActuatorCommand(),
                                       np.zeros(3), WingMode.RETRACTED)
        with_wind, _ = realized_wrench(state, params, ActuatorCommand(),
                                       state.velocity,
                                       WingMode.RETRACTED)
        assert np.all(np.array(with_wind) == 0.0)
        assert np.all(np.array(still_air) != 0.0)


class TestTransitionProfile:
    def test_exact_breakpoints(self):
        assert transition_profile(0.0) == math.radians(-10.0)
        assert transition_profile(1.999) == math.radians(-10.0)
        assert transition_profile(12.0) == pytest.approx(math.radians(-45.0),
                                                         abs=1e-12)
        assert transition_profile(22.0) == math.radians(-80.0)
        assert transition_profile(42.0) == math.radians(-80.0)
        assert transition_profile(43.0) == pytest.approx(math.radians(-40.0),
                                                         abs=1e-12)
        assert transition_profile(44.0) == 0.0
        assert transition_profile(50.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            transition_profile(-0.1)

    def test_ramp_is_monotone(self):
        ts = np.linspace(2.0, 22.0, 400)
        vals = [transition_profile(float(t)) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestWindProfile:
    def test_ramp_envelope(self):
        w = WindProfile(speed=5.0, direction=(1.0, 0.0, 0.0), start=2.0,
                        ramp=0.5)
        assert w.vector(1.99) == (0.0, 0.0, 0.0)
        assert w.vector(2.25)[0] == pytest.approx(2.5, rel=1e-12)
        assert w.vector(3.0)[0] == pytest.approx(5.0, rel=1e-12)

    def test_stop_ramps_back_down(self):
        w = WindProfile(speed=4.0, direction=(0.0, 1.0, 0.0), start=0.0,
                        stop=5.0, ramp=0.5)
        assert w.vector(4.9)[1] == pytest.approx(4.0, rel=1e-12)
        assert w.vector(5.25)[1] == pytest.approx(2.0, rel=1e-12)
        assert w.vector(6.0) == (0.0, 0.0, 0.0)

    def test_stop_during_the_ramp_in_does_not_jump(self):
        """A wind that stops before its ramp-in ends ramps out from the
        level it reached: it follows the lesser of the two edges."""
        w = WindProfile(speed=5.0, start=2.0, stop=2.1, ramp=0.5)
        assert w.vector(2.099)[0] == pytest.approx(0.99, rel=1e-12)
        assert w.vector(2.1)[0] == pytest.approx(1.0, rel=1e-12)
        for t in np.linspace(2.0, 3.0, 1001).tolist():
            edges = min((t - 2.0) / 0.5, 1.0 - (t - 2.1) / 0.5)
            assert w.vector(t)[0] == pytest.approx(
                5.0 * max(0.0, edges), abs=1e-12)
        assert w.vector(2.6) == (0.0, 0.0, 0.0)

    def test_late_stop_keeps_the_plain_ramp_out(self):
        """When stop comes at or after the ramp-in ends, the wind after
        stop is exactly the plain ramp-out edge, speed * (1 - (t - stop)
        / ramp) clipped at zero."""
        for stop in (2.5, 3.0, 7.25):
            w = WindProfile(speed=5.0, start=2.0, stop=stop, ramp=0.5)
            for t in np.linspace(stop, stop + 1.0, 401).tolist():
                want = 5.0 * max(0.0, 1.0 - (t - stop) / 0.5)
                assert w.vector(t) == (want, 0.0, 0.0), (stop, t)

    def test_zero_ramp_steps_on_and_off(self):
        w = WindProfile(speed=3.0, direction=(0.0, 0.0, 1.0), start=1.0,
                        stop=2.0, ramp=0.0)
        assert w.vector(0.999) == (0.0, 0.0, 0.0)
        assert w.vector(1.0) == (0.0, 0.0, 3.0)
        assert w.vector(1.999) == (0.0, 0.0, 3.0)
        assert w.vector(2.0) == (0.0, 0.0, 0.0)
        assert w.vector(5.0) == (0.0, 0.0, 0.0)

    def test_stop_must_follow_start(self):
        for stop in (1.9, 2.0):
            with pytest.raises(ConfigError, match="stop must come after"):
                WindProfile(speed=5.0, start=2.0, stop=stop, ramp=0.5)

    def test_float_form_matches_the_array_form(self):
        w = WindProfile(speed=5.0, direction=(3.0, -0.0, -4.0), start=1.0,
                        stop=3.0, ramp=0.5)
        assert all(type(c) is float for c in w.direction)
        for t in np.linspace(0.0, 4.0, 161).tolist():
            got = w.vector(t)
            assert type(got) is tuple and all(type(c) is float for c in got)
            # the array formula the wind was first computed with
            if t < w.start:
                want = np.zeros(3)
            else:
                up = min(1.0, (t - w.start) / w.ramp)
                if t >= w.stop:
                    up = max(0.0, 1.0 - (t - w.stop) / w.ramp)
                want = w.speed * up * np.asarray(w.direction)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_direction_normalized(self):
        w = WindProfile(speed=2.0, direction=(3.0, 4.0, 0.0))
        assert np.linalg.norm(w.direction) == pytest.approx(1.0, rel=1e-12)
        assert w.vector(10.0)[0] == pytest.approx(1.2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            WindProfile(speed=-1.0)
        with pytest.raises(ConfigError):
            WindProfile(speed=1.0, direction=(0.0, 0.0, 0.0))
        for bad in (math.nan, math.inf):
            for kwargs in ({"speed": bad}, {"start": bad}, {"stop": bad},
                           {"ramp": bad},
                           {"speed": 1.0, "direction": (bad, 0.0, 0.0)}):
                with pytest.raises(ConfigError):
                    WindProfile(**kwargs)
        with pytest.raises(ConfigError):
            WindProfile(speed=1.0, direction=(1.0, 0.0))


class TestSchedules:
    def test_fixed_wing_schedule(self):
        s = WingSchedule(kind="fixed", mode=WingMode.EXTENDED)
        assert s.mode_at(0.0) is WingMode.EXTENDED
        assert s.mode_at(-1.5) is WingMode.EXTENDED

    def test_pitch_wing_schedule_threshold(self):
        s = WingSchedule(kind="pitch", extend_below=math.radians(-20.0))
        assert s.mode_at(math.radians(-19.9)) is WingMode.RETRACTED
        assert s.mode_at(math.radians(-20.1)) is WingMode.EXTENDED
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                WingSchedule(kind="pitch", extend_below=bad)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            WingSchedule(kind="sometimes")

    def test_mode_text_becomes_the_enum(self):
        """A mode given as its text is the WingMode member: the run applies
        that mode's forces, logs its code and names it in the config."""
        for mode in WingMode:
            s = WingSchedule(kind="fixed", mode=mode.value)
            assert s.mode is mode and s.mode_at(-1.5) is mode
            log = run_scenario(ScenarioSpec(duration=0.01, wing=s),
                               VehicleParams())
            code = 1 if mode is WingMode.EXTENDED else 0
            assert np.all(log.mode == code)
            assert log.config["wing_schedule"] == f"fixed:{mode.value}"
        for bad in ("RETRACTED", "folded", 0, None, [1]):
            with pytest.raises(ConfigError, match="wing mode"):
                WingSchedule(kind="fixed", mode=bad)

    def test_lambda_blend(self):
        lam = LambdaSchedule()
        assert lam.value(0.0) == 1.0
        assert lam.value(math.radians(-30.0)) == 1.0
        assert lam.value(math.radians(-50.0)) == pytest.approx(0.65,
                                                               rel=1e-12)
        assert lam.value(math.radians(-70.0)) == pytest.approx(0.3, rel=1e-12)
        assert lam.value(math.radians(-85.0)) == pytest.approx(0.3, rel=1e-12)
        grid = np.linspace(0.2, -1.5, 300)
        vals = [lam.value(p) for p in grid]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_lambda_validation(self):
        with pytest.raises(ConfigError):
            LambdaSchedule(lam_hover=1.2)
        with pytest.raises(ConfigError):
            LambdaSchedule(pitch_start=-1.0, pitch_end=-0.5)
        for bad in (math.nan, math.inf, -math.inf):
            for name in ("lam_hover", "lam_fw", "pitch_start", "pitch_end"):
                with pytest.raises(ConfigError):
                    LambdaSchedule(**{name: bad})


class TestWingWrench:
    def tandem(self):
        return VehicleParams().tandem

    def test_retracted_is_exactly_zero(self):
        fx, ty = _wing_wrench(np.array([-8.0, 0.0, 3.0]), self.tandem(),
                              WingMode.RETRACTED)
        assert fx == 0.0 and ty == 0.0

    def test_linear_range_matches_static_model(self):
        """Pure axial inflow puts each panel at its incidence angle, where
        the coefficient is the plain lift line used by the static tool."""
        tandem = self.tandem()
        v = 12.0
        fx, ty = _wing_wrench(np.array([0.0, 0.0, v]), tandem,
                              WingMode.EXTENDED)
        q = 0.5 * RHO * v * v
        f_front = q * 0.048 * (2.2 * math.radians(4.5) + 0.32)
        f_rear = q * 0.056 * (2.2 * math.radians(2.0) + 0.32)
        assert fx == pytest.approx(f_front + f_rear, rel=1e-12)
        assert ty == pytest.approx(0.24 * f_front - 0.30 * f_rear, rel=1e-12)

    def test_spanwise_flow_produces_nothing(self):
        fx, ty = _wing_wrench(np.array([0.0, 25.0, 0.0]), self.tandem(),
                              WingMode.EXTENDED)
        assert fx == 0.0 and ty == 0.0

    def test_pure_crossflow_pushes_downwind(self):
        # alpha near +90 deg: post-stall plate force, directed along +x
        fx, _ = _wing_wrench(np.array([-6.0, 0.0, 0.0]), self.tandem(),
                             WingMode.EXTENDED)
        q = 0.5 * RHO * 36.0
        expected = q * (0.048 * 1.2 * math.sin(math.pi / 2
                                               + math.radians(4.5))
                        + 0.056 * 1.2 * math.sin(math.pi / 2
                                                 + math.radians(2.0)))
        assert fx == pytest.approx(expected, rel=1e-12)
        assert fx > 0.0

    def test_coefficient_is_continuous(self):
        panel = self.tandem().front
        grid = np.radians(np.arange(-180.0, 180.01, 0.05))
        vals = np.array([_panel_cn(panel, float(a)) for a in grid])
        assert np.max(np.abs(np.diff(vals))) < 3e-3
        assert np.max(np.abs(vals)) < 1.35

    def test_coefficient_matches_lift_line_in_range(self):
        panel = self.tandem().front
        for deg in (-5.0, -2.0, 0.0, 4.0, 10.0):
            a = math.radians(deg)
            assert _panel_cn(panel, a) == panel.lift_slope * a + panel.cl0


class TestDragAndWrench:
    def test_per_axis_drag_signs(self):
        f = _drag_body(3.0, -2.0, 1.0, 0.05, 0.02, 1.0, RHO)
        assert f[0] == pytest.approx(-0.5 * RHO * 0.05 * 9.0, rel=1e-12)
        assert f[1] == pytest.approx(+0.5 * RHO * 0.05 * 4.0, rel=1e-12)
        assert f[2] == pytest.approx(-0.5 * RHO * 0.02 * 1.0, rel=1e-12)
        assert np.all(np.array(_drag_body(0.0, 0.0, 0.0, 0.05, 0.02, 1.0,
                                          RHO)) == 0.0)

    def test_static_thrust_and_torque_maps(self):
        params = VehicleParams()
        cmd = ActuatorCommand(t_d1=600.0, t_d2=900.0, m_dx=50.0, m_dy=-80.0,
                              d_1=0.2, d_2=0.1)
        force, torque = realized_wrench(resting_state(), params, cmd,
                                        np.zeros(3), WingMode.RETRACTED)
        a = params.alloc
        assert force[2] == pytest.approx(a.c_t1 * 600 + a.c_t2 * 900,
                                         rel=1e-12)
        assert force[0] == 0.0 and force[1] == 0.0
        assert torque[0] == pytest.approx(a.c_m * 50.0, rel=1e-12)
        # elevons see zero dynamic pressure at rest, so only modulation
        assert torque[1] == pytest.approx(a.c_m * -80.0, rel=1e-12)
        assert torque[2] == pytest.approx(-a.k_t1 * 600 + a.k_t2 * 900,
                                          rel=1e-12)

    def test_elevons_reach_nominal_authority_at_reference_speed(self):
        params = VehicleParams()
        state = moving_state(np.array([0.0, 0.0, -15.6]))  # q matches q_ref
        cmd = ActuatorCommand(d_1=0.3, d_2=-0.1)
        _, torque = realized_wrench(state, params, cmd, np.zeros(3),
                                    WingMode.RETRACTED)
        assert torque[1] == pytest.approx(params.alloc.k_ey * 0.2, rel=1e-9)
        assert torque[2] == pytest.approx(params.alloc.k_ez * 0.4, rel=1e-9)

    def test_descending_drag_opposes_motion(self):
        params = VehicleParams()
        state = moving_state(np.array([0.0, 0.0, -10.0]))
        force, _ = realized_wrench(state, params, ActuatorCommand(),
                                   np.zeros(3), WingMode.RETRACTED)
        expected = 0.5 * RHO * params.drag_cd * params.axial_area * 100.0
        assert force[2] == pytest.approx(expected, rel=1e-12)

    def test_aft_table_thrust(self):
        """A constant-coefficient table makes the aft rotor quadratic in
        commanded speed regardless of inflow."""
        table = PropellerTable.single(diameter=0.1778, j=np.array([0.5]),
                                      ct=np.array([0.09]),
                                      cp=np.array([0.05]))
        params = VehicleParams(aft_table=table, aft_speed_per_count=0.2)
        cmd = ActuatorCommand(t_d2=800.0)
        force, _ = realized_wrench(resting_state(), params, cmd, np.zeros(3),
                                   WingMode.RETRACTED)
        n = 0.2 * 800.0
        assert force[2] == pytest.approx(0.09 * RHO * n * n * 0.1778 ** 4,
                                         rel=1e-12)
        zero, _ = realized_wrench(resting_state(), params, ActuatorCommand(),
                                  np.zeros(3), WingMode.RETRACTED)
        assert zero[2] == 0.0


class TestDragOnlyDescent:
    def test_terminal_speed_bounded_and_monotone(self):
        """Free fall with quadratic drag: speed rises monotonically toward
        sqrt(2 m g / (rho Cd A)) and never exceeds it."""
        params = VehicleParams()
        v_t = math.sqrt(2.0 * params.mass * params.gravity
                        / (RHO * params.drag_cd * params.axial_area))
        state = resting_state(z=0.0)
        speeds = []
        for _ in range(12000):
            u = state.velocity  # identity attitude, body equals world
            drag = _drag_body(*u, params.lateral_area, params.axial_area,
                              params.drag_cd, RHO)
            state = step_6dof(state, drag, np.zeros(3), params, 1e-3)
            speeds.append(-state.velocity[2])
        speeds = np.array(speeds)
        assert np.all(np.diff(speeds) > 0.0)
        assert np.all(speeds < v_t)
        assert speeds[-1] == pytest.approx(v_t, rel=0.02)


def hover_spec(duration=8.0, **kw):
    return ScenarioSpec(name="hover", mode="hover", duration=duration,
                        position=(0.0, 0.0, 1.5),
                        start_position=(0.1, -0.1, 1.3), **kw)


def wind_spec(mode, duration=12.0, speed=5.0):
    return ScenarioSpec(
        name=f"wind_{mode.value}", mode="hover", duration=duration,
        position=(0.0, 0.0, 1.5),
        wind=WindProfile(speed=speed, direction=(1.0, 0.0, 0.0), start=2.0),
        wing=WingSchedule(kind="fixed", mode=mode))


class TestScenarios:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(mode="loiter")
        with pytest.raises(ConfigError):
            ScenarioSpec(duration=0.0)
        with pytest.raises(ConfigError):
            ScenarioSpec(dt=2e-3)
        with pytest.raises(ConfigError):
            ScenarioSpec(dt=3e-4)  # 1/dt not an integer rate
        with pytest.raises(ConfigError):
            ScenarioSpec(dt=5e-324)  # 1/dt overflows to inf
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                ScenarioSpec(duration=bad)
            with pytest.raises(ConfigError):
                ScenarioSpec(dt=bad)
            for kwargs in ({"yaw": bad}, {"position": (bad, 0.0, 1.5)},
                           {"start_position": (0.0, 0.0, bad)}):
                with pytest.raises(ConfigError):
                    ScenarioSpec(**kwargs)
        for bad in ((0.0, 1.5), None):
            with pytest.raises(ConfigError):
                ScenarioSpec(position=bad)
        assert ScenarioSpec(dt=5e-4).dt == 5e-4  # a 2 kHz tick

    def test_spec_positions_are_tuples_of_floats(self):
        """position and start_position are kept as tuples of floats, so a
        later write to the caller's array does not reach the spec."""
        source = np.array([0.5, -0.25, 2.0])
        spec = ScenarioSpec(position=source, start_position=[0, 1, 2])
        source[:] = 9.0
        assert spec.position == (0.5, -0.25, 2.0)
        assert spec.start_position == (0.0, 1.0, 2.0)
        for value in (spec.position, spec.start_position):
            assert type(value) is tuple
            assert all(type(c) is float for c in value)
        assert ScenarioSpec().start_position is None

    def test_spec_needs_one_tick(self):
        with pytest.raises(ConfigError, match="at least one tick"):
            ScenarioSpec(duration=4e-4)
        log = run_scenario(ScenarioSpec(duration=1e-3), VehicleParams())
        assert log.t.size == 1

    def test_saturation_is_logged(self):
        """The mixer's thrust-priority scale is kept per tick; a throttle
        ceiling just above the hover trim makes it clip."""
        spec = ScenarioSpec(name="tight", mode="hover", duration=2.0,
                            position=(0.0, 0.0, 1.5),
                            start_position=(0.3, -0.3, 1.2))
        free = run_scenario(spec, VehicleParams())
        assert free.sat_scale.shape == free.t.shape
        assert free.saturation() == (0.0, 1.0)
        tight = run_scenario(
            spec, VehicleParams(limits=ActuatorLimits(throttle_max=1100.0)))
        fraction, min_scale = tight.saturation()
        assert 0.0 < fraction < 1.0
        assert 0.0 <= min_scale < 1.0
        assert fraction == np.mean(tight.sat_scale < 1.0)

    def test_a_fault_names_its_tick(self, monkeypatch):
        rigid_step = kernels.rigid_step
        calls = []

        def diverges_at_tick_3(y, *args):
            calls.append(None)
            out = rigid_step(y, *args)
            return out if len(calls) < 4 else (math.nan,) + out[1:]

        monkeypatch.setattr(kernels, "rigid_step", diverges_at_tick_3)
        with pytest.raises(SimulationFault,
                           match=r"^tick 3 \(t=0\.003 s\): non-finite "
                                 r"vehicle state$"):
            run_scenario(ScenarioSpec(duration=0.01), VehicleParams())

    def test_hover_settles_to_setpoint(self):
        log = run_scenario(hover_spec(), VehicleParams())
        err = np.linalg.norm(log.position[-1] - np.array([0, 0, 1.5]))
        assert err < 0.01
        assert np.linalg.norm(log.velocity[-1]) < 0.01
        assert log.t.size == 8000
        assert log.t[-1] == pytest.approx(7.999, abs=1e-12)

    def test_hover_at_finer_step(self):
        spec = hover_spec(duration=2.0, dt=5e-4)
        log = run_scenario(spec, VehicleParams())
        assert log.t.size == 4000
        assert np.all(np.isfinite(log.state))

    def test_wind_retracted_beats_extended(self):
        params = VehicleParams()
        target = np.array([0.0, 0.0, 1.5])
        dev = {}
        for mode in (WingMode.EXTENDED, WingMode.RETRACTED):
            log = run_scenario(wind_spec(mode), params)
            dev[mode] = log.peak_deviation(target, t_min=2.0)
        assert dev[WingMode.RETRACTED] <= 0.5 * dev[WingMode.EXTENDED]

    def test_wind_deviation_grows_with_wing_area(self):
        target = np.array([0.0, 0.0, 1.5])
        devs = []
        for scale in (0.6, 1.0, 1.4):
            base = VehicleParams()
            tandem = TandemConfig(
                front=WingPanel(area=0.048 * scale, lift_slope=2.2, cl0=0.32,
                                incidence=math.radians(4.5), arm=0.24),
                rear=WingPanel(area=0.056 * scale, lift_slope=2.2, cl0=0.32,
                               incidence=math.radians(2.0), arm=0.30))
            params = VehicleParams(tandem=tandem)
            log = run_scenario(wind_spec(WingMode.EXTENDED, duration=8.0),
                               params)
            devs.append(log.peak_deviation(target, t_min=2.0))
        assert devs[0] < devs[1] < devs[2]

    def test_wind_peak_converged_in_dt(self):
        # halving the step moves the wind-scenario peak by under 1 %
        target = np.array([0.0, 0.0, 1.5])
        devs = []
        for dt in (1e-3, 5e-4):
            spec = ScenarioSpec(
                name="wind", mode="hover", duration=8.0, dt=dt,
                position=tuple(target),
                wind=WindProfile(speed=5.0, direction=(1.0, 0.0, 0.0),
                                 start=2.0),
                wing=WingSchedule(kind="fixed", mode=WingMode.EXTENDED))
            devs.append(run_scenario(spec, VehicleParams())
                        .peak_deviation(target, t_min=2.0))
        assert abs(devs[1] - devs[0]) / devs[0] < 0.01

    def test_transition_smoke_tracks_early_ramp(self):
        spec = ScenarioSpec(name="transition", mode="transition",
                            duration=10.0, position=(0.0, 0.0, 2.0),
                            wing=WingSchedule(kind="pitch"))
        log = run_scenario(spec, VehicleParams())
        pitch = log.pitch()
        sp = np.array([transition_profile(t) for t in log.t])
        tail = log.t >= 4.0
        err = np.degrees(pitch[tail] - sp[tail])
        assert np.max(np.abs(err)) < 2.0
        assert abs(log.position[-1, 2] - 2.0) < 0.5

    def test_fault_reports_tick_and_cause(self):
        spec = hover_spec(duration=2.0,
                          wind=WindProfile(speed=1e160,
                                           direction=(1.0, 0.0, 0.0)))
        with np.errstate(over="ignore"):
            with pytest.raises(SimulationFault, match=r"tick \d+"):
                run_scenario(spec, VehicleParams())


class TestSimLog:
    def write_twice(self, tmp_path):
        paths = []
        for i in range(2):
            log = run_scenario(hover_spec(duration=1.0), VehicleParams())
            p = tmp_path / f"run{i}.csv"
            log.write_csv(p)
            paths.append(p)
        return paths

    def test_runs_are_byte_identical(self, tmp_path):
        a, b = self.write_twice(tmp_path)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_layout(self, tmp_path):
        log = run_scenario(hover_spec(duration=0.5), VehicleParams())
        p = tmp_path / "log.csv"
        log.write_csv(p)
        lines = p.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("# ")]
        keys = [ln.split("=")[0] for ln in comments]
        assert keys == sorted(keys)
        assert any(ln.startswith("# aft_model = linear") for ln in comments)
        header = lines[len(comments)]
        assert header == SimLog.COLUMNS
        rows = lines[len(comments) + 1:]
        assert len(rows) == 500
        assert rows[0].split(",")[0] == "0"
        assert rows[0].split(",")[-2] == "retracted"

    def test_csv_header_has_no_area_keys(self, tmp_path):
        """No force reads a frontal area, so the header does not carry
        one."""
        log = run_scenario(hover_spec(duration=0.1), VehicleParams())
        p = tmp_path / "log.csv"
        log.write_csv(p)
        keys = {ln[2:].split(" = ")[0]
                for ln in p.read_text().splitlines() if ln.startswith("# ")}
        assert "aft_model" in keys
        assert not keys & {"frontal_area_m2", "frontal_area_extended",
                           "retracted_fraction"}

    def test_csv_matches_per_row_formatting(self, tmp_path):
        """write_csv formats row chunks with one format string; the
        bytes must equal a row-by-row f-string writer's, across a chunk
        boundary and for -0.0, tiny, huge and integral values."""
        n = 1300
        rng = np.random.default_rng(11)
        cols = rng.normal(size=(n, 20)) * 10.0 ** rng.integers(-12, 12,
                                                                (n, 20))
        cols[5, 3] = -0.0
        cols[600, 0] = 1e-300
        cols[601, 7] = -1e300
        cols[1299, 19] = 1e300
        cols[700, 2] = 42.0
        lam = rng.uniform(0.0, 1.0, n)
        lam[3] = -0.0
        mode = (np.arange(n) % 3 == 0).astype(float)
        data = np.column_stack((cols, mode, lam, np.ones(n)))
        log = SimLog("fmt", data, {"b": "2", "a": "1"})
        got = tmp_path / "chunked.csv"
        log.write_csv(got)

        want = ["# a = 1", "# b = 2", SimLog.COLUMNS]
        for i in range(n):
            nums = [log.t[i], *log.state[i], log.td1[i], log.td2[i],
                    log.mdx[i], log.mdy[i], log.d1[i], log.d2[i]]
            row = ",".join(f"{x:.9g}" for x in nums)
            want.append(f"{row},{SimLog.MODE_NAMES[int(log.mode[i])]},"
                        f"{log.lam[i]:.9g}")
        assert got.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_csv_header_is_utf8(self, tmp_path):
        """A header value outside ASCII is written as UTF-8, whatever the
        locale's encoding."""
        name = "Schwebeflug \u00fcber B\u00f6en \u2713"
        log = SimLog(name, np.zeros((2, len(LOG_COLUMNS))),
                     {"scenario": name})
        p = tmp_path / "utf8.csv"
        log.write_csv(p)
        raw = p.read_bytes()
        assert raw.startswith(f"# scenario = {name}\n".encode("utf-8"))
        assert raw.decode("utf-8").splitlines()[1] == SimLog.COLUMNS

    def test_one_buffer_holds_every_column(self, tmp_path):
        """A run's log is one n x len(LOG_COLUMNS) buffer: every named
        array is a view of it, and the CSV header names all its columns
        but the last, s."""
        log = run_scenario(hover_spec(duration=0.2), VehicleParams())
        assert log.data.shape == (200, len(LOG_COLUMNS))
        for name in ("t", "state", "position", "velocity", "quaternion",
                     "body_rate", "td1", "td2", "mdx", "mdy", "d1", "d2",
                     "mode", "lam", "sat_scale"):
            assert np.shares_memory(getattr(log, name), log.data), name
        p = tmp_path / "log.csv"
        log.write_csv(p)
        lines = p.read_text().splitlines()
        header = next(ln for ln in lines if not ln.startswith("# "))
        assert header.split(",") == list(LOG_COLUMNS[:-1])
        assert LOG_COLUMNS[-1] == "s"
        for bad in (np.zeros((3, len(LOG_COLUMNS) - 1)), np.zeros(23)):
            with pytest.raises(ConfigError, match="log data must be"):
                SimLog("bad", bad, {})

    @pytest.mark.parametrize("mode", ["hover", "transition"])
    def test_short_runs_equal_the_head_of_a_long_run(self, mode):
        """run_scenario stores its log rows a chunk of ticks at a time; a
        run that ends before, at or just past a chunk boundary still holds
        every row, equal to the same ticks of a longer run."""
        def log_data(ticks):
            spec = ScenarioSpec(name=mode, mode=mode, duration=ticks * 1e-3,
                                start_position=(0.1, -0.1, 1.3))
            return run_scenario(spec, VehicleParams()).data

        full = log_data(300)
        for ticks in (1, 127, 128, 129, 257):
            data = log_data(ticks)
            head = full[:ticks]
            assert data.shape == (ticks, len(LOG_COLUMNS)), ticks
            assert np.isfinite(data).all(), ticks
            assert np.array_equal(data, head), ticks
            assert np.array_equal(np.signbit(data), np.signbit(head)), ticks
            assert np.array_equal(data[:, 0], np.arange(ticks) * 1e-3), ticks

    def test_peak_deviation_needs_samples(self):
        log = run_scenario(hover_spec(duration=0.5), VehicleParams())
        with pytest.raises(ConfigError, match="no sample"):
            log.peak_deviation(np.zeros(3), t_min=1.0)

    def test_pitch_helper_matches_measured(self):
        log = run_scenario(ScenarioSpec(name="t", mode="transition",
                                        duration=3.0,
                                        position=(0.0, 0.0, 2.0)),
                           VehicleParams())
        direct = np.array([measured_pitch(q) for q in log.quaternion])
        assert np.allclose(log.pitch(), direct, atol=1e-12)
