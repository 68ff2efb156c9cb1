"""Closed-loop 6-DOF simulation: integrator physics, force model, scenarios."""

import inspect
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from coaxtail import control, kernels, quat, rotor, vehicle
from coaxtail.aero import TandemConfig, WingMode, WingPanel
from coaxtail.analysis import load_scenario
from coaxtail.control import ALLOCATION, ActuatorCommand, AllocationGains
from coaxtail.errors import ConfigError, SimulationFault
from coaxtail.propulsion import PropellerTable, RpmSheet
from coaxtail.stock import GRAVITY
from coaxtail.vehicle import (
    LOG_COLUMNS,
    LambdaSchedule,
    ScenarioSpec,
    SimLog,
    VehicleParams,
    WindProfile,
    WingSchedule,
    _drag_body,
    measured_pitch,
    pack_state,
    realized_wrench,
    run_scenario,
    step_6dof,
    transition_profile,
)

RHO = 1.225
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def resting_state(z=2.0):
    return pack_state(np.array([0.0, 0.0, z]))


def packed_state(y):
    """The state of the 13 numbers y = [p, v, q, w], built from its
    parts."""
    return pack_state(y[0:3], y[3:6], y[6:10], y[10:13])


def moving_state(velocity, z=2.0):
    """Level attitude at (0, 0, z), no spin, the given world velocity."""
    return pack_state(np.array([0.0, 0.0, z]), velocity)


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
        assert state[5] == pytest.approx(-9.81 * t, abs=1e-9)
        assert state[2] == pytest.approx(100.0 - 0.5 * 9.81 * t * t, abs=1e-9)
        assert np.allclose(state[6:10], [1, 0, 0, 0], atol=1e-12)

    def test_free_body_coasts(self):
        """No force and no gravity: translation and spin are untouched for
        10 s of integration. The simulator always flies under stock.GRAVITY,
        so the zero gravity is the kernel's own argument."""
        params = VehicleParams()
        zero = (0.0, 0.0, 0.0)
        # principal axis spin
        y = (0.0, 0.0, 0.0, 1.0, -2.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.3)
        moments = params.inertia
        for _ in range(10000):
            y = kernels.rigid_step(y, zero, zero, params.mass, moments,
                                   [1.0 / d for d in moments], zero, 1e-3)
        assert np.allclose(y[3:6], [1.0, -2.0, 0.5], atol=1e-12)
        assert np.allclose(y[10:13], [0.0, 0.0, 1.3], atol=1e-12)

    def test_weight_balanced_by_body_thrust(self):
        params = VehicleParams()
        state = resting_state()
        hold = np.array([0.0, 0.0, params.mass * GRAVITY])
        for _ in range(500):
            state = step_6dof(state, hold, np.zeros(3), params, 1e-3)
        assert np.allclose(state[0:3], [0, 0, 2.0], atol=1e-12)
        assert np.allclose(state[3:6], 0.0, atol=1e-12)

    def test_dt_bounds_enforced(self):
        params = VehicleParams()
        state = resting_state()
        for dt in (0.0, -1e-3, 2e-3, 1e-9, 1e-300):
            with pytest.raises(ConfigError, match=r"^dt must lie in "
                                                  r"\[1 us, 1 ms\], got "):
                step_6dof(state, np.zeros(3), np.zeros(3), params, dt)
        for dt in (1e-6, 1e-3):
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
            pack_state(position=np.zeros(3), velocity=np.zeros(3),
                       orientation=np.array([1.0, 0.0, 0.1, 0.0]),
                       body_rate=np.zeros(3))
        with pytest.raises(SimulationFault):
            pack_state(position=np.array([np.nan, 0, 0]),
                       velocity=np.zeros(3),
                       orientation=np.array([1.0, 0, 0, 0]),
                       body_rate=np.zeros(3))
        y = np.array(resting_state())
        for bad in (np.inf, np.nan):
            y_bad = y.copy()
            y_bad[11] = bad
            with pytest.raises(SimulationFault):
                packed_state(y_bad)
        y_bad = y.copy()
        y_bad[6] = 0.5
        with pytest.raises(SimulationFault):
            packed_state(y_bad)
        with pytest.raises(ConfigError, match="position must hold 3"):
            pack_state(position=np.zeros(4), velocity=np.zeros(2),
                       orientation=np.array([1.0, 0, 0, 0]),
                       body_rate=np.zeros(3))
        # text (numeric text too), booleans, a dict or a ragged part is
        # refused the same way, naming the part
        for name, size, bad in (("position", 3, [1, "a", 2]),
                                ("velocity", 3, {0: 1.0, 1: 2.0, 2: 3.0}),
                                ("orientation", 4, [1.0, [0.0, 0.0], 0.0]),
                                ("body_rate", 3, "abc"),
                                ("position", 3, ["1", "2", "3"]),
                                ("position", 3, [b"1", b"2", b"3"]),
                                ("position", 3, [True, False, 1]),
                                ("body_rate", 3, [0.0, np.True_, 0.0])):
            with pytest.raises(ConfigError,
                               match=f"^{name} must hold {size} numbers$"):
                pack_state(**{"position": (0.0, 0.0, 0.0), name: bad})

    def test_state_is_an_immutable_tuple_of_floats(self):
        y = np.arange(13.0)
        y[6:10] = [0.0, 0.6, 0.0, 0.8]
        state = packed_state(y)
        y[0] = 99.0  # a later write to the caller's array
        assert type(state) is tuple
        assert len(state) == 13 and all(type(v) is float for v in state)
        assert state == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.6, 0.0, 0.8,
                         10.0, 11.0, 12.0)
        with pytest.raises(TypeError):
            state[0] = 1.0
        # the parts left out are at rest
        assert pack_state([1, 2, 3]) == (1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 1.0,
                                         0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_step_validates_the_kernel_result(self):
        params = VehicleParams()
        state = resting_state()
        nxt = step_6dof(state, (0.0, 0.0, 5.0), [0.0, 0.0, 0.0], params, 1e-3)
        assert type(nxt) is tuple
        # a torque whose body-rate change overflows makes the result inf
        with pytest.raises(SimulationFault, match="non-finite vehicle state"):
            step_6dof(state, (0.0, 0.0, 0.0), (1e308, 0.0, 0.0), params,
                      1e-3)

    def test_step_returns_the_kernel_floats(self):
        """200 random states: step_6dof returns a tuple of 13 Python
        floats, bit-equal (sign bits included) to the rigid-step
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
            state = packed_state(y)
            force = (rng.normal(size=3) * 10.0).tolist()
            torque = (rng.normal(size=3) * 0.1).tolist()
            dt = float(rng.choice([1e-3, 5e-4]))
            got = step_6dof(state, force, torque, params, dt)
            want = kernels.rigid_step(
                y.tolist(), force, torque, params.mass, params.inertia,
                [1.0 / d for d in params.inertia], (0.0, 0.0, -GRAVITY), dt)
            assert type(got) is tuple and len(got) == 13
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
                     "aft_speed_per_count"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError, match=name):
                    VehicleParams(**{name: bad})
        # non-finite, a dict, ragged rows, the wrong length, text (numeric
        # text too), booleans and a 3x3 tensor are refused, naming the
        # field
        for inertia in ((0.02, 0.025, np.nan), {1: 2}, [[1, 0], [0, 1, 0]],
                        (0.02, 0.025), (0.02, 0.025, 0.01, 0.0),
                        [1, "a", 0], "inertia",
                        np.array(["0.02", "0.025", "0.01"]),
                        np.ones(3, dtype=bool), (True, 1.0, 1.0),
                        np.diag([0.022, 0.025, 0.010]), np.eye(3)):
            with pytest.raises(ConfigError,
                               match="^inertia must be 3 finite numbers$"):
                VehicleParams(inertia=inertia)
        with pytest.raises(ConfigError):
            VehicleParams(mass=0.0)

    def test_params_inertia_is_principal(self):
        """The inertia is the three principal moments; one that is not
        positive is refused by name. The kernel reads the moments d and
        1.0 / d, which is np.linalg.inv's diagonal of the tensor to the
        bit."""
        for i in range(3):
            for moment in (0.0, -0.0, -0.01, -1e-300):
                given = [0.022, 0.025, 0.010]
                given[i] = moment
                with pytest.raises(ConfigError,
                                   match="^inertia must be positive"):
                    VehicleParams(inertia=given)
        p = VehicleParams(inertia=np.array([0.022, 0.025, 0.010]))
        assert p.inertia == (0.022, 0.025, 0.010)
        assert all(type(d) is float for d in p.inertia)
        rng = np.random.default_rng(33)
        moments = rng.uniform(1e-4, 1.0, (20_000, 3)) \
            * rng.choice([1e-3, 1.0, 1e3], (20_000, 1))
        full = np.zeros((20_000, 3, 3))
        full[:, [0, 1, 2], [0, 1, 2]] = moments
        inv = np.linalg.inv(full)
        assert np.array_equal(inv[:, [0, 1, 2], [0, 1, 2]], 1.0 / moments)
        assert np.count_nonzero(inv - inv * np.eye(3)) == 0
        assert not np.signbit(inv).any()
        for d in moments[:50]:
            p = VehicleParams(inertia=d)
            assert p.inertia == tuple(d.tolist())
            assert p._inertia_inv_diag == tuple((1.0 / d).tolist())

    def test_params_defaults_are_the_stock_airframe(self):
        """The inertia default is the stock airframe's three principal
        moments as Python floats; every instance shares the one frozen
        stock tandem."""
        a, b = VehicleParams(), VehicleParams()
        assert a.inertia == (0.022, 0.025, 0.010)
        assert type(a.inertia) is tuple
        assert all(type(d) is float for d in a.inertia)
        assert a._inertia_inv_diag == (1.0 / 0.022, 1.0 / 0.025, 1.0 / 0.010)
        assert a.tandem is b.tandem
        assert (a.tandem.front.area, a.tandem.rear.area) == (0.048, 0.056)
        assert a.tandem.front.incidence == math.radians(4.5)
        assert a.tandem.rear.incidence == math.radians(2.0)
        assert (a.tandem.front.arm, a.tandem.rear.arm) == (0.24, 0.30)

    def test_params_inertia_is_a_read_only_copy(self):
        """A caller's later write to the moments it gave cannot reach the
        params, nor can a write to the params' own tuple."""
        for given in (np.array([0.02, 0.025, 0.01]), [0.02, 0.025, 0.01]):
            params = VehicleParams(inertia=given)
            given[0] = 1.0
            assert params.inertia == (0.02, 0.025, 0.01)
            assert params._inertia_inv_diag[0] == 1.0 / 0.02
            with pytest.raises(TypeError):
                params.inertia[1] = 1.0

    def test_params_compare_and_hash_by_value(self):
        """Equal fields make equal params with equal hashes, whatever form
        the moments were given in; dataclasses.replace round-trips."""
        a = VehicleParams()
        b = VehicleParams(inertia=np.array([0.022, 0.025, 0.010]))
        assert a == b and hash(a) == hash(b)
        c = replace(a, inertia=[0.03, 0.025, 0.010])
        assert c != a and c.inertia == (0.03, 0.025, 0.010)
        assert c._inertia_inv_diag[0] == 1.0 / 0.03
        assert replace(c, inertia=a.inertia) == a
        assert replace(a) == a
        assert len({a, b, c}) == 2
        assert replace(a, mass=1.5) != a

    def test_torque_free_tumble_conserves_invariants(self):
        """Asymmetric-inertia tumble: rotational energy and the world-frame
        angular momentum vector must survive 10 s of RK4, and the fall is
        exactly ballistic."""
        params = VehicleParams()
        inertia = np.diag(params.inertia)
        state = pack_state(
            position=np.zeros(3), velocity=np.array([3.0, 1.0, 2.0]),
            orientation=np.array([1.0, 0.0, 0.0, 0.0]),
            body_rate=np.array([2.0, -1.5, 3.0]))

        def invariants(s):
            w = np.array(s[10:13])
            e_rot = 0.5 * float(w @ inertia @ w)
            l_world = np.array(quat.rotate(s[6:10], inertia @ w))
            return e_rot, l_world

        e0, l0 = invariants(state)
        dt = 1e-3
        for _ in range(10000):
            state = step_6dof(state, np.zeros(3), np.zeros(3), params, dt)
        e1, l1 = invariants(state)
        assert abs(e1 - e0) / e0 < 1e-6
        assert np.linalg.norm(l1 - l0) / np.linalg.norm(l0) < 1e-6
        assert abs(np.linalg.norm(state[6:10]) - 1.0) < 1e-9
        assert state[3] == pytest.approx(3.0, abs=1e-9)
        assert state[5] == pytest.approx(2.0 - 9.81 * 10.0, abs=1e-6)

    def test_step_is_deterministic(self):
        params = VehicleParams()
        state = pack_state(
            position=np.array([1.0, 2.0, 3.0]),
            velocity=np.array([0.3, -0.2, 0.1]),
            orientation=quat.from_axis_angle(np.array([1.0, 1.0, 0.0])
                                             / math.sqrt(2.0), 0.4),
            body_rate=np.array([0.5, 0.2, -0.7]))
        f = np.array([0.1, -0.2, 11.0])
        tau = np.array([0.01, 0.02, -0.005])
        a = step_6dof(state, f, tau, params, 1e-3)
        b = step_6dof(state, f, tau, params, 1e-3)
        assert np.array_equal(a, b)

    def test_halving_dt_changes_little(self):
        # RK4 is O(dt^4); one tumbling second at 1 ms vs 0.5 ms
        params = VehicleParams()
        def run(dt):
            s = pack_state(
                position=np.zeros(3), velocity=np.array([1.0, 0.0, 0.0]),
                orientation=np.array([1.0, 0.0, 0.0, 0.0]),
                body_rate=np.array([2.0, -1.5, 3.0]))
            for _ in range(int(round(1.0 / dt))):
                s = step_6dof(s, np.zeros(3), np.zeros(3), params, dt)
            return s
        a, b = run(1e-3), run(5e-4)
        assert np.allclose(a[6:10], b[6:10], atol=1e-9)
        assert np.allclose(a[0:3], b[0:3], atol=1e-9)


_PANEL = WingPanel(area=0.05, lift_slope=2.2, cl0=0.3, incidence=0.05,
                   arm=0.25)
_TABLE = PropellerTable(0.1778, (RpmSheet(6000.0, [0.0, 0.5], [0.1, 0.05],
                                          [0.05, 0.04]),))
# constructor -> the valid arguments its composite-field cases start from
_VALID = {VehicleParams: {}, ScenarioSpec: {},
          TandemConfig: {"front": _PANEL, "rear": _PANEL}}


class TestCompositeFields:
    """A field that holds an object or text refuses any other type at
    construction, naming the field, so a run never meets it mid-tick."""

    @pytest.mark.parametrize("cls,name,bad,want", [
        (VehicleParams, "tandem", "x", "TandemConfig"),
        (VehicleParams, "tandem", None, "TandemConfig"),
        (VehicleParams, "tandem", _PANEL, "TandemConfig"),
        (VehicleParams, "aft_table", 123, "None or PropellerTable"),
        (VehicleParams, "aft_table", _TABLE.sheets[0],
         "None or PropellerTable"),
        (ScenarioSpec, "wind", "x", "WindProfile"),
        (ScenarioSpec, "wind", None, "WindProfile"),
        (ScenarioSpec, "wing", "pitch", "WingSchedule"),
        (ScenarioSpec, "lam", None, "LambdaSchedule"),
        (ScenarioSpec, "lam", 0.5, "LambdaSchedule"),
        (ScenarioSpec, "name", None, "str"),
        (ScenarioSpec, "name", 3, "str"),
        (ScenarioSpec, "name", b"hover", "str"),
        (TandemConfig, "front", 1, "WingPanel"),
        (TandemConfig, "rear", 2, "WingPanel"),
        (TandemConfig, "rear", None, "WingPanel"),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_wrong_type_is_refused_by_name(self, cls, name, bad, want):
        with pytest.raises(ConfigError,
                           match=f"^{name} must be {want}, got "):
            cls(**{**_VALID[cls], name: bad})

    def test_right_types_are_taken(self):
        assert VehicleParams(aft_table=_TABLE).aft_table is _TABLE
        assert VehicleParams(aft_table=None).aft_table is None
        tandem = TandemConfig(front=_PANEL, rear=_PANEL)
        assert VehicleParams(tandem=tandem).tandem is tandem
        wind = WindProfile(speed=2.0)
        assert ScenarioSpec(name="gust", wind=wind).wind is wind

    def test_tandem_refuses_both_panels_wrong(self):
        with pytest.raises(ConfigError, match="^front must be WingPanel, "
                                              "got 1$"):
            TandemConfig(front=1, rear=2)

    def test_runs_that_died_mid_tick_are_refused_before_it(self):
        """A wrong aft table or wind once reached the tick and died there
        with an AttributeError; now the run is never built."""
        with pytest.raises(ConfigError, match="^aft_table must be None or "
                                              "PropellerTable, got 123$"):
            run_scenario(ScenarioSpec(duration=0.01),
                         VehicleParams(aft_table=123))
        with pytest.raises(ConfigError,
                           match="^wind must be WindProfile, got 'x'$"):
            run_scenario(ScenarioSpec(duration=0.01, wind="x"),
                         VehicleParams())


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
        return np.array(_drag_body(*u, self.LATERAL, self.AXIAL, cd))

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
        base = _drag_body(4.0, 0.0, 0.0, 0.05, 0.02, 1.0)
        double_v = _drag_body(8.0, 0.0, 0.0, 0.05, 0.02, 1.0)
        double_a = _drag_body(4.0, 0.0, 0.0, 0.10, 0.02, 1.0)
        assert double_v[0] == pytest.approx(4.0 * base[0], rel=1e-12)
        assert double_a[0] == pytest.approx(2.0 * base[0], rel=1e-12)

    def test_zero_relative_flow(self):
        # moving with the wind: no drag, whatever the body's velocity
        params = VehicleParams()
        state = moving_state(np.array([3.0, -2.0, 1.0]))
        still_air, _ = realized_wrench(state, params, ActuatorCommand(),
                                       np.zeros(3), WingMode.RETRACTED)
        with_wind, _ = realized_wrench(state, params, ActuatorCommand(),
                                       state[3:6],
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


class TestWingGate:
    """realized_wrench adds the tandem's force only with the wings
    extended and in-plane (x-z) flow of at least 1e-6 m/s; the force law
    itself is tested in test_aero."""

    @pytest.mark.parametrize("velocity,in_plane", [
        ((-8.0, 0.0, 3.0), True), ((0.0, 0.0, -12.0), True),
        ((-6.0, 0.0, 0.0), True), ((1.1e-6, 0.0, 0.0), True),
        ((0.0, 25.0, 0.0), False), ((0.9e-6, 3.0, 0.0), False),
        ((0.0, 0.0, 0.0), False)])
    def test_retracted_and_extended_differ_only_with_in_plane_flow(
            self, velocity, in_plane):
        params = VehicleParams()
        cmd = ActuatorCommand(t_d1=600.0, t_d2=900.0, d_1=0.2, d_2=0.1)
        state = moving_state(np.array(velocity))
        still = (0.0, 0.0, 0.0)
        fe, te = realized_wrench(state, params, cmd, still, WingMode.EXTENDED)
        fr, tr = realized_wrench(state, params, cmd, still, WingMode.RETRACTED)
        # the wings act on body x force and pitch torque only
        assert (fe[1], fe[2], te[0], te[2]) == (fr[1], fr[2], tr[0], tr[2])
        assert (fe[0] != fr[0] and te[1] != tr[1]) is in_plane
        assert ((fe, te) == (fr, tr)) is not in_plane


class TestDragAndWrench:
    def test_per_axis_drag_signs(self):
        f = _drag_body(3.0, -2.0, 1.0, 0.05, 0.02, 1.0)
        assert f[0] == pytest.approx(-0.5 * RHO * 0.05 * 9.0, rel=1e-12)
        assert f[1] == pytest.approx(+0.5 * RHO * 0.05 * 4.0, rel=1e-12)
        assert f[2] == pytest.approx(-0.5 * RHO * 0.02 * 1.0, rel=1e-12)
        assert np.all(np.array(_drag_body(0.0, 0.0, 0.0, 0.05, 0.02,
                                          1.0)) == 0.0)

    def test_static_thrust_and_torque_maps(self):
        params = VehicleParams()
        cmd = ActuatorCommand(t_d1=600.0, t_d2=900.0, m_dx=50.0, m_dy=-80.0,
                              d_1=0.2, d_2=0.1)
        force, torque = realized_wrench(resting_state(), params, cmd,
                                        np.zeros(3), WingMode.RETRACTED)
        a = ALLOCATION
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
        assert torque[1] == pytest.approx(ALLOCATION.k_ey * 0.2, rel=1e-9)
        assert torque[2] == pytest.approx(ALLOCATION.k_ez * 0.4, rel=1e-9)

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
        table = PropellerTable(0.1778, (RpmSheet(0.0, [0.5], [0.09],
                                                 [0.05]),))
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
        v_t = math.sqrt(2.0 * params.mass * GRAVITY
                        / (RHO * params.drag_cd * params.axial_area))
        state = resting_state(z=0.0)
        speeds = []
        for _ in range(12000):
            u = state[3:6]  # identity attitude, body equals world
            drag = _drag_body(*u, params.lateral_area, params.axial_area,
                              params.drag_cd)
            state = step_6dof(state, drag, np.zeros(3), params, 1e-3)
            speeds.append(-state[5])
        speeds = np.array(speeds)
        assert np.all(np.diff(speeds) > 0.0)
        assert np.all(speeds < v_t)
        assert speeds[-1] == pytest.approx(v_t, rel=0.02)


def hover_spec(duration=8.0, **kw):
    return ScenarioSpec(name="hover", mode="hover", duration=duration,
                        position=(0.0, 0.0, 1.5),
                        start_position=(0.1, -0.1, 1.3), **kw)


def wind_case(mode, **changes):
    """The shipped gust scenario with the wings fixed in `mode`, loaded
    from configs/wind_<mode>.cfg with `changes` made to its spec: (spec,
    vehicle params)."""
    spec, params = load_scenario(CONFIG_DIR / f"wind_{mode.value}.cfg")
    return replace(spec, **changes), params


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
            ScenarioSpec(dt=5e-324)  # below 1 us (1/dt overflows to inf)
        # a whole rate that the controller's 200 Hz loop does not divide
        with pytest.raises(ConfigError, match="^yaw_rate_rate rate 200 must "
                                              "divide base rate 2500$"):
            ScenarioSpec(dt=4e-4)
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
        # a tick below 1 us is refused by the tick's own rule, before the
        # loop-rate check could print its base rate of about 1/dt Hz
        for dt in (1e-9, 1e-300):
            with pytest.raises(ConfigError) as info:
                ScenarioSpec(dt=dt)
            assert str(info.value) == (f"dt must lie in [1 us, 1 ms], "
                                       f"got {dt!r}")
        assert ScenarioSpec(dt=1e-6).dt == 1e-6  # a 1 MHz tick

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

    def test_mixer_and_limits_are_stock_constants(self):
        """VehicleParams sets neither the mixer, the actuator ranges nor g:
        the simulator flies control's ALLOCATION, the class's defaults,
        saturates to the stock box of plain constants, and flies under
        stock.GRAVITY. The rotor's forcing scale reads the same full
        throttle and a constant solidity."""
        names = [f.name for f in fields(VehicleParams)]
        assert len(names) == 8
        assert not {"alloc", "limits", "gravity"} & set(names)
        assert ALLOCATION == AllocationGains()
        assert list(inspect.signature(control.saturate).parameters) == [
            "wrench", "gains", "lam"]
        assert not hasattr(control, "ActuatorLimits")
        assert not hasattr(control, "LIMITS")
        assert not hasattr(rotor, "rotor_solidity")
        assert not hasattr(rotor, "THROTTLE_SCALE")
        assert rotor._INPUT_SCALE.hex() == "0x1.e9504fe0bcd8bp-11"

    def test_command_fields_are_the_log_columns_in_order(self,
                                                         monkeypatch):
        """run_scenario logs the command by position, so its fields are
        LOG_COLUMNS[14:20] in order, and each tick's row holds the command
        saturate returned."""
        assert ActuatorCommand._fields == ("t_d1", "t_d2", "m_dx", "m_dy",
                                           "d_1", "d_2")
        assert LOG_COLUMNS[14:20] == ("Td1", "Td2", "Mdx", "Mdy", "d1", "d2")
        assert [f.replace("_", "").lower() for f in ActuatorCommand._fields] \
            == [c.lower() for c in LOG_COLUMNS[14:20]]
        saturate = vehicle.saturate
        commands = []

        def kept(*args):
            cmd, s = saturate(*args)
            commands.append(cmd)
            return cmd, s

        monkeypatch.setattr(vehicle, "saturate", kept)
        log = run_scenario(ScenarioSpec(duration=0.05,
                                        start_position=(0.5, -0.3, 1.2)),
                           VehicleParams())
        assert len(commands) == log.t.size
        for name, column in zip(ActuatorCommand._fields,
                                (log.td1, log.td2, log.mdx, log.mdy, log.d1,
                                 log.d2)):
            want = [getattr(cmd, name) for cmd in commands]
            assert np.array_equal(column, want)
            assert np.array_equal(np.signbit(column), np.signbit(want))
        assert np.any(log.data[:, 14:20] != 0.0, axis=0).sum() >= 4

    def test_saturation_is_logged(self):
        """The mixer's thrust-priority scale is kept per tick; under the
        stock limits a hover near its setpoint never clips, and a 3 m
        lateral step clips on 1.8 % of ticks, down to s = 0.519."""
        spec = ScenarioSpec(name="near", mode="hover", duration=2.0,
                            position=(0.0, 0.0, 1.5),
                            start_position=(0.3, -0.3, 1.2))
        free = run_scenario(spec, VehicleParams())
        assert free.sat_scale.shape == free.t.shape
        assert free.saturation() == (0.0, 1.0)
        step = run_scenario(replace(spec, start_position=(3.0, 0.0, 1.5)),
                            VehicleParams())
        fraction, min_scale = step.saturation()
        assert fraction == pytest.approx(0.018, abs=0.01)
        assert min_scale == pytest.approx(0.519, abs=0.05)
        assert fraction == np.mean(step.sat_scale < 1.0)

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

    def test_wind_retracted_beats_extended(self, shipped_run):
        dev = {}
        for mode in (WingMode.EXTENDED, WingMode.RETRACTED):
            spec, _, log, _ = shipped_run(f"wind_{mode.value}")
            dev[mode] = log.peak_deviation(spec.position,
                                           t_min=spec.wind.start)
        assert dev[WingMode.RETRACTED] <= 0.5 * dev[WingMode.EXTENDED]

    def test_wind_deviation_grows_with_wing_area(self):
        spec, base = wind_case(WingMode.EXTENDED, duration=8.0)
        devs = []
        for scale in (0.6, 1.0, 1.4):
            t = base.tandem
            params = replace(base, tandem=replace(
                t, front=replace(t.front, area=t.front.area * scale),
                rear=replace(t.rear, area=t.rear.area * scale)))
            log = run_scenario(spec, params)
            devs.append(log.peak_deviation(spec.position,
                                           t_min=spec.wind.start))
        assert devs[0] < devs[1] < devs[2]

    @pytest.mark.parametrize("mode", ["extended", "retracted"])
    def test_wind_peak_converged_in_dt(self, mode, shipped_run):
        """The closed loop's error is first order in dt, from holding the
        wrench over each tick: halving the shipped wind runs' 1 ms tick
        moves each peak deviation by about 1e-5 m (7e-6 m extended, 9e-6
        m retracted). The bound catches a tick change that grows it."""
        spec, params, log, _ = shipped_run(f"wind_{mode}")
        half = run_scenario(replace(spec, dt=0.5 * spec.dt), params)
        change = (half.peak_deviation(spec.position)
                  - log.peak_deviation(spec.position))
        assert abs(change) < 5e-5, change

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

    @pytest.mark.parametrize("code", [0.0, -0.0, 1.0])
    def test_mode_column_takes_the_wing_mode_codes(self, tmp_path, code):
        data = np.zeros((3, len(LOG_COLUMNS)))
        data[1, LOG_COLUMNS.index("mode")] = code
        log = SimLog("ok", data, {})
        log.write_csv(tmp_path / "ok.csv")
        row = (tmp_path / "ok.csv").read_text().splitlines()[2]
        assert row.split(",")[20] == SimLog.MODE_NAMES[int(code)]

    @pytest.mark.parametrize("code", [0.5, 2.0, -1.0, math.nan, math.inf])
    def test_mode_column_refuses_other_values(self, code):
        """A mode that is not a WingMode code is a ConfigError naming the
        first bad row, not a KeyError from write_csv."""
        data = np.zeros((4, len(LOG_COLUMNS)))
        mode = LOG_COLUMNS.index("mode")
        data[2, mode] = code
        data[3, mode] = 3.0
        with pytest.raises(ConfigError, match=r"log mode must be 0\.0 or "
                           rf"1\.0 .*got {code!r} in row 2$"):
            SimLog("bad", data, {})

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


# One fresh interpreter flies the four shipped configs: a short run of
# each first (the first calls fill caches and allocator arenas that are
# not log memory), then each full run, its log hashed and dropped.
FLY_AND_DROP = """
import dataclasses, hashlib, json, os, sys
from coaxtail.analysis import load_scenario
from coaxtail.vehicle import run_scenario

def resident_mb():
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20

cases = [load_scenario(path) for path in sys.argv[1:]]
for spec, params in cases:
    run_scenario(dataclasses.replace(spec, duration=0.2), params)
before = resident_mb()
digests = {spec.name: hashlib.sha256(run_scenario(spec, params).data)
           .hexdigest() for spec, params in cases}
after = resident_mb()
print(json.dumps([digests, before, after]))
"""


class TestLogBuffer:
    # hover first, then the transition, then the wind pair: after the
    # transition's 8.5 MB log, malloc would serve the wind logs from a heap
    # it does not trim
    CONFIGS = ("hover", "transition", "wind_retracted", "wind_extended")

    @pytest.fixture(scope="class")
    def flown(self, run_snippet):
        """(digests, resident MB before the runs, after them)."""
        out = run_snippet(FLY_AND_DROP, *(CONFIG_DIR / f"{name}.cfg"
                                          for name in self.CONFIGS))
        return json.loads(out.splitlines()[-1])

    def test_dropped_logs_leave_the_process(self, flown):
        _, before, after = flown
        if before is None:
            pytest.skip("no /proc/self/statm to read resident memory from")
        assert after - before < 1.0

    def test_shipped_logs_keep_their_bits(self, flown):
        """The four shipped logs are pinned to the byte, so every entry
        keeps its value and its sign (np.array_equal and np.signbit)."""
        digests, _, _ = flown
        assert digests == {
            "hover":
            "36641885db14a7670bec6d51e544cb6c818dcfffd99983ee74ce3bfa73dd1caa",
            "transition":
            "c2bb15d4f7aa986b7b2862a241a8b3d9e694ea3d05cdb74003b843713c537250",
            "wind_retracted":
            "ef2923ce716139f8707fe8472641f5e8b50428ae3ac568a09fc515f42fc5b528",
            "wind_extended":
            "a295cf9b50d43799a33847e30a65f3b834783809c5748c771f99c89c0e829165",
        }

    @pytest.mark.parametrize("duration,cause", [(1e17, OverflowError),
                                                (1e13, OSError)])
    def test_too_many_ticks(self, duration, cause):
        """The log's mapping is refused before anything is allocated: past
        sys.maxsize bytes (OverflowError) or past memory (OSError)."""
        spec = replace(hover_spec(), duration=duration)
        with pytest.raises(ConfigError, match=r"ticks, too many to log$"
                           ) as info:
            run_scenario(spec, VehicleParams())
        assert isinstance(info.value.__cause__, cause)
