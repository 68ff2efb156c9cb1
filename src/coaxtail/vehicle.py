"""Closed-loop 6-DOF vehicle simulation.

World frame is ENU (z up); the body frame puts +z along the rotor thrust
axis, so hover attitude is the identity quaternion and cruise pitches the
nose toward the horizon (negative pitch about world y tilts +z toward -x).
Pitch is measured as asin of the world-x component of the body z axis.

Force model, all declared rather than fitted:
- Rotor thrust acts along body +z through the hub line, so it produces no
  moment. The fore rotor uses the calibrated linear count-to-newton map
  that the mixer inverts; the aft rotor optionally uses a coefficient
  table (advance ratio clamped to the table range), which makes the
  realized thrust sag at speed and leaves the controller integrators to
  absorb the model mismatch.
- Cyclic-modulation moments and the rotor yaw couple are the mixer's
  linear maps applied exactly.
- Elevon effectiveness scales with dynamic pressure relative to the
  calibration point q_ref, so elevons are inert in hover and reach the
  mixer's nominal authority at cruise speed.
- Fuselage drag is quadratic per body axis with a lateral and an axial
  reference area (the bare body without wings); pure crossflow or pure
  axial flow reduce to the plain wind_force formula with that area.
- Wings produce a normal force (body +x, the plate normal) from the
  chordwise flow component. Inside the linear range the coefficient is
  the panel's lift line; beyond it the coefficient blends smoothly into
  the flat-plate post-stall law Cn_max*sin(alpha), which decomposes into
  the familiar sin(2a)/2 lift and sin^2(a) drag and dies out at pure
  crossflow the way a stalled plate does. Spanwise flow produces nothing
  because only chordwise flow carries dynamic pressure. Retracted wings
  produce exactly zero force, which is what the retract maneuver buys:
  the wing planform's share of crossflow drag disappears with it.
"""

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import kernels, quat
from .aero import ALPHA_MAX, ALPHA_MIN, TandemConfig, WingMode, WingPanel
from .control import (
    ActuatorLimits,
    AllocationGains,
    CascadeController,
    CascadeGains,
    ControlSetpoint,
    saturate,
)
from .errors import ConfigError, SimulationFault
from .rotor import SplmParams

_MAX_DT = 1e-3 + 1e-12
_BLEND_BAND = math.radians(25.0)  # linear-to-post-stall crossfade width
_CN_MAX = 1.2  # flat-plate normal-force ceiling for a moderate-AR panel


def _default_inertia():
    return np.diag([0.022, 0.025, 0.010])


def _default_tandem():
    # stock tandem geometry: 480x100 and 560x100 panels at 4.5 and 2 deg
    return TandemConfig(
        front=WingPanel(area=0.048, lift_slope=2.2, cl0=0.32,
                        incidence=math.radians(4.5), arm=0.24),
        rear=WingPanel(area=0.056, lift_slope=2.2, cl0=0.32,
                       incidence=math.radians(2.0), arm=0.30),
    )


@dataclass(frozen=True)
class VehicleParams:
    mass: float = 1.2
    inertia: np.ndarray = field(default_factory=_default_inertia)
    tandem: TandemConfig = field(default_factory=_default_tandem)
    splm: SplmParams = field(default_factory=SplmParams)
    alloc: AllocationGains = field(default_factory=AllocationGains)
    cascade: CascadeGains = field(default_factory=CascadeGains)
    limits: ActuatorLimits = field(default_factory=ActuatorLimits)
    drag_cd: float = 1.0
    lateral_area: float = 0.0453  # bare-body side area, m^2 (wings excluded)
    axial_area: float = 0.015
    elevon_q_ref: float = 0.5 * 1.225 * 15.6 ** 2
    aft_table: object = None  # optional PropellerTable
    aft_speed_per_count: float = 0.16  # rev/s per throttle count
    rotor_offsets: tuple = (0.25, -0.10)  # fore/aft hub position on body z, m
    gravity: float = 9.81

    def __post_init__(self):
        for name in ("mass", "drag_cd", "lateral_area", "axial_area",
                     "elevon_q_ref", "aft_speed_per_count", "gravity"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.mass <= 0.0:
            raise ConfigError("mass must be positive")
        # a read-only copy: the rows unpacked below must not go stale
        inertia = np.array(self.inertia, dtype=float)
        if inertia.shape != (3, 3):
            raise ConfigError("inertia must be 3x3")
        if not np.isfinite(inertia).all():
            raise ConfigError("inertia must be finite")
        if not np.allclose(inertia, inertia.T, atol=1e-12):
            raise ConfigError("inertia must be symmetric")
        if np.any(np.linalg.eigvalsh(inertia) <= 0.0):
            raise ConfigError("inertia must be positive definite")
        for name in ("drag_cd", "lateral_area", "axial_area", "elevon_q_ref",
                     "aft_speed_per_count"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.gravity < 0.0:
            raise ConfigError("gravity must be non-negative")
        inertia.flags.writeable = False
        object.__setattr__(self, "inertia", inertia)
        # unpacked once for the rigid-step kernel
        object.__setattr__(self, "_inertia_rows", inertia.tolist())
        object.__setattr__(self, "_inertia_inv_rows",
                           np.linalg.inv(inertia).tolist())
        object.__setattr__(self, "_g_world", (0.0, 0.0, -self.gravity))


_STATE_PARTS = (("position", 3), ("velocity", 3), ("orientation", 4),
                ("body_rate", 3))


def _pack_state(parts):
    arrays = []
    for (name, size), part in zip(_STATE_PARTS, parts):
        if part is None:
            raise ConfigError(f"vehicle state needs {name}")
        arr = np.asarray(part, dtype=float)
        if arr.shape != (size,):
            raise ConfigError(f"{name} must hold {size} numbers")
        arrays.append(arr)
    return np.concatenate(arrays)


def _check_state(values):
    """Raise SimulationFault unless the 13 packed floats are finite and
    hold a unit quaternion."""
    if not all(map(math.isfinite, values)):
        raise SimulationFault("non-finite vehicle state")
    qw, qx, qy, qz = values[6:10]
    if abs(math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz) - 1.0) > 1e-9:
        raise SimulationFault("orientation quaternion not normalized")


class VehicleState:
    """Rigid-body state packed as one 13-vector y = [p, v, q (wxyz), w].

    Build it from the four parts or from a packed ``y``; either way it is
    validated once, on its Python floats (finite entries, unit
    quaternion), and ``y`` is then read-only. position, velocity,
    orientation (body to world) and body_rate are views into ``y``.
    """

    __slots__ = ("_y", "wing_mode")

    def __init__(self, position=None, velocity=None, orientation=None,
                 body_rate=None, wing_mode=WingMode.RETRACTED, *, y=None):
        if y is None:
            y = _pack_state((position, velocity, orientation, body_rate))
        elif not (position is None and velocity is None
                  and orientation is None and body_rate is None):
            raise ConfigError("give the vehicle state as y or as parts, "
                              "not both")
        else:
            y = np.array(y, dtype=float)  # own copy: y becomes read-only
            if y.shape != (13,):
                raise ConfigError("packed vehicle state must hold 13 numbers")
        self._own(y, wing_mode)

    @classmethod
    def _adopt(cls, y, wing_mode):
        """State holding y, a new 13-element float array that nothing
        else refers to (the rigid-step kernel's result), validated like
        any other but not copied."""
        state = cls.__new__(cls)
        state._own(y, wing_mode)
        return state

    def _own(self, y, wing_mode):
        _check_state(y.tolist())
        y.flags.writeable = False
        self._y = y
        self.wing_mode = wing_mode

    @property
    def y(self):
        return self._y

    @property
    def position(self):
        return self._y[0:3]

    @property
    def velocity(self):
        return self._y[3:6]

    @property
    def orientation(self):
        return self._y[6:10]

    @property
    def body_rate(self):
        return self._y[10:13]

    def __repr__(self):
        return (f"VehicleState(y={self._y.tolist()!r}, "
                f"wing_mode={self.wing_mode!r})")

    @classmethod
    def at_rest(cls, position, wing_mode=WingMode.RETRACTED):
        return cls(position=position, velocity=np.zeros(3),
                   orientation=np.array([1.0, 0.0, 0.0, 0.0]),
                   body_rate=np.zeros(3), wing_mode=wing_mode)


_BODY_Z = (0.0, 0.0, 1.0)


def measured_pitch(orientation):
    """Pitch angle (rad): asin of the world-x component of body +z.

    orientation is (w, x, y, z) as Python floats, or an array.
    """
    x_w = quat.rotate_floats(orientation, _BODY_Z)[0]
    return math.asin(min(1.0, max(-1.0, float(x_w))))


def step_6dof(state, force_body, torque_body, params, dt):
    """Advance the rigid body one RK4 step under body force/torque + gravity.

    force_body and torque_body are arrays or sequences of three floats,
    such as the tuples realized_wrench returns. The kernel's result is
    validated on its Python floats and becomes the new state's array
    without another copy.
    """
    if dt <= 0.0 or dt > _MAX_DT:
        raise ConfigError("dt must lie in (0, 1 ms]")
    if not all(map(math.isfinite, (*force_body, *torque_body))):
        raise SimulationFault("non-finite force or torque input")
    out = kernels.rigid_step(state.y, force_body, torque_body, params.mass,
                             params._inertia_rows, params._inertia_inv_rows,
                             params._g_world, dt)
    return VehicleState._adopt(out, state.wing_mode)


def wind_force(state, wind, area, cd, rho):
    """Quadratic drag force, world frame: 0.5*rho*Cd*A*|v_rel|*v_rel."""
    v_rel = np.asarray(wind, dtype=float) - state.velocity
    return 0.5 * rho * cd * area * np.linalg.norm(v_rel) * v_rel


def transition_profile(t):
    """Pitch setpoint (rad) for the transition maneuver.

    Hold -10 deg for 2 s, ramp linearly to -80 deg over 20 s, hold for
    20 s, ramp back to 0 deg over 2 s, then hold level.
    """
    if t < 0.0:
        raise ConfigError("profile time must be non-negative")
    if t < 2.0:
        return math.radians(-10.0)
    if t < 22.0:
        return math.radians(-10.0) + (t - 2.0) / 20.0 * math.radians(-70.0)
    if t < 42.0:
        return math.radians(-80.0)
    if t <= 44.0:
        return math.radians(-80.0) * (1.0 - (t - 42.0) / 2.0)
    return 0.0


def _finite_vector3(value, name):
    v = np.asarray(value, dtype=float)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise ConfigError(f"{name} must be 3 finite numbers")
    return v


@dataclass(frozen=True)
class WindProfile:
    """Constant-speed wind with linear ramp-in (and optional ramp-out)."""

    speed: float = 0.0
    direction: tuple = (1.0, 0.0, 0.0)
    start: float = 0.0
    stop: float = None
    ramp: float = 0.5

    def __post_init__(self):
        timing = (self.speed, self.start, self.ramp) + (
            () if self.stop is None else (self.stop,))
        if not all(map(math.isfinite, timing)):
            raise ConfigError("wind speed, start, stop and ramp must be "
                              "finite")
        if self.speed < 0.0 or self.ramp < 0.0:
            raise ConfigError("wind speed and ramp must be non-negative")
        d = _finite_vector3(self.direction, "wind direction")
        n = np.linalg.norm(d)
        if self.speed > 0.0 and n < 1e-12:
            raise ConfigError("wind direction must be a nonzero vector")
        object.__setattr__(self, "direction",
                           tuple(d / n) if n > 1e-12 else (1.0, 0.0, 0.0))

    def vector(self, t):
        if self.speed == 0.0 or t < self.start:
            return np.zeros(3)
        if self.ramp > 0.0:
            up = min(1.0, (t - self.start) / self.ramp)
        else:
            up = 1.0
        if self.stop is not None and t >= self.stop:
            if self.ramp > 0.0:
                up = max(0.0, 1.0 - (t - self.stop) / self.ramp)
            else:
                up = 0.0
        return self.speed * up * np.asarray(self.direction)


@dataclass(frozen=True)
class WingSchedule:
    """Fixed wing mode, or pitch-driven: extend when pitch < threshold."""

    kind: str = "fixed"
    mode: WingMode = WingMode.RETRACTED
    extend_below: float = math.radians(-20.0)

    def __post_init__(self):
        if self.kind not in ("fixed", "pitch"):
            raise ConfigError("wing schedule kind must be 'fixed' or 'pitch'")
        if not math.isfinite(self.extend_below):
            raise ConfigError("wing extend_below pitch must be finite")

    def mode_at(self, pitch):
        if self.kind == "fixed":
            return self.mode
        return WingMode.EXTENDED if pitch < self.extend_below \
            else WingMode.RETRACTED


@dataclass(frozen=True)
class LambdaSchedule:
    """Allocation ratio vs pitch: hover value above pitch_start, linear
    blend down to the fixed-wing value at pitch_end."""

    lam_hover: float = 1.0
    lam_fw: float = 0.3
    pitch_start: float = math.radians(-30.0)
    pitch_end: float = math.radians(-70.0)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lam_hover, self.lam_fw,
                                       self.pitch_start, self.pitch_end))):
            raise ConfigError("allocation ratios and blend pitches must be "
                              "finite")
        for lam in (self.lam_hover, self.lam_fw):
            if not 0.0 <= lam <= 1.0:
                raise ConfigError("allocation ratios must lie in [0, 1]")
        if self.pitch_end >= self.pitch_start:
            raise ConfigError("pitch_end must be below pitch_start")

    def value(self, pitch):
        if pitch >= self.pitch_start:
            return self.lam_hover
        if pitch <= self.pitch_end:
            return self.lam_fw
        w = (pitch - self.pitch_start) / (self.pitch_end - self.pitch_start)
        return self.lam_hover + w * (self.lam_fw - self.lam_hover)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str = "hover"
    mode: str = "hover"  # or "transition"
    duration: float = 10.0
    dt: float = 1e-3
    position: tuple = (0.0, 0.0, 1.5)
    yaw: float = 0.0
    start_position: tuple = None  # defaults to the setpoint position
    wind: WindProfile = field(default_factory=WindProfile)
    wing: WingSchedule = field(default_factory=WingSchedule)
    lam: LambdaSchedule = field(default_factory=LambdaSchedule)

    def __post_init__(self):
        if self.mode not in ("hover", "transition"):
            raise ConfigError("scenario mode must be 'hover' or 'transition'")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ConfigError("duration must be positive and finite")
        if not (math.isfinite(self.dt) and 0.0 < self.dt <= _MAX_DT):
            raise ConfigError("dt must lie in (0, 1 ms]")
        base = 1.0 / self.dt
        if abs(base - round(base)) > 1e-6:
            raise ConfigError("1/dt must be an integer rate")
        if round(self.duration / self.dt) < 1:
            raise ConfigError("duration must cover at least one tick")
        if not math.isfinite(self.yaw):
            raise ConfigError("yaw must be finite")
        _finite_vector3(self.position, "position")
        if self.start_position is not None:
            _finite_vector3(self.start_position, "start_position")

    @property
    def base_rate(self):
        return int(round(1.0 / self.dt))


def _panel_cn(panel, alpha):
    """Full-envelope normal-force coefficient for one panel.

    Exactly the linear lift line inside the panel's valid range, then a
    cosine crossfade into Cn_max*sin(alpha) over _BLEND_BAND beyond each
    edge. Continuous, and its slope never turns steeply negative, which
    keeps the heave/incidence coupling benign through the transition.
    """
    a = math.remainder(alpha, 2.0 * math.pi)
    if ALPHA_MIN <= a <= ALPHA_MAX:
        return panel.lift_slope * a + panel.cl0
    edge = ALPHA_MAX if a > ALPHA_MAX else ALPHA_MIN
    cn_edge = panel.lift_slope * edge + panel.cl0
    frac = min(1.0, abs(a - edge) / _BLEND_BAND)
    w = 0.5 * (1.0 + math.cos(math.pi * frac))
    return w * cn_edge + (1.0 - w) * _CN_MAX * math.sin(a)


def _wing_wrench(u_body, tandem, mode):
    """(force_x, torque_y) from the tandem panels, body frame."""
    if mode is WingMode.RETRACTED:
        return 0.0, 0.0
    ux, uz = float(u_body[0]), float(u_body[2])
    v_plane_sq = ux * ux + uz * uz
    if v_plane_sq < 1e-12:
        return 0.0, 0.0
    alpha_flow = math.atan2(-ux, uz)
    q_plane = 0.5 * tandem.rho * v_plane_sq
    f_front = q_plane * tandem.front.area * _panel_cn(
        tandem.front, alpha_flow + tandem.front.incidence)
    f_rear = q_plane * tandem.rear.area * _panel_cn(
        tandem.rear, alpha_flow + tandem.rear.incidence)
    force_x = f_front + f_rear
    torque_y = f_front * tandem.front.arm - f_rear * tandem.rear.arm
    return force_x, torque_y


def _drag_body(ux, uy, uz, lateral_area, axial_area, cd, rho):
    """Quadratic per-axis body drag from the body-frame flow (ux, uy, uz),
    as a tuple of floats."""
    k = -0.5 * rho * cd
    return (k * lateral_area * abs(ux) * ux,
            k * lateral_area * abs(uy) * uy,
            k * axial_area * abs(uz) * uz)


def _aft_thrust(params, t_d2, axial_speed):
    table = params.aft_table
    if table is None:
        return params.alloc.c_t2 * t_d2
    n = params.aft_speed_per_count * t_d2
    if n <= 1e-9:
        return 0.0
    rho = params.tandem.rho
    j = max(0.0, axial_speed) / (n * table.diameter)
    j = min(table.j_max, max(table.j_min, j))
    ct, _ = table.coefficients(j, n)
    return ct * rho * n * n * table.diameter ** 4


def realized_wrench(state, params, cmd, wind_world, wing_mode):
    """Aggregate non-gravity force and torque in the body frame.

    state is a VehicleState or its 13 packed entries as Python floats
    (run_scenario passes the list it unpacked for the tick). Returns
    (force, torque), each a tuple of three floats.
    """
    y = state.y.tolist() if isinstance(state, VehicleState) else state
    vx, vy, vz, qw, qx, qy, qz = y[3:10]
    wx, wy, wz = quat.components(wind_world)
    u_body = quat.rotate_floats((qw, -qx, -qy, -qz),
                                (vx - wx, vy - wy, vz - wz))
    ux, uy, uz = u_body
    alloc = params.alloc

    thrust = alloc.c_t1 * cmd.t_d1 + _aft_thrust(params, cmd.t_d2, uz)
    drag_x, drag_y, drag_z = _drag_body(
        ux, uy, uz, params.lateral_area, params.axial_area, params.drag_cd,
        params.tandem.rho)
    wing_fx, wing_ty = _wing_wrench(u_body, params.tandem, wing_mode)
    force = (0.0 + drag_x + wing_fx, 0.0 + drag_y, thrust + drag_z)

    q_scale = 0.5 * params.tandem.rho * (ux * ux + uz * uz) \
        / params.elevon_q_ref
    torque = (
        alloc.c_m * cmd.m_dx,
        alloc.c_m * cmd.m_dy + alloc.k_ey * (cmd.d_1 + cmd.d_2) * q_scale
        + wing_ty,
        -alloc.k_t1 * cmd.t_d1 + alloc.k_t2 * cmd.t_d2
        + alloc.k_ez * (cmd.d_1 - cmd.d_2) * q_scale,
    )
    return force, torque


@dataclass
class SimLog:
    name: str
    t: np.ndarray
    state: np.ndarray  # n x 13: p, v, q, w
    td1: np.ndarray
    td2: np.ndarray
    mdx: np.ndarray
    mdy: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    mode: np.ndarray  # int8, WingMode codes
    lam: np.ndarray
    config: dict
    # thrust-priority scale s per tick (1 = no clipping); not in the CSV
    sat_scale: np.ndarray = None

    MODE_NAMES = {0: "retracted", 1: "extended"}
    COLUMNS = ("t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,wx,wy,wz,"
               "Td1,Td2,Mdx,Mdy,d1,d2,mode,lambda")

    @property
    def position(self):
        return self.state[:, 0:3]

    @property
    def velocity(self):
        return self.state[:, 3:6]

    @property
    def quaternion(self):
        return self.state[:, 6:10]

    @property
    def body_rate(self):
        return self.state[:, 10:13]

    def pitch(self):
        z_x = 2.0 * (self.state[:, 7] * self.state[:, 9]
                     + self.state[:, 6] * self.state[:, 8])
        return np.arcsin(np.clip(z_x, -1.0, 1.0))

    def peak_deviation(self, target, t_min=0.0):
        sel = self.t >= t_min
        if not sel.any():
            raise ConfigError(f"log {self.name!r} has no sample at or after "
                              f"t = {t_min:g} s")
        err = self.position[sel] - np.asarray(target, dtype=float)
        return float(np.max(np.linalg.norm(err, axis=1)))

    # t, 13 state entries and 6 actuator channels, then mode and lambda
    _ROW_FORMAT = ",".join(["%.9g"] * 20) + ",%s,%.9g\n"
    # rows converted to Python floats at a time: 128 writes as fast as
    # 512 and adds no measurable peak memory (512 adds ~0.9 MB)
    _CSV_CHUNK = 128

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            for key in sorted(self.config):
                fh.write(f"# {key} = {self.config[key]}\n")
            fh.write(self.COLUMNS + "\n")
            fmt, names = self._ROW_FORMAT, self.MODE_NAMES
            for a in range(0, self.t.size, self._CSV_CHUNK):
                b = a + self._CSV_CHUNK
                nums = np.column_stack((
                    self.t[a:b], self.state[a:b], self.td1[a:b],
                    self.td2[a:b], self.mdx[a:b], self.mdy[a:b],
                    self.d1[a:b], self.d2[a:b])).tolist()
                fh.write("".join(
                    fmt % (*row, names[mode], lam) for row, mode, lam in zip(
                        nums, self.mode[a:b].tolist(),
                        self.lam[a:b].tolist())))

    def saturation(self):
        """(share of ticks with s < 1, minimum s) of the thrust-priority
        scale: how often and how hard the mixer clipped the torques."""
        s = self.sat_scale
        return float(np.count_nonzero(s < 1.0)) / s.size, float(s.min())

    def transition_tracking(self):
        """(ramp pitch RMS in deg, cruise speed in m/s) of a transition.

        The RMS of pitch minus transition_profile over 2-22 s, and the
        mean |v_x| over 41-42 s, as acceptance criterion 8 computes them;
        either is None when the log does not reach its window.
        """
        ramp = (self.t >= 2.0) & (self.t <= 22.0)
        cruise = (self.t >= 41.0) & (self.t < 42.0)
        rms = speed = None
        if ramp.any():
            sp = np.array([transition_profile(t) for t in self.t[ramp]])
            rms = math.degrees(float(np.sqrt(np.mean(
                (self.pitch()[ramp] - sp) ** 2))))
        if cruise.any():
            speed = float(np.mean(np.abs(self.velocity[cruise, 0])))
        return rms, speed


def _config_snapshot(spec, params):
    snap = {
        "scenario": spec.name,
        "mode": spec.mode,
        "duration_s": f"{spec.duration:.9g}",
        "dt_s": f"{spec.dt:.9g}",
        "position_m": " ".join(f"{x:.9g}" for x in spec.position),
        "yaw_rad": f"{spec.yaw:.9g}",
        "wind_mps": f"{spec.wind.speed:.9g}",
        "wind_dir": " ".join(f"{x:.9g}" for x in spec.wind.direction),
        "wind_start_s": f"{spec.wind.start:.9g}",
        "wind_ramp_s": f"{spec.wind.ramp:.9g}",
        "wing_schedule": (spec.wing.kind if spec.wing.kind == "pitch"
                          else f"fixed:{spec.wing.mode.name.lower()}"),
        "mass_kg": f"{params.mass:.9g}",
        "inertia_diag": " ".join(f"{x:.9g}" for x in np.diag(params.inertia)),
        "drag_cd": f"{params.drag_cd:.9g}",
        "lateral_area_m2": f"{params.lateral_area:.9g}",
        "axial_area_m2": f"{params.axial_area:.9g}",
        "frontal_area_m2": f"{params.tandem.frontal_area_extended:.9g}",
        "retracted_fraction": f"{params.tandem.retracted_fraction:.9g}",
        "lambda_hover": f"{spec.lam.lam_hover:.9g}",
        "lambda_fw": f"{spec.lam.lam_fw:.9g}",
        "aft_model": "table" if params.aft_table is not None else "linear",
    }
    return snap


def _differs(a, b):
    """a != b, also telling 0.0 from -0.0, which the log can show."""
    return a != b or math.copysign(1.0, a) != math.copysign(1.0, b)


def run_scenario(spec, params):
    """Run one scenario at the base rate; deterministic for fixed inputs."""
    base = spec.base_rate
    gains = params.cascade
    if gains.base_rate != base:
        gains = replace(gains, base_rate=base)
    controller = CascadeController(gains, params.mass, params.gravity)

    start = spec.start_position if spec.start_position is not None \
        else spec.position
    state = VehicleState.at_rest(start, spec.wing.mode_at(0.0))

    n = int(round(spec.duration / spec.dt))
    t_col = np.empty(n)
    state_col = np.empty((n, 13))
    td1 = np.empty(n)
    td2 = np.empty(n)
    mdx = np.empty(n)
    mdy = np.empty(n)
    d1 = np.empty(n)
    d2 = np.empty(n)
    mode_col = np.empty(n, dtype=np.int8)
    lam_col = np.empty(n)
    sat_col = np.empty(n)

    target = np.asarray(spec.position, dtype=float)
    transition = spec.mode == "transition"
    setpoint = ControlSetpoint(
        position=target, yaw=spec.yaw,
        pitch_override=transition_profile(0.0) if transition else None)
    alloc = params.alloc

    for k in range(n):
        t = k * spec.dt
        y = state.y.tolist()  # the tick's float state, unpacked once
        orientation = y[6:10]
        pitch = measured_pitch(orientation)
        wing_mode = spec.wing.mode_at(pitch)
        lam = spec.lam.value(pitch) if transition else spec.lam.lam_hover

        if transition:
            setpoint.pitch_override = transition_profile(t)
        wrench = controller.step(setpoint, y[0:3], y[3:6], orientation,
                                 y[10:13], spec.dt)
        if _differs(lam, alloc.lam):
            alloc = params.alloc if params.alloc.lam == lam \
                else replace(params.alloc, lam=lam)
        cmd, s = saturate(wrench, alloc, params.limits)

        wind_w = spec.wind.vector(t)
        force, torque = realized_wrench(y, params, cmd, wind_w, wing_mode)

        t_col[k] = t
        state_col[k] = state.y
        td1[k] = cmd.t_d1
        td2[k] = cmd.t_d2
        mdx[k] = cmd.m_dx
        mdy[k] = cmd.m_dy
        d1[k] = cmd.d_1
        d2[k] = cmd.d_2
        mode_col[k] = 1 if wing_mode is WingMode.EXTENDED else 0
        lam_col[k] = lam
        sat_col[k] = s

        try:
            state = step_6dof(state, force, torque, params, spec.dt)
        except SimulationFault as exc:
            raise SimulationFault(
                f"tick {k} (t={t:.3f} s): {exc}") from exc
        state.wing_mode = wing_mode

    return SimLog(name=spec.name, t=t_col, state=state_col, td1=td1, td2=td2,
                  mdx=mdx, mdy=mdy, d1=d1, d2=d2, mode=mode_col, lam=lam_col,
                  config=_config_snapshot(spec, params), sat_scale=sat_col)
