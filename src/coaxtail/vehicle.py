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
        if self.mass <= 0.0:
            raise ConfigError("mass must be positive")
        inertia = np.asarray(self.inertia, dtype=float)
        if inertia.shape != (3, 3):
            raise ConfigError("inertia must be 3x3")
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
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "_inertia_inv", np.linalg.inv(inertia))


@dataclass
class VehicleState:
    position: np.ndarray
    velocity: np.ndarray
    orientation: np.ndarray  # wxyz, body to world
    body_rate: np.ndarray
    wing_mode: WingMode = WingMode.RETRACTED

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.orientation = np.asarray(self.orientation, dtype=float)
        self.body_rate = np.asarray(self.body_rate, dtype=float)
        for arr in (self.position, self.velocity, self.orientation,
                    self.body_rate):
            if not np.all(np.isfinite(arr)):
                raise SimulationFault("non-finite vehicle state")
        if abs(np.linalg.norm(self.orientation) - 1.0) > 1e-9:
            raise SimulationFault("orientation quaternion not normalized")

    @classmethod
    def at_rest(cls, position, wing_mode=WingMode.RETRACTED):
        return cls(position=np.asarray(position, dtype=float),
                   velocity=np.zeros(3),
                   orientation=np.array([1.0, 0.0, 0.0, 0.0]),
                   body_rate=np.zeros(3),
                   wing_mode=wing_mode)


def measured_pitch(orientation):
    """Pitch angle (rad): asin of the world-x component of body +z."""
    z_w = quat.rotate(orientation, np.array([0.0, 0.0, 1.0]))
    return math.asin(min(1.0, max(-1.0, float(z_w[0]))))


def step_6dof(state, force_body, torque_body, params, dt):
    """Advance the rigid body one RK4 step under body force/torque + gravity."""
    if dt <= 0.0 or dt > _MAX_DT:
        raise ConfigError("dt must lie in (0, 1 ms]")
    f = np.asarray(force_body, dtype=float)
    tau = np.asarray(torque_body, dtype=float)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(tau))):
        raise SimulationFault("non-finite force or torque input")
    y = np.concatenate([state.position, state.velocity, state.orientation,
                        state.body_rate])
    g_world = np.array([0.0, 0.0, -params.gravity])
    out = kernels.rigid_step(y, f, tau, params.mass, params.inertia,
                             params._inertia_inv, g_world, dt)
    if not np.all(np.isfinite(out)):
        raise SimulationFault("integrator produced non-finite state")
    return replace(state, position=out[0:3], velocity=out[3:6],
                   orientation=out[6:10], body_rate=out[10:13])


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


@dataclass(frozen=True)
class WindProfile:
    """Constant-speed wind with linear ramp-in (and optional ramp-out)."""

    speed: float = 0.0
    direction: tuple = (1.0, 0.0, 0.0)
    start: float = 0.0
    stop: float = None
    ramp: float = 0.5

    def __post_init__(self):
        if self.speed < 0.0 or self.ramp < 0.0:
            raise ConfigError("wind speed and ramp must be non-negative")
        d = np.asarray(self.direction, dtype=float)
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


def _drag_body(u_body, lateral_area, axial_area, cd, rho):
    areas = np.array([lateral_area, lateral_area, axial_area])
    return -0.5 * rho * cd * areas * np.abs(u_body) * u_body


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
    """Aggregate non-gravity force and torque in the body frame."""
    q_inv = quat.conjugate(state.orientation)
    u_body = quat.rotate(q_inv, state.velocity - np.asarray(wind_world,
                                                            dtype=float))
    alloc = params.alloc

    thrust = alloc.c_t1 * cmd.t_d1 + _aft_thrust(params, cmd.t_d2,
                                                 float(u_body[2]))
    force = np.array([0.0, 0.0, thrust])

    force += _drag_body(u_body, params.lateral_area, params.axial_area,
                        params.drag_cd, params.tandem.rho)

    wing_fx, wing_ty = _wing_wrench(u_body, params.tandem, wing_mode)
    force[0] += wing_fx

    ux, uz = float(u_body[0]), float(u_body[2])
    q_scale = 0.5 * params.tandem.rho * (ux * ux + uz * uz) \
        / params.elevon_q_ref
    torque = np.array([
        alloc.c_m * cmd.m_dx,
        alloc.c_m * cmd.m_dy + alloc.k_ey * (cmd.d_1 + cmd.d_2) * q_scale
        + wing_ty,
        -alloc.k_t1 * cmd.t_d1 + alloc.k_t2 * cmd.t_d2
        + alloc.k_ez * (cmd.d_1 - cmd.d_2) * q_scale,
    ])
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
        err = self.position[sel] - np.asarray(target, dtype=float)
        return float(np.max(np.linalg.norm(err, axis=1)))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            for key in sorted(self.config):
                fh.write(f"# {key} = {self.config[key]}\n")
            fh.write(self.COLUMNS + "\n")
            for i in range(self.t.size):
                nums = [self.t[i], *self.state[i], self.td1[i], self.td2[i],
                        self.mdx[i], self.mdy[i], self.d1[i], self.d2[i]]
                row = ",".join(f"{x:.9g}" for x in nums)
                fh.write(f"{row},{self.MODE_NAMES[int(self.mode[i])]},"
                         f"{self.lam[i]:.9g}\n")


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

    target = np.asarray(spec.position, dtype=float)
    transition = spec.mode == "transition"

    for k in range(n):
        t = k * spec.dt
        pitch = measured_pitch(state.orientation)
        wing_mode = spec.wing.mode_at(pitch)
        lam = spec.lam.value(pitch) if transition else spec.lam.lam_hover

        setpoint = ControlSetpoint(
            position=target, yaw=spec.yaw,
            pitch_override=transition_profile(t) if transition else None)
        wrench = controller.step(setpoint, state.position, state.velocity,
                                 state.orientation, state.body_rate, spec.dt)
        alloc = params.alloc if params.alloc.lam == lam \
            else replace(params.alloc, lam=lam)
        cmd, _ = saturate(wrench, alloc, params.limits)

        wind_w = spec.wind.vector(t)
        force, torque = realized_wrench(state, params, cmd, wind_w, wing_mode)

        t_col[k] = t
        state_col[k, 0:3] = state.position
        state_col[k, 3:6] = state.velocity
        state_col[k, 6:10] = state.orientation
        state_col[k, 10:13] = state.body_rate
        td1[k] = cmd.t_d1
        td2[k] = cmd.t_d2
        mdx[k] = cmd.m_dx
        mdy[k] = cmd.m_dy
        d1[k] = cmd.d_1
        d2[k] = cmd.d_2
        mode_col[k] = 1 if wing_mode is WingMode.EXTENDED else 0
        lam_col[k] = lam

        try:
            state = step_6dof(state, force, torque, params, spec.dt)
        except SimulationFault as exc:
            raise SimulationFault(
                f"tick {k} (t={t:.3f} s): {exc}") from exc
        state.wing_mode = wing_mode

    return SimLog(name=spec.name, t=t_col, state=state_col, td1=td1, td2=td2,
                  mdx=mdx, mdy=mdy, d1=d1, d2=d2, mode=mode_col, lam=lam_col,
                  config=_config_snapshot(spec, params))
