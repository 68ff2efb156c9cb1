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
  axial flow reduce to 0.5*rho*Cd*A*|v_rel|*v_rel with that area, v_rel
  the air velocity relative to the body.
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
from dataclasses import dataclass, field
from math import isfinite

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
from .errors import (ConfigError, SimulationFault, check_finite,
                     check_non_negative, check_positive, finite_vector3,
                     tick_rate)

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
    alloc: AllocationGains = field(default_factory=AllocationGains)
    cascade: CascadeGains = field(default_factory=CascadeGains)
    limits: ActuatorLimits = field(default_factory=ActuatorLimits)
    drag_cd: float = 1.0
    lateral_area: float = 0.0453  # bare-body side area, m^2 (wings excluded)
    axial_area: float = 0.015
    elevon_q_ref: float = 0.5 * 1.225 * 15.6 ** 2
    aft_table: object = None  # optional PropellerTable
    aft_speed_per_count: float = 0.16  # rev/s per throttle count
    gravity: float = 9.81

    def __post_init__(self):
        check_positive(mass=self.mass, drag_cd=self.drag_cd,
                       lateral_area=self.lateral_area,
                       axial_area=self.axial_area,
                       elevon_q_ref=self.elevon_q_ref,
                       aft_speed_per_count=self.aft_speed_per_count)
        check_non_negative(gravity=self.gravity)
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
    values = []
    for (name, size), part in zip(_STATE_PARTS, parts):
        if part is None:
            raise ConfigError(f"vehicle state needs {name}")
        arr = np.asarray(part, dtype=float)
        if arr.shape != (size,):
            raise ConfigError(f"{name} must hold {size} numbers")
        values += arr.tolist()
    return values


def _check_state(values):
    """Raise SimulationFault unless the 13 packed floats are finite and
    hold a unit quaternion."""
    # a finite sum needs finite entries; a sum that overflowed falls
    # through to the test of each entry
    if not isfinite(sum(values)) and not all(map(isfinite, values)):
        raise SimulationFault("non-finite vehicle state")
    qw, qx, qy, qz = values[6:10]
    if abs(math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz) - 1.0) > 1e-9:
        raise SimulationFault("orientation quaternion not normalized")


class VehicleState(tuple):
    """Rigid-body state: the tuple of 13 floats [p, v, q (wxyz), w].

    Build it from the four parts or from the packed ``y``; either way it
    is validated once (finite entries, unit quaternion). position,
    velocity, orientation (body to world) and body_rate are its slices.
    """

    __slots__ = ()

    def __new__(cls, position=None, velocity=None, orientation=None,
                body_rate=None, *, y=None):
        if y is None:
            values = _pack_state((position, velocity, orientation, body_rate))
        elif not (position is None and velocity is None
                  and orientation is None and body_rate is None):
            raise ConfigError("give the vehicle state as y or as parts, "
                              "not both")
        else:
            y = np.asarray(y, dtype=float)
            if y.shape != (13,):
                raise ConfigError("packed vehicle state must hold 13 numbers")
            values = y.tolist()
        _check_state(values)
        return tuple.__new__(cls, values)

    def __getnewargs__(self):
        # copy and pickle rebuild the state from its parts
        return self[0:3], self[3:6], self[6:10], self[10:13]

    @property
    def position(self):
        return self[0:3]

    @property
    def velocity(self):
        return self[3:6]

    @property
    def orientation(self):
        return self[6:10]

    @property
    def body_rate(self):
        return self[10:13]

    @classmethod
    def at_rest(cls, position):
        return cls(position=position, velocity=(0.0, 0.0, 0.0),
                   orientation=(1.0, 0.0, 0.0, 0.0),
                   body_rate=(0.0, 0.0, 0.0))


_BODY_Z = (0.0, 0.0, 1.0)


def measured_pitch(orientation):
    """Pitch angle (rad): asin of the world-x component of body +z.

    orientation is (w, x, y, z) as Python floats.
    """
    x_w = quat.rotate(orientation, _BODY_Z)[0]
    return math.asin(min(1.0, max(-1.0, x_w)))


def _check_dt(dt):
    """ConfigError unless dt lies in (0, 1 ms]; NaN is refused."""
    if not 0.0 < dt <= _MAX_DT:
        raise ConfigError(f"dt must lie in (0, 1 ms], got {dt!r}")


def step_6dof(state, force_body, torque_body, params, dt):
    """Advance the rigid body one RK4 step under body force/torque + gravity.

    Returns the next VehicleState, validated on its floats (finite
    entries, unit quaternion) once, here. force_body and torque_body are
    tuples of three floats, such as realized_wrench returns.
    """
    # _check_dt's rule, tested inline to save the call; it raises
    if not 0.0 < dt <= _MAX_DT:
        _check_dt(dt)
    fx, fy, fz = force_body
    tx, ty, tz = torque_body
    if not (isfinite(fx) and isfinite(fy) and isfinite(fz)
            and isfinite(tx) and isfinite(ty) and isfinite(tz)):
        raise SimulationFault("non-finite force or torque input")
    out = kernels.rigid_step(state, force_body, torque_body, params.mass,
                             params._inertia_rows, params._inertia_inv_rows,
                             params._g_world, dt)
    _check_state(out)
    return tuple.__new__(VehicleState, out)


def transition_profile(t):
    """Pitch setpoint (rad) for the transition maneuver.

    Hold -10 deg for 2 s, ramp linearly to -80 deg over 20 s, hold for
    20 s, ramp back to 0 deg over 2 s, then hold level.
    """
    if not t >= 0.0:
        raise ConfigError(f"profile time must be non-negative, got {t!r}")
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
    """Constant-speed wind with linear ramp-in (and optional ramp-out).

    The ramp-out edge falls from full speed at stop; the wind follows the
    lesser of the two edges, so one that stops before its ramp-in ends
    never jumps.
    """

    speed: float = 0.0
    direction: tuple = (1.0, 0.0, 0.0)
    start: float = 0.0
    stop: float = None
    ramp: float = 0.5

    def __post_init__(self):
        check_non_negative(speed=self.speed, ramp=self.ramp)
        check_finite(start=self.start)
        if self.stop is not None:
            check_finite(stop=self.stop)
            if self.stop <= self.start:
                raise ConfigError("wind stop must come after its start")
        d = finite_vector3(self.direction, "wind direction")
        n = np.linalg.norm(d)
        if self.speed > 0.0 and n < 1e-12:
            raise ConfigError("wind direction must be a nonzero vector")
        # Python floats: numpy scalars would spread through the tick
        object.__setattr__(self, "direction",
                           tuple((d / n).tolist()) if n > 1e-12
                           else (1.0, 0.0, 0.0))

    def vector(self, t):
        """The wind vector (world frame, m/s) at time t as a tuple of three
        floats."""
        if self.speed == 0.0 or t < self.start:
            return (0.0, 0.0, 0.0)
        if self.ramp > 0.0:
            up = min(1.0, (t - self.start) / self.ramp)
        else:
            up = 1.0
        if self.stop is not None and t >= self.stop:
            if self.ramp > 0.0:
                up = min(up, max(0.0, 1.0 - (t - self.stop) / self.ramp))
            else:
                up = 0.0
        s = self.speed * up
        dx, dy, dz = self.direction
        return (s * dx, s * dy, s * dz)


@dataclass(frozen=True)
class WingSchedule:
    """Fixed wing mode, or pitch-driven: extend when pitch < threshold."""

    kind: str = "fixed"
    mode: WingMode = WingMode.RETRACTED
    extend_below: float = math.radians(-20.0)

    def __post_init__(self):
        if self.kind not in ("fixed", "pitch"):
            raise ConfigError("wing schedule kind must be 'fixed' or 'pitch'")
        # the text "retracted" becomes WingMode.RETRACTED, which mode_at's
        # callers compare by identity
        try:
            object.__setattr__(self, "mode", WingMode(self.mode))
        except ValueError:
            raise ConfigError(f"unknown wing mode {self.mode!r}") from None
        check_finite(extend_below=self.extend_below)

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
        check_finite(pitch_start=self.pitch_start, pitch_end=self.pitch_end)
        for name in ("lam_hover", "lam_fw"):
            lam = getattr(self, name)
            if not 0.0 <= lam <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {lam!r}")
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
        check_positive(duration=self.duration)
        _check_dt(self.dt)
        tick_rate(self.dt)
        ticks = self.duration / self.dt
        if not (math.isfinite(ticks) and round(ticks) >= 1):
            raise ConfigError("duration must cover at least one tick and "
                              "a finite number of them")
        check_finite(yaw=self.yaw)
        # tuples of floats: a caller's later write cannot reach the spec
        for name in ("position", "start_position"):
            value = getattr(self, name)
            if name == "position" or value is not None:
                object.__setattr__(self, name, tuple(
                    finite_vector3(value, name).tolist()))


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
    ux, _, uz = u_body
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

    wind_world is a tuple of three floats, such as WindProfile.vector
    returns. Returns (force, torque), each a tuple of three floats.
    """
    vx, vy, vz, qw, qx, qy, qz = state[3:10]
    wx, wy, wz = wind_world
    u_body = quat.rotate((qw, -qx, -qy, -qz), (vx - wx, vy - wy, vz - wz))
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


# The closed-loop log's columns, one row per tick. The CSV writes all but
# the last, the thrust-priority scale s (1 = no clipping).
LOG_COLUMNS = ("t", "px", "py", "pz", "vx", "vy", "vz", "qw", "qx", "qy",
               "qz", "wx", "wy", "wz", "Td1", "Td2", "Mdx", "Mdy", "d1",
               "d2", "mode", "lambda", "s")
_CSV_COLUMNS = LOG_COLUMNS[:-1]
# ticks whose log rows run_scenario stores at a time
_LOG_CHUNK = 128


class _Column:
    """Read-through view of SimLog.data: column first, or first..last."""

    def __init__(self, first, last=None):
        i = LOG_COLUMNS.index(first)
        self.index = i if last is None \
            else slice(i, LOG_COLUMNS.index(last) + 1)

    def __get__(self, log, owner=None):
        return self if log is None else log.data[:, self.index]


@dataclass
class SimLog:
    """A closed-loop run: data holds one row of LOG_COLUMNS per tick.

    The named attributes are views of data's columns. mode holds the
    WingMode codes as floats (0.0 retracted, 1.0 extended).
    """

    name: str
    data: np.ndarray  # n x len(LOG_COLUMNS)
    config: dict

    t = _Column("t")
    state = _Column("px", "wz")  # n x 13: p, v, q, w
    position = _Column("px", "pz")
    velocity = _Column("vx", "vz")
    quaternion = _Column("qw", "qz")
    body_rate = _Column("wx", "wz")
    td1 = _Column("Td1")
    td2 = _Column("Td2")
    mdx = _Column("Mdx")
    mdy = _Column("Mdy")
    d1 = _Column("d1")
    d2 = _Column("d2")
    mode = _Column("mode")
    lam = _Column("lambda")
    sat_scale = _Column("s")

    MODE_NAMES = {0: "retracted", 1: "extended"}
    COLUMNS = ",".join(_CSV_COLUMNS)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[1] != len(LOG_COLUMNS):
            raise ConfigError(f"log data must be n x {len(LOG_COLUMNS)}")

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

    # one bytes row format per wing mode, the mode's name written in;
    # bytes % formats floats to the same digits as str %, and faster
    _ROW_FORMATS = {
        code: b",".join(name.encode() if c == "mode" else b"%.9g"
                        for c in _CSV_COLUMNS) + b"\n"
        for code, name in MODE_NAMES.items()}
    _MODE = LOG_COLUMNS.index("mode")
    # rows converted to Python floats at a time: 128 writes as fast as
    # 512 and adds no measurable peak memory (512 adds ~0.9 MB)
    _CSV_CHUNK = 128

    def write_csv(self, path):
        head = "".join(f"# {key} = {self.config[key]}\n"
                       for key in sorted(self.config))
        fmts, m, end = self._ROW_FORMATS, self._MODE, len(_CSV_COLUMNS)
        with open(path, "wb") as fh:
            fh.write(f"{head}{self.COLUMNS}\n".encode())
            for a in range(0, len(self.data), self._CSV_CHUNK):
                fh.write(b"".join(
                    fmts[row.pop(m)] % tuple(row)
                    for row in self.data[a:a + self._CSV_CHUNK, :end].tolist()))

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
        "lambda_hover": f"{spec.lam.lam_hover:.9g}",
        "lambda_fw": f"{spec.lam.lam_fw:.9g}",
        "aft_model": "table" if params.aft_table is not None else "linear",
    }
    return snap


def run_scenario(spec, params):
    """Run one scenario, one tick of spec.dt at a time; deterministic for
    fixed inputs."""
    controller = CascadeController(params.cascade, params.mass,
                                   params.gravity, spec.dt)

    start = spec.start_position if spec.start_position is not None \
        else spec.position
    # the tick reads the state's parts as slices, cheaper than properties
    state = VehicleState.at_rest(start)

    n = int(round(spec.duration / spec.dt))
    try:
        data = np.empty((n, len(LOG_COLUMNS)))
    except (ValueError, MemoryError) as exc:
        # numpy: ValueError past its shape limit, MemoryError past memory
        raise ConfigError(f"duration {spec.duration:g} s is {n:.6g} ticks, "
                          f"too many to log") from exc

    # rows are gathered _LOG_CHUNK ticks at a time as one flat list of
    # floats and stored through a flat view of data
    flat = data.reshape(-1)
    chunk = _LOG_CHUNK * len(LOG_COLUMNS)
    rows = []

    transition = spec.mode == "transition"
    setpoint = ControlSetpoint(
        position=spec.position, yaw=spec.yaw,
        pitch_override=transition_profile(0.0) if transition else None)

    # bound once: the loop body looks up no attribute that stays fixed
    # (the module functions stay global lookups, the benchmark's wrap
    # points)
    dt = spec.dt
    mode_at, lam_at, wind_at = spec.wing.mode_at, spec.lam.value, \
        spec.wind.vector
    lam_hover = spec.lam.lam_hover
    alloc, limits = params.alloc, params.limits
    control_step = controller.step
    extended = WingMode.EXTENDED

    for k in range(n):
        t = k * dt
        orientation = state[6:10]
        pitch = measured_pitch(orientation)
        wing_mode = mode_at(pitch)
        lam = lam_at(pitch) if transition else lam_hover

        if transition:
            setpoint.pitch_override = transition_profile(t)
        wrench = control_step(setpoint, state[0:3], state[3:6],
                              orientation, state[10:13])
        cmd, s = saturate(wrench, alloc, lam, limits)

        force, torque = realized_wrench(state, params, cmd, wind_at(t),
                                        wing_mode)

        rows += (t, *state, cmd.t_d1, cmd.t_d2, cmd.m_dx, cmd.m_dy,
                 cmd.d_1, cmd.d_2, 1.0 if wing_mode is extended else 0.0,
                 lam, s)
        if len(rows) == chunk:
            end = (k + 1) * len(LOG_COLUMNS)
            flat[end - chunk:end] = rows
            rows = []

        try:
            state = step_6dof(state, force, torque, params, dt)
        except SimulationFault as exc:
            raise SimulationFault(
                f"tick {k} (t={t:.3f} s): {exc}") from exc

    flat[flat.size - len(rows):] = rows
    return SimLog(spec.name, data, _config_snapshot(spec, params))
