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
  chordwise flow component, by aero's full-envelope panel law
  (aero.tandem_wrench). Spanwise flow produces nothing because only
  chordwise flow carries dynamic pressure. Retracted wings produce
  exactly zero force, which is what the retract maneuver buys: the wing
  planform's share of crossflow drag disappears with it.
"""

import math
import mmap
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from . import kernels, quat
from .aero import TandemConfig, WingMode, WingPanel, tandem_wrench
from .control import (
    ALLOCATION,
    CascadeController,
    ControlSetpoint,
    loop_divisors,
    saturate,
)
from .errors import (ConfigError, SimulationFault, check_finite,
                     check_non_negative, check_positive, finite_matrix3,
                     finite_vector3, float_array)
from .stock import CRUISE_SPEED, GRAVITY, MASS, RHO

# a tick's range: 1 us to 1 ms
_MIN_DT = 1e-6
_MAX_DT = 1e-3 + 1e-12
# dynamic pressure at which the elevons have the mixer's nominal authority
_ELEVON_Q_REF = 0.5 * RHO * CRUISE_SPEED ** 2
# the rigid step's gravity, world frame (z up)
_G_WORLD = (0.0, 0.0, -GRAVITY)


# stock tandem geometry: 480x100 and 560x100 panels at 4.5 and 2 deg
_TANDEM = TandemConfig(
    front=WingPanel(area=0.048, lift_slope=2.2, cl0=0.32,
                    incidence=math.radians(4.5), arm=0.24),
    rear=WingPanel(area=0.056, lift_slope=2.2, cl0=0.32,
                   incidence=math.radians(2.0), arm=0.30),
)


@dataclass(frozen=True)
class VehicleParams:
    mass: float = MASS
    # a diagonal 3x3 array-like (principal axes); held as a read-only
    # float array
    inertia: np.ndarray = ((0.022, 0.0, 0.0),
                           (0.0, 0.025, 0.0),
                           (0.0, 0.0, 0.010))
    tandem: TandemConfig = _TANDEM
    drag_cd: float = 1.0
    lateral_area: float = 0.0453  # bare-body side area, m^2 (wings excluded)
    axial_area: float = 0.015
    aft_table: object = None  # optional PropellerTable
    aft_speed_per_count: float = 0.16  # rev/s per throttle count

    def __post_init__(self):
        check_positive(mass=self.mass, drag_cd=self.drag_cd,
                       lateral_area=self.lateral_area,
                       axial_area=self.axial_area,
                       aft_speed_per_count=self.aft_speed_per_count)
        # a read-only copy: the moments unpacked below must not go stale
        inertia = finite_matrix3(self.inertia, "inertia")
        diag = inertia.diagonal().tolist()
        if np.count_nonzero(inertia) > np.count_nonzero(diag):
            raise ConfigError("inertia must be diagonal (principal axes): "
                              "products of inertia are not modelled")
        if not min(diag) > 0.0:
            raise ConfigError(f"inertia's diagonal entries must be positive, "
                              f"got {diag}")
        object.__setattr__(self, "inertia", inertia)
        # the principal moments and their inverses, unpacked once for the
        # rigid-step kernel; 1.0 / d is np.linalg.inv's diagonal to the bit
        object.__setattr__(self, "_inertia_diag", diag)
        object.__setattr__(self, "_inertia_inv_diag", [1.0 / d for d in diag])


_STATE_PARTS = (("position", 3), ("velocity", 3), ("orientation", 4),
                ("body_rate", 3))


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


def pack_state(position, velocity=(0.0, 0.0, 0.0),
               orientation=(1.0, 0.0, 0.0, 0.0), body_rate=(0.0, 0.0, 0.0)):
    """The rigid-body state, the tuple of 13 floats [p, v, q (wxyz), w]
    that the tick carries, from its four parts (the orientation is body
    to world); validated once (finite entries, unit quaternion)."""
    values = []
    for (name, size), part in zip(_STATE_PARTS, (position, velocity,
                                                  orientation, body_rate)):
        arr = float_array(part, (size,))
        if arr is None:
            raise ConfigError(f"{name} must hold {size} numbers")
        values += arr.tolist()
    _check_state(values)
    return tuple(values)


_BODY_Z = (0.0, 0.0, 1.0)


def measured_pitch(orientation):
    """Pitch angle (rad): asin of the world-x component of body +z.

    orientation is (w, x, y, z) as Python floats.
    """
    x_w = quat.rotate(orientation, _BODY_Z)[0]
    return math.asin(min(1.0, max(-1.0, x_w)))


def _check_dt(dt):
    """ConfigError unless dt lies in [1 us, 1 ms]; NaN is refused."""
    if not _MIN_DT <= dt <= _MAX_DT:
        raise ConfigError(f"dt must lie in [1 us, 1 ms], got {dt!r}")


def step_6dof(state, force_body, torque_body, params, dt):
    """Advance the rigid body one RK4 step under body force/torque + gravity.

    state is the 13-float tuple of pack_state. Returns the kernel's next
    state, validated (finite entries, unit quaternion) once, here.
    force_body and torque_body are tuples of three floats, such as
    realized_wrench returns.
    """
    # _check_dt's rule, tested inline to save the call; it raises
    if not _MIN_DT <= dt <= _MAX_DT:
        _check_dt(dt)
    fx, fy, fz = force_body
    tx, ty, tz = torque_body
    if not (isfinite(fx) and isfinite(fy) and isfinite(fz)
            and isfinite(tx) and isfinite(ty) and isfinite(tz)):
        raise SimulationFault("non-finite force or torque input")
    out = kernels.rigid_step(state, force_body, torque_body, params.mass,
                             params._inertia_diag, params._inertia_inv_diag,
                             _G_WORLD, dt)
    _check_state(out)
    return out


# The transition maneuver's breakpoints, pitch (rad) and time (s), which
# transition_profile follows and SimLog.transition_tracking's windows
# read
_PITCH_START = math.radians(-10.0)
_PITCH_CRUISE = math.radians(-80.0)
_RAMP_START = 2.0
_RAMP_END = 22.0
_CRUISE_END = 42.0
_LEVEL_AT = 44.0


def transition_profile(t):
    """Pitch setpoint (rad) for the transition maneuver.

    Hold -10 deg for 2 s, ramp linearly to -80 deg over 20 s, hold for
    20 s, ramp back to 0 deg over 2 s, then hold level.
    """
    if not t >= 0.0:
        raise ConfigError(f"profile time must be non-negative, got {t!r}")
    if t < _RAMP_START:
        return _PITCH_START
    if t < _RAMP_END:
        return _PITCH_START + (t - _RAMP_START) / (_RAMP_END - _RAMP_START) \
            * (_PITCH_CRUISE - _PITCH_START)
    if t < _CRUISE_END:
        return _PITCH_CRUISE
    if t <= _LEVEL_AT:
        return _PITCH_CRUISE * (1.0 - (t - _CRUISE_END)
                                / (_LEVEL_AT - _CRUISE_END))
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
        n = quat.norm(d)
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
        loop_divisors(self.dt)
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


def _drag_body(ux, uy, uz, lateral_area, axial_area, cd):
    """Quadratic per-axis body drag from the body-frame flow (ux, uy, uz),
    as a tuple of floats."""
    k = -0.5 * RHO * cd
    return (k * lateral_area * abs(ux) * ux,
            k * lateral_area * abs(uy) * uy,
            k * axial_area * abs(uz) * uz)


def _aft_thrust(params, t_d2, axial_speed):
    table = params.aft_table
    if table is None:
        return ALLOCATION.c_t2 * t_d2
    n = params.aft_speed_per_count * t_d2
    if n <= 1e-9:
        return 0.0
    j = max(0.0, axial_speed) / (n * table.diameter)
    j = min(table.j_max, max(table.j_min, j))
    ct, _ = table.coefficients(j, n)
    return ct * RHO * n * n * table.diameter ** 4


def realized_wrench(state, params, cmd, wind_world, wing_mode):
    """Aggregate non-gravity force and torque in the body frame; the
    actuator maps are the stock mixer's, control.ALLOCATION.

    wind_world is a tuple of three floats, such as WindProfile.vector
    returns. Returns (force, torque), each a tuple of three floats.
    """
    vx, vy, vz, qw, qx, qy, qz = state[3:10]
    wx, wy, wz = wind_world
    u_body = quat.rotate((qw, -qx, -qy, -qz), (vx - wx, vy - wy, vz - wz))
    ux, uy, uz = u_body
    alloc = ALLOCATION

    thrust = alloc.c_t1 * cmd.t_d1 + _aft_thrust(params, cmd.t_d2, uz)
    drag_x, drag_y, drag_z = _drag_body(
        ux, uy, uz, params.lateral_area, params.axial_area, params.drag_cd)
    v_plane_sq = ux * ux + uz * uz
    q_plane = 0.5 * RHO * v_plane_sq
    wing_fx = wing_ty = 0.0
    if wing_mode is WingMode.EXTENDED and v_plane_sq >= 1e-12:
        wing_fx, wing_ty = tandem_wrench(params.tandem, q_plane,
                                         math.atan2(-ux, uz))
    force = (0.0 + drag_x + wing_fx, 0.0 + drag_y, thrust + drag_z)

    q_scale = q_plane / _ELEVON_Q_REF
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
# the log buffer's mapping flags: MAP_PRIVATE where the platform has it,
# so after a fork each process writes its own copy of a log
_PRIVATE = ({"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE")
            else {})


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
        mode = self.mode
        bad = np.flatnonzero((mode != 0.0) & (mode != 1.0))
        if bad.size:
            row = int(bad[0])
            raise ConfigError(f"log mode must be 0.0 or 1.0 (a WingMode "
                              f"code), got {float(mode[row])!r} in row {row}")

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

        The RMS of pitch minus transition_profile over its ramp (2-22 s),
        and the mean |v_x| over the last second of its cruise hold
        (41-42 s), as acceptance criterion 8 computes them; either is None
        when the log does not reach its window.
        """
        ramp = (self.t >= _RAMP_START) & (self.t <= _RAMP_END)
        cruise = (self.t >= _CRUISE_END - 1.0) & (self.t < _CRUISE_END)
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
    controller = CascadeController(params.mass, spec.dt)

    start = spec.start_position if spec.start_position is not None \
        else spec.position
    state = pack_state(start)

    n = int(round(spec.duration / spec.dt))
    try:
        # an anonymous mapping, not malloc: its pages leave the process
        # with the log's last view
        buf = mmap.mmap(-1, n * len(LOG_COLUMNS) * 8, **_PRIVATE)
    except (OverflowError, OSError) as exc:
        # OverflowError past sys.maxsize bytes, OSError (ENOMEM) past memory
        raise ConfigError(f"duration {spec.duration:g} s is {n:.6g} ticks, "
                          f"too many to log") from exc
    data = np.frombuffer(buf).reshape(n, len(LOG_COLUMNS))

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
    alloc = ALLOCATION
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
        cmd, s = saturate(wrench, alloc, lam)

        force, torque = realized_wrench(state, params, cmd, wind_at(t),
                                        wing_mode)

        rows += (t, *state, *cmd, 1.0 if wing_mode is extended else 0.0,
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
