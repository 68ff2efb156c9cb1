"""Control allocation and the cascaded flight controller.

The mixer maps a desired wrench (collective thrust plus three body
torques) to the six actuator channels: two rotor throttles, the fore
rotor's two-axis speed modulation, and two elevon servos. Yaw and pitch
authority is shared between rotors and elevons through the allocation
ratio lam (1 = rotors only, 0 = surfaces only); the split cancels in the
forward model, so mix followed by forward_model is the identity for any
lam.

The cascade runs position P -> velocity PID -> attitude P -> rate PID.
Loop rates subsample a common base clock; outputs are held between
ticks. Attitude control is tilt-prioritized: thrust-axis alignment and
yaw are handled separately so a tailsitter can pitch through large
angles without the yaw error polluting the tilt command.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from . import quat


@dataclass(frozen=True)
class AllocationGains:
    """Static actuator effectiveness constants plus the moment split."""

    c_t1: float = 0.008    # fore rotor thrust per throttle unit, N
    c_t2: float = 0.0065   # aft rotor thrust per throttle unit, N
    k_t1: float = 6.0e-5   # fore rotor yaw torque per throttle unit, N*m
    k_t2: float = 4.0e-5   # aft rotor yaw torque per throttle unit, N*m
    c_m: float = 0.002     # fore rotor moment per modulation unit, N*m
    k_ey: float = 0.6      # elevon pitch torque per servo unit at q_ref, N*m
    k_ez: float = 0.4      # elevon yaw torque per servo unit at q_ref, N*m
    lam: float = 1.0       # rotor share of pitch/yaw moment

    def __post_init__(self):
        for name in ("c_t1", "c_t2", "k_t1", "k_t2", "c_m"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.k_ey == 0.0 or self.k_ez == 0.0:
            raise ConfigError("elevon effectiveness must be nonzero")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lam must lie in [0, 1]")
        if not self.c_t1 * self.k_t2 + self.c_t2 * self.k_t1 > 0.0:
            raise ConfigError("allocation denominator must be positive")
        object.__setattr__(self, "_derived", derived_params(self))


# Wrench and ActuatorCommand are built every tick. They stay frozen, but
# their __init__ (which holds the defaults) fills __dict__ directly: the
# generated frozen __init__ pays one object.__setattr__ per field, about
# three times the cost.

@dataclass(frozen=True, init=False)
class Wrench:
    f_t: float
    tau_x: float
    tau_y: float
    tau_z: float

    def __init__(self, f_t=0.0, tau_x=0.0, tau_y=0.0, tau_z=0.0):
        if not all(map(math.isfinite, (f_t, tau_x, tau_y, tau_z))):
            raise ConfigError("wrench entries must be finite")
        self.__dict__.update(f_t=f_t, tau_x=tau_x, tau_y=tau_y, tau_z=tau_z)


@dataclass(frozen=True, init=False)
class ActuatorCommand:
    t_d1: float   # fore throttle
    t_d2: float   # aft throttle
    m_dx: float   # modulation, x component
    m_dy: float   # modulation, y component
    d_1: float    # elevon 1
    d_2: float    # elevon 2

    def __init__(self, t_d1=0.0, t_d2=0.0, m_dx=0.0, m_dy=0.0, d_1=0.0,
                 d_2=0.0):
        self.__dict__.update(t_d1=t_d1, t_d2=t_d2, m_dx=m_dx, m_dy=m_dy,
                             d_1=d_1, d_2=d_2)


@dataclass(frozen=True)
class ActuatorLimits:
    throttle_min: float = 0.0
    throttle_max: float = 2000.0
    servo_max: float = 0.6

    def __post_init__(self):
        if self.throttle_max <= self.throttle_min:
            raise ConfigError("throttle_max must exceed throttle_min")
        if self.servo_max <= 0.0:
            raise ConfigError("servo_max must be positive")


def derived_params(gains):
    """Closed-form mixer coefficients (eta, kappa, gamma, delta)."""
    den = gains.c_t1 * gains.k_t2 + gains.c_t2 * gains.k_t1
    eta = gains.k_t2 / den
    kappa = gains.k_t1 / den
    gamma = -gains.lam * gains.c_t2 / den
    delta = gains.lam * gains.c_t1 / den
    return eta, kappa, gamma, delta


def mix(wrench, gains):
    """Allocate a wrench to actuator commands (no saturation here)."""
    return ActuatorCommand(*_mix_channels(
        gains._derived, gains, wrench.f_t, wrench.tau_x, wrench.tau_y,
        wrench.tau_z))


def _mix_channels(derived, gains, f_t, tau_x, tau_y, tau_z):
    """mix on plain floats: the six channels (t_d1, t_d2, m_dx, m_dy, d_1,
    d_2), given derived_params(gains)."""
    eta, kappa, gamma, delta = derived
    one_m = 1.0 - gains.lam
    return (
        eta * f_t + gamma * tau_z,
        kappa * f_t + delta * tau_z,
        tau_x / gains.c_m,
        gains.lam * tau_y / gains.c_m,
        one_m * tau_y / (2.0 * gains.k_ey)
        + one_m * tau_z / (2.0 * gains.k_ez),
        one_m * tau_y / (2.0 * gains.k_ey)
        - one_m * tau_z / (2.0 * gains.k_ez),
    )


def forward_model(cmd, gains):
    """Wrench produced by a set of actuator commands."""
    f_t = gains.c_t1 * cmd.t_d1 + gains.c_t2 * cmd.t_d2
    tau_x = gains.c_m * cmd.m_dx
    tau_y = gains.c_m * cmd.m_dy + gains.k_ey * (cmd.d_1 + cmd.d_2)
    tau_z = (
        -gains.k_t1 * cmd.t_d1
        + gains.k_t2 * cmd.t_d2
        + gains.k_ez * (cmd.d_1 - cmd.d_2)
    )
    return Wrench(f_t=f_t, tau_x=tau_x, tau_y=tau_y, tau_z=tau_z)


def modulation_signal(t_d1, m_d, theta, beta_delay=0.0):
    """Instantaneous fore-rotor command with once-per-rev modulation.

    The modulation phase is taken from the direction of m_d in the motor
    frame: phi = atan2(m_x, m_y), zero when the moment demand points
    along +y. Accepts scalar or array theta.
    """
    m_d = np.asarray(m_d, dtype=float)
    amp = math.hypot(float(m_d[0]), float(m_d[1]))
    phi = math.atan2(float(m_d[0]), float(m_d[1]))
    return t_d1 + amp * np.sin(np.asarray(theta, dtype=float) + phi - beta_delay)


def saturate(wrench, gains, limits):
    """Allocate with thrust priority: torques scale down, thrust doesn't.

    Finds the largest s in [0, 1] such that mix(f, s*torque) respects the
    throttle box, the servo box, and the modulation headroom
    (t_d1 +/- |m_d| inside the throttle box). All constraints are affine
    in s, so the bound is exact, not iterated. Returns (command, s).
    """
    derived = gains._derived
    f_t, tau_x, tau_y, tau_z = (wrench.f_t, wrench.tau_x, wrench.tau_y,
                                wrench.tau_z)
    base_t1, base_t2 = _mix_channels(derived, gains, f_t, 0.0, 0.0, 0.0)[:2]
    tq_t1, tq_t2, tq_mx, tq_my, tq_d1, tq_d2 = _mix_channels(
        derived, gains, 0.0, tau_x, tau_y, tau_z)

    lo, hi = limits.throttle_min, limits.throttle_max
    m_amp = math.hypot(tq_mx, tq_my)
    # each row: s * coef <= rhs
    rows = (
        (tq_t1, hi - base_t1),
        (-tq_t1, base_t1 - lo),
        (tq_t2, hi - base_t2),
        (-tq_t2, base_t2 - lo),
        (tq_d1, limits.servo_max),
        (-tq_d1, limits.servo_max),
        (tq_d2, limits.servo_max),
        (-tq_d2, limits.servo_max),
        (m_amp + tq_t1, hi - base_t1),
        (m_amp - tq_t1, base_t1 - lo),
    )
    s = 1.0
    feasible = True
    for coef, rhs in rows:
        if rhs < 0.0:
            feasible = False
        elif coef > 0.0:
            s = min(s, rhs / coef)
    if not feasible:
        # thrust alone exceeds the box; clamp it and drop the torques
        t1 = min(max(base_t1, lo), hi)
        t2 = min(max(base_t2, lo), hi)
        return ActuatorCommand(t_d1=t1, t_d2=t2), 0.0
    s = max(s, 0.0)
    full = _mix_channels(derived, gains, f_t, s * tau_x, s * tau_y,
                         s * tau_z)
    return ActuatorCommand(*full), s


class VectorPid:
    """Per-axis PID with clamped integrator. State is owned, not shared.

    Gains and state are lists of Python floats, one entry per axis;
    step returns the output as such a list.
    """

    def __init__(self, kp, ki, kd, i_limit):
        gains = [np.asarray(g, dtype=float).ravel().tolist()
                 for g in (kp, ki, kd, i_limit)]
        if len({len(g) for g in gains}) != 1:
            raise ConfigError("PID gains must have one entry per axis")
        self.kp, self.ki, self.kd, self.i_limit = gains
        if any(lim < 0.0 for lim in self.i_limit):
            raise ConfigError("integrator limit must be non-negative")
        self.reset()

    def reset(self):
        self.integral = [0.0] * len(self.kp)
        self._prev_err = None

    def step(self, err, dt):
        err = quat.components(err)
        integral = []
        for acc, ki, e, lim in zip(self.integral, self.ki, err, self.i_limit,
                                   strict=True):
            acc = acc + ki * e * dt
            # np.clip(acc, -lim, lim), ties and signed zeros included
            acc = acc if acc > -lim else -lim
            integral.append(acc if acc < lim else lim)
        self.integral = integral
        if self._prev_err is None or dt <= 0.0:
            derr = [0.0] * len(err)
        else:
            derr = [(e - p) / dt for e, p in zip(err, self._prev_err)]
        self._prev_err = err
        return [kp * e + acc + kd * d for kp, e, acc, kd, d
                in zip(self.kp, err, integral, self.kd, derr)]


def _rate_divisor(base, rate, name):
    if rate <= 0 or base % rate != 0:
        raise ConfigError(f"{name} rate {rate} must divide base rate {base}")
    return base // rate


@dataclass(frozen=True)
class CascadeGains:
    pos_p: tuple = (1.0, 1.0, 1.5)
    vel_kp: tuple = (2.5, 2.5, 3.5)
    vel_ki: tuple = (0.8, 0.8, 1.5)
    vel_kd: tuple = (0.0, 0.0, 0.0)
    vel_i_limit: tuple = (4.0, 4.0, 12.0)
    att_p_tilt: float = 6.0
    att_p_yaw: float = 3.0
    rate_kp: tuple = (0.55, 0.65, 0.25)
    rate_ki: tuple = (1.6, 1.9, 0.75)
    rate_kd: tuple = (0.001, 0.001, 0.0)
    rate_i_limit: tuple = (0.5, 0.8, 0.25)
    base_rate: int = 1000
    pos_rate: int = 50
    vel_rate: int = 250
    att_rate: int = 250
    yaw_rate_rate: int = 200

    def __post_init__(self):
        for name in ("pos_rate", "vel_rate", "att_rate", "yaw_rate_rate"):
            _rate_divisor(self.base_rate, getattr(self, name), name)
        flat = (tuple(self.pos_p) + tuple(self.vel_kp) + tuple(self.vel_ki)
                + tuple(self.vel_kd) + tuple(self.vel_i_limit)
                + tuple(self.rate_kp) + tuple(self.rate_ki)
                + tuple(self.rate_kd) + tuple(self.rate_i_limit)
                + (self.att_p_tilt, self.att_p_yaw))
        if not all(math.isfinite(v) for v in flat):
            raise ConfigError("cascade gains must be finite")


@dataclass
class ControlSetpoint:
    """Position/yaw target; pitch_override switches to transition mode.

    With pitch_override set (radians), the attitude setpoint is the given
    pitch about world y composed with the yaw target, the position loop
    controls altitude only, and no lateral force is commanded.
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw: float = 0.0
    pitch_override: float | None = None


class CascadeController:
    """Cascaded position/velocity/attitude/rate controller.

    Owns its integrator and hold state; one instance per vehicle, stepped
    at the base rate. Not safe for concurrent stepping.
    """

    TILT_MIN_PROJECTION = 0.15

    def __init__(self, gains, mass, gravity=9.81):
        if mass <= 0.0:
            raise ConfigError("mass must be positive")
        self.gains = gains
        self.mass = float(mass)
        self.gravity = float(gravity)
        self._vel_pid = VectorPid(gains.vel_kp, gains.vel_ki, gains.vel_kd,
                                  gains.vel_i_limit)
        self._rate_pid = VectorPid(gains.rate_kp, gains.rate_ki, gains.rate_kd,
                                   gains.rate_i_limit)
        # base ticks per update of each loop
        self._every = tuple(gains.base_rate // rate for rate in (
            gains.pos_rate, gains.vel_rate, gains.att_rate,
            gains.yaw_rate_rate))
        self.reset()

    def reset(self):
        self._vel_pid.reset()
        self._rate_pid.reset()
        self._tick = 0
        self._vel_sp = [0.0, 0.0, 0.0]
        self._f_des = np.array([0.0, 0.0, self.mass * self.gravity])
        self._rate_sp = [0.0, 0.0, 0.0]
        self._tau_z = 0.0

    def step(self, setpoint, position, velocity, orientation, body_rate, dt):
        """One base-rate tick; returns the demanded Wrench (body frame).

        The state parts may be arrays or sequences of floats (the
        simulator passes slices of its unpacked state). Vector arithmetic
        runs on Python floats, in the order the array form would use.
        Only np.dot and numpy's transcendental calls stay, because they
        need not round like a left-to-right Python sum or like libm;
        norms are sqrt(v·v) on numpy's dot, which is exactly what
        np.linalg.norm computes (see quat).
        """
        g = self.gains
        transition = setpoint.pitch_override is not None
        pos_every, vel_every, att_every, yaw_every = self._every

        if self._tick % pos_every == 0:
            sp = [k * (a - b) for k, a, b in zip(
                quat.components(g.pos_p), quat.components(setpoint.position),
                quat.components(position))]
            if transition:
                sp[0] = 0.0
                sp[1] = 0.0
            self._vel_sp = sp

        if self._tick % vel_every == 0:
            vdt = dt * vel_every
            err = [a - b for a, b in zip(self._vel_sp,
                                         quat.components(velocity))]
            if transition:
                err[0] = 0.0
                err[1] = 0.0
            acc = self._vel_pid.step(err, vdt)
            if transition:
                acc[0] = 0.0
                acc[1] = 0.0
            self._f_des = np.array([self.mass * (acc[0] + 0.0),
                                    self.mass * (acc[1] + 0.0),
                                    self.mass * (acc[2] + self.gravity)])

        # an array: np.dot's operand for the thrust and the tilt angle
        z_body = quat.rotate(orientation, _Z_AXIS)

        if self._tick % att_every == 0:
            if transition:
                q_sp = quat.multiply(
                    quat.from_axis_angle(_Z_AXIS, setpoint.yaw),
                    quat.from_axis_angle(_Y_AXIS, setpoint.pitch_override),
                )
                z_des = quat.rotate(q_sp, _Z_AXIS)
            else:
                f_norm = quat.norm(self._f_des)
                z_des = (self._f_des / f_norm if f_norm > 1e-9
                         else np.array(_Z_AXIS))
                q_sp = quat.multiply(
                    quat.from_axis_angle(_Z_AXIS, setpoint.yaw),
                    _tilt_quaternion(z_des),
                )
            axis = _cross(z_body, z_des)
            s_n = quat.norm(axis)
            c_n = float(np.dot(z_body, z_des))
            if s_n > 1e-12:
                angle = math.atan2(s_n, c_n)
                tilt_w = [a / s_n * angle for a in axis]
            else:
                tilt_w = [0.0, 0.0, 0.0]
            tilt_b = quat.rotate_floats(quat.conjugate(orientation), tilt_w)
            full_b = quat.error_rotation_vector(orientation, q_sp)
            self._rate_sp = [g.att_p_tilt * tilt_b[0],
                             g.att_p_tilt * tilt_b[1],
                             g.att_p_yaw * full_b[2]]

        rate_err = [a - b for a, b in zip(self._rate_sp,
                                          quat.components(body_rate))]
        tau = self._rate_pid.step(rate_err, dt)
        if self._tick % yaw_every == 0:
            self._tau_z = tau[2]

        if transition:
            proj = max(float(z_body[2]), self.TILT_MIN_PROJECTION)
            thrust = float(self._f_des[2]) / proj
        else:
            thrust = float(np.dot(self._f_des, z_body))
        thrust = max(thrust, 0.0)

        self._tick += 1
        return Wrench(thrust, tau[0], tau[1], self._tau_z)


_Y_AXIS = (0.0, 1.0, 0.0)
_Z_AXIS = (0.0, 0.0, 1.0)


def _cross(a, b):
    """np.cross of two 3-vectors, on Python floats, same operation order."""
    a0, a1, a2 = quat.components(a)
    b0, b1, b2 = quat.components(b)
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _tilt_quaternion(z_des):
    # shortest rotation taking world +z to z_des
    c = float(np.dot(np.array(_Z_AXIS), z_des))
    axis = _cross(_Z_AXIS, z_des)
    s = quat.norm(axis)
    if s < 1e-12:
        if c > 0.0:
            return (1.0, 0.0, 0.0, 0.0)
        return (0.0, 1.0, 0.0, 0.0)
    return quat.from_axis_angle([a / s for a in axis], math.atan2(s, c))
