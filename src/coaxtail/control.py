"""Control allocation and the cascaded flight controller.

The mixer maps a desired wrench (collective thrust plus three body
torques) to the six actuator channels: two rotor throttles, the fore
rotor's two-axis speed modulation, and two elevon servos. Yaw and pitch
authority is shared between rotors and elevons through the allocation
ratio lam (1 = rotors only, 0 = surfaces only), which the caller passes
on every call: the simulator's LambdaSchedule decides it each tick from
the measured pitch. The split cancels in the forward model, so mix
followed by forward_model is the identity for any lam in [0, 1].

The cascade runs position P -> velocity PID -> attitude P -> rate PID.
Loop rates subsample a common base clock; outputs are held between
ticks. Attitude control is tilt-prioritized: thrust-axis alignment and
yaw are handled separately so a tailsitter can pitch through large
angles without the yaw error polluting the tilt command.
"""

import math
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .errors import (ConfigError, check_finite, check_non_negative,
                     check_positive, finite_vector3, tick_rate)
from . import quat


@dataclass(frozen=True)
class AllocationGains:
    """Static actuator effectiveness constants."""

    c_t1: float = 0.008    # fore rotor thrust per throttle unit, N
    c_t2: float = 0.0065   # aft rotor thrust per throttle unit, N
    k_t1: float = 6.0e-5   # fore rotor yaw torque per throttle unit, N*m
    k_t2: float = 4.0e-5   # aft rotor yaw torque per throttle unit, N*m
    c_m: float = 0.002     # fore rotor moment per modulation unit, N*m
    k_ey: float = 0.6      # elevon pitch torque per servo unit at q_ref, N*m
    k_ez: float = 0.4      # elevon yaw torque per servo unit at q_ref, N*m

    def __post_init__(self):
        check_finite(k_ey=self.k_ey, k_ez=self.k_ez)
        check_positive(c_t1=self.c_t1, c_t2=self.c_t2, k_t1=self.k_t1,
                       k_t2=self.k_t2, c_m=self.c_m)
        if self.k_ey == 0.0 or self.k_ez == 0.0:
            raise ConfigError("elevon effectiveness must be nonzero")
        den = self.c_t1 * self.k_t2 + self.c_t2 * self.k_t1
        if not den > 0.0:
            raise ConfigError("allocation denominator must be positive")
        # the mixer coefficients that do not depend on lam
        object.__setattr__(self, "_den_eta_kappa",
                           (den, self.k_t2 / den, self.k_t1 / den))


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
        if not (isfinite(f_t) and isfinite(tau_x) and isfinite(tau_y)
                and isfinite(tau_z)):
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
        check_finite(throttle_min=self.throttle_min,
                     throttle_max=self.throttle_max)
        check_positive(servo_max=self.servo_max)
        if self.throttle_max <= self.throttle_min:
            raise ConfigError("throttle_max must exceed throttle_min")


def derived_params(gains, lam):
    """Closed-form mixer coefficients (eta, kappa, gamma, delta) at the
    allocation ratio lam, which must lie in [0, 1] (NaN is refused)."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lam must lie in [0, 1]")
    den, eta, kappa = gains._den_eta_kappa
    gamma = -lam * gains.c_t2 / den
    delta = lam * gains.c_t1 / den
    return eta, kappa, gamma, delta


def mix(wrench, gains, lam):
    """Allocate a wrench to actuator commands at the allocation ratio lam
    (no saturation here)."""
    eta, kappa, gamma, delta = derived_params(gains, lam)
    f_t, tau_x, tau_y, tau_z = (wrench.f_t, wrench.tau_x, wrench.tau_y,
                                wrench.tau_z)
    one_m = 1.0 - lam
    return ActuatorCommand(
        eta * f_t + gamma * tau_z,
        kappa * f_t + delta * tau_z,
        tau_x / gains.c_m,
        lam * tau_y / gains.c_m,
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


def saturate(wrench, gains, lam, limits):
    """Allocate with thrust priority: torques scale down, thrust doesn't.

    Finds the largest s in [0, 1] such that mix(f, s*torque, lam)
    respects the throttle box, the servo box, and the modulation headroom
    (t_d1 +/- |m_d| inside the throttle box). All constraints are affine
    in s, so the bound is exact, not iterated. Returns (command, s).
    """
    eta, kappa, gamma, delta = derived_params(gains, lam)
    c_m = gains.c_m
    one_m = 1.0 - lam
    ey, ez = 2.0 * gains.k_ey, 2.0 * gains.k_ez
    f_t, tau_x, tau_y, tau_z = (wrench.f_t, wrench.tau_x, wrench.tau_y,
                                wrench.tau_z)
    # the mixer's channels of the thrust alone and of the torques alone,
    # term for term as mix computes them (the zero terms decide
    # the signs of zero channels)
    base_t1 = eta * f_t + gamma * 0.0
    base_t2 = kappa * f_t + delta * 0.0
    tq_t1 = eta * 0.0 + gamma * tau_z
    tq_t2 = kappa * 0.0 + delta * tau_z
    d_y, d_z = one_m * tau_y / ey, one_m * tau_z / ez
    tq_d1, tq_d2 = d_y + d_z, d_y - d_z

    lo, hi, servo = limits.throttle_min, limits.throttle_max, limits.servo_max
    m_amp = math.hypot(tau_x / c_m, lam * tau_y / c_m)
    # s * coef <= rhs for ten rows; only the throttle rows' right-hand
    # sides can be negative, and then thrust alone exceeds the box
    hi_t1, lo_t1 = hi - base_t1, base_t1 - lo
    hi_t2, lo_t2 = hi - base_t2, base_t2 - lo
    if hi_t1 < 0.0 or lo_t1 < 0.0 or hi_t2 < 0.0 or lo_t2 < 0.0:
        # clamp the thrust and drop the torques
        t1 = min(max(base_t1, lo), hi)
        t2 = min(max(base_t2, lo), hi)
        return ActuatorCommand(t_d1=t1, t_d2=t2), 0.0
    # the rows in their order: rhs / coef counts only where coef > 0, and
    # replaces s only where strictly smaller, as min(s, rhs / coef) would
    # (ties keep the earlier row, signed zeros included); of two rows with
    # coefficients c and -c at most one counts, so the servo pairs, which
    # share their rhs, are one row on |c| each
    s = 1.0
    if tq_t1 > 0.0:
        r = hi_t1 / tq_t1
        if r < s:
            s = r
    elif tq_t1 < 0.0:
        r = lo_t1 / -tq_t1
        if r < s:
            s = r
    if tq_t2 > 0.0:
        r = hi_t2 / tq_t2
        if r < s:
            s = r
    elif tq_t2 < 0.0:
        r = lo_t2 / -tq_t2
        if r < s:
            s = r
    coef = abs(tq_d1)
    if coef > 0.0:
        r = servo / coef
        if r < s:
            s = r
    coef = abs(tq_d2)
    if coef > 0.0:
        r = servo / coef
        if r < s:
            s = r
    coef = m_amp + tq_t1
    if coef > 0.0:
        r = hi_t1 / coef
        if r < s:
            s = r
    coef = m_amp - tq_t1
    if coef > 0.0:
        r = lo_t1 / coef
        if r < s:
            s = r
    s = max(s, 0.0)
    tau_x, tau_y, tau_z = s * tau_x, s * tau_y, s * tau_z
    d_y, d_z = one_m * tau_y / ey, one_m * tau_z / ez
    return ActuatorCommand(eta * f_t + gamma * tau_z,
                           kappa * f_t + delta * tau_z, tau_x / c_m,
                           lam * tau_y / c_m, d_y + d_z, d_y - d_z), s


class VectorPid:
    """Per-axis PID with clamped integrator. State is owned, not shared.

    The gains are held as one (kp, ki, kd, i_limit) tuple of Python
    floats per axis; the state (integral, previous error) and step's
    output are lists of Python floats, one entry per axis.
    """

    def __init__(self, kp, ki, kd, i_limit):
        gains = [np.asarray(g, dtype=float).ravel().tolist()
                 for g in (kp, ki, kd, i_limit)]
        if len({len(g) for g in gains}) != 1:
            raise ConfigError("PID gains must have one entry per axis")
        if not all(lim >= 0.0 for lim in gains[3]):
            raise ConfigError("integrator limit must be non-negative")
        self._axes = tuple(zip(*gains))
        self.reset()

    def reset(self):
        self.integral = [0.0] * len(self._axes)
        self._prev_err = None

    def step(self, err, dt):
        """One update on err, a sequence of numbers, one per axis."""
        # a new list, kept as _prev_err: it cannot alias the caller's err
        err = list(err)
        # no derivative on the first step or without elapsed time
        no_derr = self._prev_err is None or dt <= 0.0
        prev = err if no_derr else self._prev_err
        integral = []
        out = []
        for (kp, ki, kd, lim), acc, e, p in zip(
                self._axes, self.integral, err, prev, strict=True):
            acc = acc + ki * e * dt
            # np.clip(acc, -lim, lim), ties and signed zeros included
            if not acc > -lim:
                acc = -lim
            if not acc < lim:
                acc = lim
            integral.append(acc)
            out.append(kp * e + acc + kd * (0.0 if no_derr else (e - p) / dt))
        self.integral = integral
        self._prev_err = err
        return out


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
    pos_rate: int = 50
    vel_rate: int = 250
    att_rate: int = 250
    yaw_rate_rate: int = 200

    def __post_init__(self):
        for name in ("pos_p", "vel_kp", "vel_ki", "vel_kd", "vel_i_limit",
                     "rate_kp", "rate_ki", "rate_kd", "rate_i_limit"):
            finite_vector3(getattr(self, name), name)
        check_finite(att_p_tilt=self.att_p_tilt, att_p_yaw=self.att_p_yaw)


@dataclass
class ControlSetpoint:
    """Position/yaw target; pitch_override switches to transition mode.

    With pitch_override set (radians), the attitude setpoint is the given
    pitch about world y composed with the yaw target, the position loop
    controls altitude only, and no lateral force is commanded.
    """

    position: tuple = (0.0, 0.0, 0.0)
    yaw: float = 0.0
    pitch_override: float | None = None


class CascadeController:
    """Cascaded position/velocity/attitude/rate controller.

    Owns its integrator and hold state; one instance per vehicle, stepped
    once per tick of dt seconds. 1/dt is the base rate, which each of the
    gains' loop rates must divide. Not safe for concurrent stepping.
    """

    TILT_MIN_PROJECTION = 0.15

    def __init__(self, gains, mass, gravity=9.81, dt=1e-3):
        check_positive(mass=mass)
        check_non_negative(gravity=gravity)
        base = tick_rate(dt)
        self.gains = gains
        self.mass = float(mass)
        self.gravity = float(gravity)
        self.dt = float(dt)
        self._vel_pid = VectorPid(gains.vel_kp, gains.vel_ki, gains.vel_kd,
                                  gains.vel_i_limit)
        self._rate_pid = VectorPid(gains.rate_kp, gains.rate_ki, gains.rate_kd,
                                   gains.rate_i_limit)
        self._pos_p = [float(k) for k in gains.pos_p]
        # base ticks per update of each loop
        self._every = tuple(
            _rate_divisor(base, getattr(gains, name), name)
            for name in ("pos_rate", "vel_rate", "att_rate",
                         "yaw_rate_rate"))
        self.reset()

    def reset(self):
        self._vel_pid.reset()
        self._rate_pid.reset()
        self._tick = 0
        self._vel_sp = [0.0, 0.0, 0.0]
        self._f_des = (0.0, 0.0, self.mass * self.gravity)
        self._rate_sp = [0.0, 0.0, 0.0]
        self._tau_z = 0.0
        self._yaw_key = self._override_key = None

    def step(self, setpoint, position, velocity, orientation, body_rate):
        """One tick of dt; returns the demanded Wrench (body frame).

        The setpoint position and the state parts are sequences of
        floats: the simulator passes slices of its float state. Vectors
        are tuples or lists of Python floats throughout, and the
        arithmetic runs in the order the array form would use.
        Only np.dot and numpy's transcendental calls stay, because they
        need not round like a left-to-right Python sum or like libm;
        norms are sqrt(v·v) on numpy's dot, which is exactly what
        np.linalg.norm computes (see quat).
        """
        tick = self._tick
        transition = setpoint.pitch_override is not None
        pos_every, vel_every, att_every, yaw_every = self._every

        if tick % pos_every == 0:
            sp = [k * (a - b) for k, a, b in zip(
                self._pos_p, setpoint.position, position)]
            if transition:
                sp[0] = 0.0
                sp[1] = 0.0
            self._vel_sp = sp

        if tick % vel_every == 0:
            vdt = self.dt * vel_every
            s0, s1, s2 = self._vel_sp
            v0, v1, v2 = velocity
            err = [s0 - v0, s1 - v1, s2 - v2]
            if transition:
                err[0] = 0.0
                err[1] = 0.0
            acc = self._vel_pid.step(err, vdt)
            if transition:
                acc[0] = 0.0
                acc[1] = 0.0
            self._f_des = (self.mass * (acc[0] + 0.0),
                           self.mass * (acc[1] + 0.0),
                           self.mass * (acc[2] + self.gravity))

        z_body = quat.rotate(orientation, _Z_AXIS)

        if tick % att_every == 0:
            if transition:
                q_sp, z_des = self._override_setpoint(
                    setpoint.yaw, setpoint.pitch_override)
            else:
                f0, f1, f2 = self._f_des
                f_norm = quat.norm(self._f_des)
                z_des = ((f0 / f_norm, f1 / f_norm, f2 / f_norm)
                         if f_norm > 1e-9 else _Z_AXIS)
                q_sp = quat.multiply(self._yaw_rotation(setpoint.yaw),
                                     _tilt_quaternion(z_des))
            axis = a0, a1, a2 = _cross(z_body, z_des)
            s_n = quat.norm(axis)
            c_n = float(np.dot(z_body, z_des))
            if s_n > 1e-12:
                angle = math.atan2(s_n, c_n)
                tilt_w = (a0 / s_n * angle, a1 / s_n * angle,
                          a2 / s_n * angle)
            else:
                tilt_w = (0.0, 0.0, 0.0)
            tilt_b = quat.rotate(quat.conjugate(orientation), tilt_w)
            full_b = quat.error_rotation_vector(orientation, q_sp)
            g = self.gains
            self._rate_sp = [g.att_p_tilt * tilt_b[0],
                             g.att_p_tilt * tilt_b[1],
                             g.att_p_yaw * full_b[2]]

        r0, r1, r2 = self._rate_sp
        w0, w1, w2 = body_rate
        tau = self._rate_pid.step([r0 - w0, r1 - w1, r2 - w2], self.dt)
        if tick % yaw_every == 0:
            self._tau_z = tau[2]

        if transition:
            proj = max(z_body[2], self.TILT_MIN_PROJECTION)
            thrust = self._f_des[2] / proj
        else:
            thrust = float(np.dot(self._f_des, z_body))
        thrust = max(thrust, 0.0)

        self._tick = tick + 1
        return Wrench(thrust, tau[0], tau[1], self._tau_z)

    # The attitude setpoints below are kept while their inputs keep their
    # values and signs (0.0 and -0.0 give different quaternions): the yaw
    # target is fixed for a scenario, and the transition's pitch profile
    # holds for about half of its run.

    def _yaw_rotation(self, yaw):
        """from_axis_angle(z, yaw)."""
        key = (yaw, math.copysign(1.0, yaw))
        if key != self._yaw_key:
            self._yaw_key = key
            self._q_yaw = quat.from_axis_angle(_Z_AXIS, yaw)
        return self._q_yaw

    def _override_setpoint(self, yaw, pitch):
        """(q_sp, z_des) of a pitch override: yaw composed with pitch about
        world y, and the body z axis it asks for."""
        key = (yaw, math.copysign(1.0, yaw), pitch, math.copysign(1.0, pitch))
        if key != self._override_key:
            q_sp = quat.multiply(self._yaw_rotation(yaw),
                                 quat.from_axis_angle(_Y_AXIS, pitch))
            self._override_key = key
            self._override = (q_sp, quat.rotate(q_sp, _Z_AXIS))
        return self._override


_Y_AXIS = (0.0, 1.0, 0.0)
_Z_AXIS = (0.0, 0.0, 1.0)


def _cross(a, b):
    """np.cross of two 3-vectors, on Python floats, same operation order."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _tilt_quaternion(z_des):
    # shortest rotation taking world +z to z_des
    c = float(np.dot(_Z_AXIS, z_des))
    axis = _cross(_Z_AXIS, z_des)
    s = quat.norm(axis)
    if s < 1e-12:
        if c > 0.0:
            return (1.0, 0.0, 0.0, 0.0)
        return (0.0, 1.0, 0.0, 0.0)
    return quat.from_axis_angle([a / s for a in axis], math.atan2(s, c))
