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
from collections import namedtuple
from dataclasses import dataclass
from math import isfinite

from .errors import (ConfigError, check_finite, check_positive,
                     finite_vector3, tick_rate)
from . import quat
from .stock import FULL_THROTTLE, GRAVITY


@dataclass(frozen=True)
class AllocationGains:
    """Static actuator effectiveness constants."""

    c_t1: float = 0.008    # fore rotor thrust per throttle unit, N
    c_t2: float = 0.0065   # aft rotor thrust per throttle unit, N
    k_t1: float = 6.0e-5   # fore rotor yaw torque per throttle unit, N*m
    k_t2: float = 4.0e-5   # aft rotor yaw torque per throttle unit, N*m
    c_m: float = 0.002     # fore rotor cyclic moment per modulation unit, N*m
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


# the stock airframe's mixer; a --gains file builds another for mix-check
ALLOCATION = AllocationGains()


# Wrench is built every tick. It stays frozen, but its __init__ (which
# holds the defaults and checks the entries) fills __dict__ directly: the
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


# the six actuator channels: fore and aft throttle, the fore rotor's
# modulation (x, y) and the two elevon servos; in the order of the log's
# Td1 ... d2 columns
ActuatorCommand = namedtuple("ActuatorCommand", "t_d1 t_d2 m_dx m_dy d_1 d_2",
                             defaults=(0.0,) * 6)


# the stock actuator box, which saturate holds the command to: each
# throttle in [THROTTLE_MIN, stock.FULL_THROTTLE], each servo in
# [-SERVO_MAX, SERVO_MAX]
THROTTLE_MIN = 0.0
SERVO_MAX = 0.6


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


def saturate(wrench, gains, lam):
    """Allocate with thrust priority: torques scale down, thrust doesn't.

    Finds the largest s in [0, 1] such that mix(f, s*torque, lam)
    respects the stock throttle box, the servo box, and the modulation
    headroom (t_d1 +/- |m_d| inside the throttle box). All constraints
    are affine in s, so the bound is exact, not iterated. Returns
    (command, s).
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

    lo, hi, servo = THROTTLE_MIN, FULL_THROTTLE, SERVO_MAX
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


def pid_step(gains, integral, prev, err, dt):
    """One three-axis PID update with a clamped integrator: (output,
    integral), each three floats. gains is kp, ki, kd and i_limit, three
    axes each; prev is the last update's err, or None on the first, which
    adds kd * 0.0 in place of the derivative. dt must be positive."""
    e0, e1, e2 = err
    (kp0, kp1, kp2, ki0, ki1, ki2, kd0, kd1, kd2,
     lim0, lim1, lim2) = gains
    a0, a1, a2 = integral
    # np.clip(acc, -lim, lim), ties, signed zeros and NaN included
    a0 = a0 + ki0 * e0 * dt
    if a0 <= -lim0:
        a0 = -lim0
    if a0 >= lim0:
        a0 = lim0
    a1 = a1 + ki1 * e1 * dt
    if a1 <= -lim1:
        a1 = -lim1
    if a1 >= lim1:
        a1 = lim1
    a2 = a2 + ki2 * e2 * dt
    if a2 <= -lim2:
        a2 = -lim2
    if a2 >= lim2:
        a2 = lim2
    if prev is None:
        return (kp0 * e0 + a0 + kd0 * 0.0, kp1 * e1 + a1 + kd1 * 0.0,
                kp2 * e2 + a2 + kd2 * 0.0), (a0, a1, a2)
    p0, p1, p2 = prev
    return (kp0 * e0 + a0 + kd0 * ((e0 - p0) / dt),
            kp1 * e1 + a1 + kd1 * ((e1 - p1) / dt),
            kp2 * e2 + a2 + kd2 * ((e2 - p2) / dt)), (a0, a1, a2)


# The stock cascade tuning, one entry per world (position, velocity) or
# body (rate) axis: position P -> velocity PID -> attitude P -> rate PID.
POS_P = (1.0, 1.0, 1.5)
VEL_KP = (2.5, 2.5, 3.5)
VEL_KI = (0.8, 0.8, 1.5)
VEL_KD = (0.0, 0.0, 0.0)
VEL_I_LIMIT = (4.0, 4.0, 12.0)
ATT_P_TILT = 6.0
ATT_P_YAW = 3.0
RATE_KP = (0.55, 0.65, 0.25)
RATE_KI = (1.6, 1.9, 0.75)
RATE_KD = (0.001, 0.001, 0.0)
RATE_I_LIMIT = (0.5, 0.8, 0.25)
# each PID's gains as pid_step takes them
_VEL_GAINS = VEL_KP + VEL_KI + VEL_KD + VEL_I_LIMIT
_RATE_GAINS = RATE_KP + RATE_KI + RATE_KD + RATE_I_LIMIT
# update rates in Hz of the position, velocity, attitude and yaw-torque
# loops; each must divide the base rate 1/dt
LOOP_RATES = (("pos_rate", 50), ("vel_rate", 250), ("att_rate", 250),
              ("yaw_rate_rate", 200))


def loop_divisors(dt):
    """Base ticks per update of each LOOP_RATES loop at a tick of dt
    seconds; ConfigError unless 1/dt is a whole rate that each divides."""
    base = tick_rate(dt)
    for name, rate in LOOP_RATES:
        if base % rate != 0:
            raise ConfigError(f"{name} rate {rate} must divide base rate "
                              f"{base}")
    return tuple(base // rate for _, rate in LOOP_RATES)


@dataclass
class ControlSetpoint:
    """Position/yaw target; pitch_override switches to transition mode.

    With pitch_override set (radians), the attitude setpoint is the given
    pitch about world y composed with the yaw target, the position loop
    controls altitude only, and no lateral force is commanded.

    Construction holds position as a tuple of three finite floats and
    refuses a yaw or pitch_override that is not finite, naming the field.
    step checks yaw and pitch_override again, since a caller may assign
    them later (run_scenario sets pitch_override every tick).
    """

    position: tuple = (0.0, 0.0, 0.0)
    yaw: float = 0.0
    pitch_override: float | None = None

    def __post_init__(self):
        self.position = tuple(finite_vector3(self.position,
                                             "position").tolist())
        check_finite(yaw=self.yaw)
        if self.pitch_override is not None:
            check_finite(pitch_override=self.pitch_override)


class CascadeController:
    """Cascaded position/velocity/attitude/rate controller.

    One instance per vehicle, stepped once per tick of dt seconds. 1/dt
    is the base rate, which each of the LOOP_RATES must divide. Not safe
    for concurrent stepping. The state is the tick count _tick; the held
    velocity setpoint _vel_sp, force demand _f_des, rate setpoint
    _rate_sp and yaw torque _tau_z; and each PID's integral and previous
    error, _vel_integral, _vel_prev, _rate_integral and _rate_prev (None
    before the loop's first update). Each is a number, a tuple of three
    floats or None, so copy.copy(ctl) is a snapshot and assigning its
    attributes back restores it. _yaw_key, _q_yaw, _override_key and
    _override only cache the attitude setpoints.
    """

    TILT_MIN_PROJECTION = 0.15

    def __init__(self, mass, dt=1e-3):
        check_positive(mass=mass)
        self._every = loop_divisors(dt)
        self.mass = float(mass)
        self.dt = float(dt)
        self.reset()

    def reset(self):
        self._tick = 0
        self._vel_sp = (0.0, 0.0, 0.0)
        self._vel_integral = (0.0, 0.0, 0.0)
        self._vel_prev = None
        self._f_des = (0.0, 0.0, self.mass * GRAVITY)
        self._rate_sp = (0.0, 0.0, 0.0)
        self._rate_integral = (0.0, 0.0, 0.0)
        self._rate_prev = None
        self._tau_z = 0.0
        self._yaw_key = self._override_key = None

    def step(self, setpoint, position, velocity, orientation, body_rate):
        """One tick of dt; returns the demanded Wrench (body frame).

        The setpoint position and the state parts are sequences of
        floats: the simulator passes slices of its float state. Vectors
        are tuples or lists of Python floats throughout, and the
        arithmetic runs in the order the array form would use. Dot
        products and norms are quat.dot and quat.norm, left-to-right sums
        that do not depend on a BLAS kernel. Sines, cosines and
        arctangents are libm's (math.atan2 here, math.sin, math.cos and
        math.atan2 in quat), which round the same whatever numpy
        dispatches to, but as the libm variant glibc picks by CPU. The
        step calls no numpy.
        """
        tick = self._tick
        transition = setpoint.pitch_override is not None
        pos_every, vel_every, att_every, yaw_every = self._every

        if tick % pos_every == 0:
            k0, k1, k2 = POS_P
            p0, p1, p2 = setpoint.position
            x0, x1, x2 = position
            sp_z = k2 * (p2 - x2)
            self._vel_sp = ((0.0, 0.0, sp_z) if transition
                            else (k0 * (p0 - x0), k1 * (p1 - x1), sp_z))

        if tick % vel_every == 0:
            s0, s1, s2 = self._vel_sp
            v0, v1, v2 = velocity
            err = ((0.0, 0.0, s2 - v2) if transition
                   else (s0 - v0, s1 - v1, s2 - v2))
            (a0, a1, a2), self._vel_integral = pid_step(
                _VEL_GAINS, self._vel_integral, self._vel_prev, err,
                self.dt * vel_every)
            self._vel_prev = err
            if transition:
                a0 = a1 = 0.0
            self._f_des = (self.mass * (a0 + 0.0), self.mass * (a1 + 0.0),
                           self.mass * (a2 + GRAVITY))

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
            c_n = quat.dot(z_body, z_des)
            if s_n > 1e-12:
                angle = math.atan2(s_n, c_n)
                tilt_w = (a0 / s_n * angle, a1 / s_n * angle,
                          a2 / s_n * angle)
            else:
                tilt_w = (0.0, 0.0, 0.0)
            tilt_b = quat.rotate(quat.conjugate(orientation), tilt_w)
            full_b = quat.error_rotation_vector(orientation, q_sp)
            self._rate_sp = (ATT_P_TILT * tilt_b[0],
                             ATT_P_TILT * tilt_b[1],
                             ATT_P_YAW * full_b[2])

        r0, r1, r2 = self._rate_sp
        w0, w1, w2 = body_rate
        err = (r0 - w0, r1 - w1, r2 - w2)
        tau, self._rate_integral = pid_step(
            _RATE_GAINS, self._rate_integral, self._rate_prev, err, self.dt)
        self._rate_prev = err
        if tick % yaw_every == 0:
            self._tau_z = tau[2]

        if transition:
            proj = max(z_body[2], self.TILT_MIN_PROJECTION)
            thrust = self._f_des[2] / proj
        else:
            thrust = quat.dot(self._f_des, z_body)
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
            # math.sin raises on an infinite angle, where np.sin gave NaN
            check_finite(yaw=yaw)
            self._yaw_key = key
            self._q_yaw = quat.from_axis_angle(_Z_AXIS, yaw)
        return self._q_yaw

    def _override_setpoint(self, yaw, pitch):
        """(q_sp, z_des) of a pitch override: yaw composed with pitch about
        world y, and the body z axis it asks for."""
        key = (yaw, math.copysign(1.0, yaw), pitch, math.copysign(1.0, pitch))
        if key != self._override_key:
            check_finite(pitch_override=pitch)
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
    c = quat.dot(_Z_AXIS, z_des)
    axis = _cross(_Z_AXIS, z_des)
    s = quat.norm(axis)
    if s < 1e-12:
        if c > 0.0:
            return (1.0, 0.0, 0.0, 0.0)
        return (0.0, 1.0, 0.0, 0.0)
    return quat.from_axis_angle([a / s for a in axis], math.atan2(s, c))
