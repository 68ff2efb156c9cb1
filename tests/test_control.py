"""Mixer algebra, saturation, and cascade structure."""

import copy
import json
import math
import types

import numpy as np
import pytest

from coaxtail import control, quat, rotor
from coaxtail.errors import ConfigError
from coaxtail.control import (
    SERVO_MAX,
    THROTTLE_MIN,
    ActuatorCommand,
    AllocationGains,
    CascadeController,
    ControlSetpoint,
    Wrench,
    _cross,
    _tilt_quaternion,
    derived_params,
    forward_model,
    loop_divisors,
    mix,
    pid_step,
    saturate,
)
from coaxtail.stock import FULL_THROTTLE

UNIT = AllocationGains(c_t1=1.0, c_t2=1.0, k_t1=1.0, k_t2=1.0, c_m=1.0,
                       k_ey=1.0, k_ez=1.0)


def random_gains(rng):
    """(gains, lam): random effectiveness constants and allocation ratio."""
    gains = AllocationGains(
        c_t1=rng.uniform(0.001, 2.0),
        c_t2=rng.uniform(0.001, 2.0),
        k_t1=rng.uniform(1e-5, 0.5),
        k_t2=rng.uniform(1e-5, 0.5),
        c_m=rng.uniform(1e-4, 0.1),
        k_ey=rng.uniform(0.01, 0.5) * rng.choice([-1.0, 1.0]),
        k_ez=rng.uniform(0.01, 0.5) * rng.choice([-1.0, 1.0]),
    )
    return gains, rng.uniform(0.0, 1.0)


def random_wrench(rng):
    return Wrench(*(rng.uniform(-20.0, 20.0, 4)))


class TestDerivedParams:
    def test_unit_gains(self):
        eta, kappa, gamma, delta = derived_params(UNIT, 1.0)
        assert (eta, kappa, gamma, delta) == (0.5, 0.5, -0.5, 0.5)

    def test_lambda_zero_removes_rotor_yaw(self):
        _, _, gamma, delta = derived_params(UNIT, 0.0)
        assert gamma == 0.0 and delta == 0.0

    def test_thrust_partition_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g, lam = random_gains(rng)
            eta, kappa, _, _ = derived_params(g, lam)
            assert eta * g.c_t1 + kappa * g.c_t2 == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            AllocationGains(c_t1=0.0)
        with pytest.raises(ConfigError):
            AllocationGains(k_ey=0.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_lam_outside_unit_interval_refused(self, bad):
        w = Wrench(8.0, 0.05, 0.02, 0.001)
        for call in (lambda: derived_params(UNIT, bad),
                     lambda: mix(w, UNIT, bad),
                     lambda: saturate(w, UNIT, bad)):
            with pytest.raises(ConfigError, match=r"lam must lie in \[0, 1\]"):
                call()


class TestMixForward:
    def test_zero_wrench_zero_command(self):
        cmd = mix(Wrench(), UNIT, 1.0)
        assert cmd == ActuatorCommand()

    def test_unit_substitution(self):
        cmd = mix(Wrench(f_t=2.0), UNIT, 1.0)
        assert cmd.t_d1 == pytest.approx(1.0, abs=1e-15)
        assert cmd.t_d2 == pytest.approx(1.0, abs=1e-15)
        assert cmd.m_dx == cmd.m_dy == cmd.d_1 == cmd.d_2 == 0.0

    def test_forward_substitution(self):
        w = forward_model(ActuatorCommand(t_d1=1.0, t_d2=1.0), UNIT)
        assert w.f_t == pytest.approx(2.0)
        assert w.tau_z == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_elevons_cancel_yaw(self):
        w = forward_model(ActuatorCommand(d_1=0.3, d_2=0.3), UNIT)
        assert w.tau_z == pytest.approx(0.0, abs=1e-15)
        assert w.tau_y == pytest.approx(2.0 * UNIT.k_ey * 0.3, rel=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(1000):
            g, lam = random_gains(rng)
            w = random_wrench(rng)
            back = forward_model(mix(w, g, lam), g)
            worst = max(worst, abs(back.f_t - w.f_t), abs(back.tau_x - w.tau_x),
                        abs(back.tau_y - w.tau_y), abs(back.tau_z - w.tau_z))
        assert worst < 1e-9

    def test_round_trip_lambda_endpoints(self):
        rng = np.random.default_rng(3)
        g = AllocationGains()
        for lam in (0.0, 1.0):
            for _ in range(50):
                w = random_wrench(rng)
                back = forward_model(mix(w, g, lam), g)
                assert back.tau_z == pytest.approx(w.tau_z, abs=1e-9)

    def test_lambda_one_zeroes_elevons(self):
        cmd = mix(Wrench(3.0, 0.5, -0.4, 0.2), AllocationGains(), 1.0)
        assert cmd.d_1 == 0.0 and cmd.d_2 == 0.0

    def test_lambda_zero_zeroes_rotor_shares(self):
        cmd = mix(Wrench(3.0, 0.5, -0.4, 0.2), AllocationGains(), 0.0)
        assert cmd.m_dy == 0.0
        eta, kappa, _, _ = derived_params(AllocationGains(), 0.0)
        assert cmd.t_d1 == pytest.approx(eta * 3.0, rel=1e-12)
        assert cmd.t_d2 == pytest.approx(kappa * 3.0, rel=1e-12)

    def test_mix_linearity(self):
        rng = np.random.default_rng(23)
        g, lam = random_gains(rng)
        w1, w2 = random_wrench(rng), random_wrench(rng)
        a, b = 1.7, -0.6
        combo = Wrench(a * w1.f_t + b * w2.f_t, a * w1.tau_x + b * w2.tau_x,
                       a * w1.tau_y + b * w2.tau_y, a * w1.tau_z + b * w2.tau_z)
        lhs = mix(combo, g, lam)
        m1, m2 = mix(w1, g, lam), mix(w2, g, lam)
        for f in ("t_d1", "t_d2", "m_dx", "m_dy", "d_1", "d_2"):
            assert getattr(lhs, f) == pytest.approx(
                a * getattr(m1, f) + b * getattr(m2, f), rel=1e-12, abs=1e-12)

    def test_common_scaling_invariance(self):
        # scaling the effectiveness constants and the wrench by the same
        # factor leaves the commands unchanged
        rng = np.random.default_rng(31)
        g, lam = random_gains(rng)
        w = random_wrench(rng)
        s = 3.7
        g2 = AllocationGains(c_t1=s * g.c_t1, c_t2=s * g.c_t2, k_t1=s * g.k_t1,
                             k_t2=s * g.k_t2, c_m=s * g.c_m, k_ey=s * g.k_ey,
                             k_ez=s * g.k_ez)
        w2 = Wrench(s * w.f_t, s * w.tau_x, s * w.tau_y, s * w.tau_z)
        c1, c2 = mix(w, g, lam), mix(w2, g2, lam)
        for f in ("t_d1", "t_d2", "m_dx", "m_dy", "d_1", "d_2"):
            assert getattr(c1, f) == pytest.approx(getattr(c2, f), rel=1e-12)


class TestSaturation:
    def test_feasible_command_unscaled(self):
        g = AllocationGains()
        w = Wrench(8.0, 0.05, 0.02, 0.001)
        cmd, s = saturate(w, g, 1.0)
        assert s == 1.0
        assert cmd == mix(w, g, 1.0)

    def test_torque_scaled_thrust_kept(self):
        g = AllocationGains()
        w = Wrench(8.0, 2.0, 1.5, 0.4)
        cmd, s = saturate(w, g, 1.0)
        assert 0.0 < s < 1.0
        back = forward_model(cmd, g)
        assert back.f_t == pytest.approx(8.0, rel=1e-9)
        assert back.tau_x == pytest.approx(s * 2.0, rel=1e-9)
        # every channel inside its box
        assert 0.0 <= cmd.t_d1 <= 2000.0 and 0.0 <= cmd.t_d2 <= 2000.0
        assert abs(cmd.d_1) <= 0.6 + 1e-12 and abs(cmd.d_2) <= 0.6 + 1e-12
        amp = math.hypot(cmd.m_dx, cmd.m_dy)
        assert cmd.t_d1 - amp >= -1e-9 and cmd.t_d1 + amp <= 2000.0 + 1e-9

    def test_infeasible_thrust_clamped(self):
        g = AllocationGains()
        w = Wrench(1e6, 0.0, 0.0, 0.0)
        cmd, s = saturate(w, g, 1.0)
        assert s == 0.0
        assert cmd.t_d1 == 2000.0 and cmd.t_d2 == 2000.0

    def test_negative_thrust_clamped_to_throttle_min(self):
        cmd, s = saturate(Wrench(-1e6, 0.0, 0.0, 0.0), AllocationGains(), 1.0)
        assert s == 0.0
        assert cmd.t_d1 == THROTTLE_MIN and cmd.t_d2 == THROTTLE_MIN

    def test_box_is_the_stock_constants(self):
        """control and rotor read the one full throttle of stock."""
        assert (THROTTLE_MIN, SERVO_MAX, FULL_THROTTLE) == (0.0, 0.6, 2000.0)
        assert control.FULL_THROTTLE is FULL_THROTTLE
        assert rotor.FULL_THROTTLE is FULL_THROTTLE

    def test_modulation_headroom_respected(self):
        g = AllocationGains()
        # low thrust leaves little headroom below throttle_min for modulation
        w = Wrench(0.4, 0.6, 0.0, 0.0)
        cmd, s = saturate(w, g, 1.0)
        amp = math.hypot(cmd.m_dx, cmd.m_dy)
        assert cmd.t_d1 - amp >= -1e-9

    def test_command_is_mix_of_scaled_torques_bit_for_bit(self):
        """saturate computes the mixer terms on plain floats; the command
        must equal mix(Wrench(f, s*tau), lam) exactly, clipped or not, and s
        must equal the row-table bound, sign bit included. Torques up to
        tens of N*m make the servo and modulation-headroom rows bind in
        the stock box too."""
        rng = np.random.default_rng(7)
        gains = AllocationGains()
        lo, hi = THROTTLE_MIN, FULL_THROTTLE
        seen = {"free": 0, "clipped": 0, "infeasible": 0}
        bound_by = set()
        for _ in range(600):
            lam = rng.choice([0.0, 0.3, 1.0, rng.uniform()])
            parts = [rng.uniform(-2.0, 40.0),
                     *(rng.normal(size=3)
                       * rng.choice([1e-3, 0.1, 3.0, 30.0]))]
            # signed zeros in the thrust or a torque now and then
            parts[rng.integers(4)] = rng.choice([0.0, -0.0, parts[0]])
            w = Wrench(*parts)
            cmd, s = saturate(w, gains, lam)
            want_s, row = reference_thrust_priority_scale(w, gains, lam)
            assert s == want_s
            assert math.copysign(1.0, s) == math.copysign(1.0, want_s)
            base = mix(Wrench(f_t=w.f_t), gains, lam)
            if s == 0.0 and (base.t_d1 < lo or base.t_d1 > hi
                             or base.t_d2 < lo or base.t_d2 > hi):
                seen["infeasible"] += 1
                want = ActuatorCommand(
                    t_d1=min(max(base.t_d1, lo), hi),
                    t_d2=min(max(base.t_d2, lo), hi))
            else:
                seen["clipped" if s < 1.0 else "free"] += 1
                bound_by.add(row)
                want = mix(Wrench(w.f_t, s * w.tau_x, s * w.tau_y,
                                  s * w.tau_z), gains, lam)
            assert cmd == want
            assert all(math.copysign(1.0, a) == math.copysign(1.0, b)
                       for a, b in zip(cmd, want, strict=True))
        assert min(seen.values()) > 20, seen
        # a servo row (4-7) and a headroom row (8, 9) each bound s
        assert bound_by & {4, 5, 6, 7}, bound_by
        assert bound_by & {8, 9}, bound_by


def reference_thrust_priority_scale(wrench, gains, lam):
    """(s, row) of saturate's thrust-priority bound, from mix and the ten
    (coef, rhs) rows in saturate's order: row is the index of the row
    that set s, or None when no row is below 1 (or thrust alone is out
    of the box)."""
    base = mix(Wrench(f_t=wrench.f_t), gains, lam)
    tq = mix(Wrench(0.0, wrench.tau_x, wrench.tau_y, wrench.tau_z), gains,
             lam)
    lo, hi = THROTTLE_MIN, FULL_THROTTLE
    m_amp = math.hypot(tq.m_dx, tq.m_dy)
    rows = (
        (tq.t_d1, hi - base.t_d1),
        (-tq.t_d1, base.t_d1 - lo),
        (tq.t_d2, hi - base.t_d2),
        (-tq.t_d2, base.t_d2 - lo),
        (tq.d_1, SERVO_MAX),
        (-tq.d_1, SERVO_MAX),
        (tq.d_2, SERVO_MAX),
        (-tq.d_2, SERVO_MAX),
        (m_amp + tq.t_d1, hi - base.t_d1),
        (m_amp - tq.t_d1, base.t_d1 - lo),
    )
    s, row = 1.0, None
    for i, (coef, rhs) in enumerate(rows):
        if rhs < 0.0:
            return 0.0, None
        if coef > 0.0 and rhs / coef < s:
            s, row = rhs / coef, i
    return max(s, 0.0), row


def reference_pid_step(pid_state, kp, ki, kd, i_limit, err, dt):
    """pid_step written on numpy arrays; pid_state holds the integral and
    the previous error."""
    err = np.asarray(err, dtype=float)
    pid_state["integral"] = np.clip(pid_state["integral"] + ki * err * dt,
                                    -i_limit, i_limit)
    prev = pid_state["prev"]
    derr = np.zeros_like(err) if prev is None else (err - prev) / dt
    pid_state["prev"] = err.copy()
    return kp * err + pid_state["integral"] + kd * derr


def row_table_saturate(wrench, gains, lam):
    """saturate as it stood with a table of ten (coef, rhs) rows and one
    min call per row: the reference for the rows written out in turn."""
    eta, kappa, gamma, delta = derived_params(gains, lam)
    c_m = gains.c_m
    one_m = 1.0 - lam
    ey, ez = 2.0 * gains.k_ey, 2.0 * gains.k_ez
    f_t, tau_x, tau_y, tau_z = (wrench.f_t, wrench.tau_x, wrench.tau_y,
                                wrench.tau_z)
    base_t1 = eta * f_t + gamma * 0.0
    base_t2 = kappa * f_t + delta * 0.0
    tq_t1 = eta * 0.0 + gamma * tau_z
    tq_t2 = kappa * 0.0 + delta * tau_z
    d_y, d_z = one_m * tau_y / ey, one_m * tau_z / ez
    tq_d1, tq_d2 = d_y + d_z, d_y - d_z

    lo, hi = THROTTLE_MIN, FULL_THROTTLE
    m_amp = math.hypot(tau_x / c_m, lam * tau_y / c_m)
    rows = (
        (tq_t1, hi - base_t1),
        (-tq_t1, base_t1 - lo),
        (tq_t2, hi - base_t2),
        (-tq_t2, base_t2 - lo),
        (tq_d1, SERVO_MAX),
        (-tq_d1, SERVO_MAX),
        (tq_d2, SERVO_MAX),
        (-tq_d2, SERVO_MAX),
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
        t1 = min(max(base_t1, lo), hi)
        t2 = min(max(base_t2, lo), hi)
        return ActuatorCommand(t_d1=t1, t_d2=t2), 0.0
    s = max(s, 0.0)
    tau_x, tau_y, tau_z = s * tau_x, s * tau_y, s * tau_z
    d_y, d_z = one_m * tau_y / ey, one_m * tau_z / ez
    return ActuatorCommand(eta * f_t + gamma * tau_z,
                           kappa * f_t + delta * tau_z, tau_x / c_m,
                           lam * tau_y / c_m, d_y + d_z, d_y - d_z), s


def test_saturate_matches_the_row_table_to_the_bit():
    """20,000 random wrenches and allocation ratios in the stock box:
    every command field and s equal the row-table form's, sign bits
    included. Signed zeros appear in the wrench now and then; thrusts
    past full throttle and torques near 1 N*m make a large share of the
    cases clip and some infeasible."""
    rng = np.random.default_rng(18)
    gains = AllocationGains()
    got, want = [], []
    infeasible = 0
    for _ in range(20_000):
        parts = [rng.uniform(-0.5, 28.5),
                 *(rng.normal(size=3) * rng.choice([1e-3, 0.1, 1.0]))]
        if rng.uniform() < 0.1:
            parts[rng.integers(4)] = rng.choice([0.0, -0.0])
        w = Wrench(*map(float, parts))
        lam = float(rng.uniform(0.0, 1.0))
        cmd, s = saturate(w, gains, lam)
        ref, ref_s = row_table_saturate(w, gains, lam)
        got.append([*cmd, s])
        want.append([*ref, ref_s])
        base = mix(Wrench(f_t=w.f_t), gains, lam)
        infeasible += not (THROTTLE_MIN <= base.t_d1 <= FULL_THROTTLE
                           and THROTTLE_MIN <= base.t_d2 <= FULL_THROTTLE)
    got, want = np.array(got), np.array(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    clipped = np.count_nonzero(want[:, -1] < 1.0) - infeasible
    assert clipped > 5_000 and infeasible > 1_000, (clipped, infeasible)


class TestFloatForms:
    """The per-tick control arithmetic runs on Python floats; each form
    must reproduce its numpy array form to the bit."""

    def test_pid_matches_array_reference(self):
        rng = np.random.default_rng(3)
        kp, ki, kd = (rng.uniform(0.0, 3.0, 3) for _ in range(3))
        i_limit = np.array([0.5, 0.0, 2.0])
        gains = pack(kp, ki, kd, i_limit)
        integral, prev = (0.0, 0.0, 0.0), None
        ref = {"integral": np.zeros(3), "prev": None}
        for _ in range(500):
            err = rng.normal(size=3) * rng.choice([1e-3, 1.0, 50.0])
            err[rng.integers(3)] = rng.choice([0.0, -0.0, err[0]])
            step_err = tuple(err.tolist())
            got, integral = pid_step(gains, integral, prev, step_err, 4e-3)
            prev = step_err
            got = np.array(got)
            want = reference_pid_step(ref, kp, ki, kd, i_limit, err, 4e-3)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(np.array(integral), ref["integral"])

    def test_rotate_matches_array_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            v = rng.normal(size=3) * rng.choice([1e-3, 1.0, 1e3])
            v[rng.integers(3)] = rng.choice([0.0, -0.0, v[0]])
            w, x, y, z = q
            t = 2.0 * np.array([y * v[2] - z * v[1], z * v[0] - x * v[2],
                                x * v[1] - y * v[0]])
            want = v + w * t + np.array([y * t[2] - z * t[1],
                                         z * t[0] - x * t[2],
                                         x * t[1] - y * t[0]])
            got = quat.rotate(q, v)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(quat.rotate(tuple(q), list(v)), want)

    def test_cross_matches_numpy(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            a, b = rng.normal(size=(2, 3))
            a[rng.integers(3)] = rng.choice([0.0, -0.0])
            got, want = _cross(a, b), np.cross(a, b)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


# The numpy array forms the quaternion helpers and the tilt quaternion
# had before they moved to Python floats; the float forms must reproduce
# them to the bit. Their dot products and norms are spelled out as
# OpenBLAS's Haswell kernel rounds np.dot and np.linalg.norm, a sum left
# to right from +0.0; test_dot_and_norm_are_blas_haswell_forms checks
# numpy's own under that kernel.

def reference_dot(a, b):
    # np.add.accumulate adds in order: ((0.0 + a0*b0) + a1*b1) + ...
    return np.add.accumulate(np.concatenate(([0.0], np.multiply(a, b))))[-1]


def reference_norm(v):
    return np.sqrt(reference_dot(v, v))


def reference_multiply(a, b):
    w1, x1, y1, z1 = np.asarray(a, dtype=float)
    w2, x2, y2, z2 = np.asarray(b, dtype=float)
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def reference_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    n = reference_norm(axis)
    if n == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    half = 0.5 * angle
    s = math.sin(half) / n
    return np.array([math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def reference_error_rotation_vector(q, q_sp):
    q = np.asarray(q, dtype=float)
    qe = reference_multiply(np.array([q[0], -q[1], -q[2], -q[3]]), q_sp)
    if qe[0] < 0.0:
        qe = -qe
    vec = qe[1:4]
    s = reference_norm(vec)
    if s < 1e-12:
        return 2.0 * vec
    angle = 2.0 * math.atan2(s, qe[0])
    return vec * (angle / s)


def reference_tilt_quaternion(z_des):
    z0 = np.array([0.0, 0.0, 1.0])
    c = float(reference_dot(z0, z_des))
    axis = np.cross(z0, z_des)
    s = reference_norm(axis)
    if s < 1e-12:
        if c > 0.0:
            return np.array([1.0, 0.0, 0.0, 0.0])
        return np.array([0.0, 1.0, 0.0, 0.0])
    return reference_from_axis_angle(axis / s, math.atan2(s, c))


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def random_unit(rng, size):
    v = rng.normal(size=size)
    return v / np.linalg.norm(v)


def with_signed_zero(rng, v):
    v = np.array(v, dtype=float)
    v[rng.integers(v.size)] = rng.choice([0.0, -0.0])
    return v


# Run in a fresh interpreter under OPENBLAS_CORETYPE=Haswell: prints the
# number of dot products and of norms compared and how many differ from
# numpy's in value or sign.
HASWELL_CHECK = """
import itertools, json, math
import numpy as np
from coaxtail import quat

def differ(got, want):
    return got != want or math.copysign(1.0, got) != math.copysign(1.0, want)

values = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0)
pairs = [(np.array(p[:3]), np.array(p[3:]))
         for p in itertools.product(values, repeat=6)]
rng = np.random.default_rng(35)
for case in range(20000):
    a, b = rng.normal(size=(2, 3)) * 10.0 ** rng.integers(-3, 4, (2, 1))
    if case % 4 == 0:
        a[rng.integers(3)] = rng.choice(values[:2])
    pairs.append((a, b))
bad_dots = sum(differ(quat.dot(tuple(a.tolist()), tuple(b.tolist())),
                      np.dot(a, b)) for a, b in pairs)
vectors = [rng.normal(size=3) * 10.0 ** rng.integers(-150, 150)
           for _ in range(2000)]
for v in vectors[::5]:
    v[rng.integers(v.size)] = rng.choice(values[:2])
bad_norms = sum(differ(quat.norm(tuple(v.tolist())), np.linalg.norm(v))
                for v in vectors)
print(json.dumps([len(pairs), bad_dots, len(vectors), bad_norms]))
"""


class TestQuaternionFloatForms:
    """quat.multiply, from_axis_angle, error_rotation_vector, dot and norm,
    and the controller's tilt quaternion, against their numpy forms."""

    def test_dot_and_norm_are_blas_haswell_forms(self, openblas_kernels,
                                                 run_snippet):
        """quat.dot and quat.norm equal np.dot and np.linalg.norm, value
        and sign, under OpenBLAS's Haswell kernel: every signed-zero
        combination over {+-0, +-1, 0.5, -2}, random dots, and norms at
        magnitudes to 1e+-150."""
        out = run_snippet(HASWELL_CHECK, OPENBLAS_CORETYPE="Haswell")
        assert json.loads(out) == [6 ** 6 + 20000, 0, 2000, 0]

    def test_norm_is_numpy_norm(self):
        rng = np.random.default_rng(21)
        for case in range(2000):
            v = rng.normal(size=3) * 10.0 ** rng.integers(-150, 150)
            if case % 5 == 0:
                v = with_signed_zero(rng, v)
            want = reference_norm(v)
            for arg in (v, tuple(v.tolist()), v.tolist()):
                got = quat.norm(arg)
                assert got == want
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert quat.norm((0.0, -0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("bad", [
        (), (1.0,), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), [1.0, 2.0, 3.0, 4.0],
        np.ones(4)], ids=lambda bad: f"{type(bad).__name__}{len(bad)}")
    def test_norm_takes_three_entries_only(self, bad):
        """A vector of any other length is a ValueError, not the norm of
        its first three entries or of all of them."""
        with pytest.raises(ValueError):
            quat.norm(bad)

    def test_multiply(self):
        rng = np.random.default_rng(22)
        for case in range(1000):
            a = rng.normal(size=4) * rng.choice([1e-3, 1.0, 1e3])
            b = rng.normal(size=4)
            if case % 3 == 0:
                a = with_signed_zero(rng, a)
                b = with_signed_zero(rng, b)
            want = reference_multiply(a, b)
            assert_same_bits(quat.multiply(a, b), want)
            assert_same_bits(quat.multiply(tuple(a), list(b)), want)

    def test_from_axis_angle(self):
        rng = np.random.default_rng(23)
        cases = [(np.zeros(3), 0.7), (np.array([-0.0, 0.0, -0.0]), 1.1),
                 (np.array([0.0, 0.0, 1.0]), 0.0),
                 (np.array([0.0, 1.0, 0.0]), -0.0)]
        for case in range(1000):
            axis = rng.normal(size=3) * rng.choice([1e-6, 1.0, 1e6])
            if case % 4 == 0:
                axis = with_signed_zero(rng, axis)
            angle = rng.uniform(-8.0, 8.0)
            if case % 10 == 0:
                angle = rng.choice([0.0, -0.0, math.pi, -math.pi])
            cases.append((axis, angle))
        for axis, angle in cases:
            want = reference_from_axis_angle(axis, angle)
            assert_same_bits(quat.from_axis_angle(axis, angle), want)
            assert_same_bits(quat.from_axis_angle(tuple(axis), angle), want)

    def test_error_rotation_vector(self):
        rng = np.random.default_rng(24)
        seen = {"flip": 0, "small": 0, "general": 0}
        for case in range(1500):
            q = random_unit(rng, 4)
            kind = case % 5
            if kind == 0:
                q_sp = q.copy()  # no error: the small-angle branch
            elif kind == 1:
                q_sp = -q  # same attitude, opposite sign
            elif kind == 2:
                q_sp = random_unit(rng, 4)
            elif kind == 3:
                q_sp = q + rng.normal(size=4) * 1e-7
                q_sp /= np.linalg.norm(q_sp)
            else:
                q_sp = with_signed_zero(rng, random_unit(rng, 4))
            want = reference_error_rotation_vector(q, q_sp)
            qe = reference_multiply(np.array([q[0], -q[1], -q[2], -q[3]]),
                                    q_sp)
            seen["flip"] += qe[0] < 0.0
            seen["small" if np.linalg.norm(qe[1:4]) < 1e-12
                 else "general"] += 1
            assert_same_bits(quat.error_rotation_vector(q, q_sp), want)
            assert_same_bits(
                quat.error_rotation_vector(q.tolist(), tuple(q_sp)), want)
        assert min(seen.values()) > 100, seen

    def test_tilt_quaternion(self):
        rng = np.random.default_rng(25)
        cases = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
                 np.array([-0.0, 0.0, 1.0]), np.array([0.0, -0.0, -1.0]),
                 np.array([1e-13, -1e-13, 1.0]),
                 np.array([-1e-13, 0.0, -1.0])]
        for case in range(1000):
            z = random_unit(rng, 3)
            if case % 4 == 0:
                z = with_signed_zero(rng, z)
            if case % 7 == 0:
                z = np.array([rng.normal() * 1e-12, rng.normal() * 1e-12,
                              rng.choice([1.0, -1.0])])
            cases.append(z)
        degenerate = 0
        for z in cases:
            want = reference_tilt_quaternion(z)
            degenerate += np.linalg.norm(np.cross([0.0, 0.0, 1.0], z)) < 1e-12
            assert_same_bits(_tilt_quaternion(z), want)
        assert degenerate > 20


def on_axis(axis, value, rest=0.0):
    """Three PID entries: value on axis, rest on the other two."""
    return tuple(value if i == axis else rest for i in range(3))


def test_control_imports_no_numpy():
    """The mixer and the cascade run on Python floats: the module binds no
    numpy module (errors still imports it; quat does not)."""
    assert not [name for name, value in vars(control).items()
                if isinstance(value, types.ModuleType)
                and value.__name__.split(".")[0] == "numpy"]


def test_quat_imports_no_numpy(run_snippet):
    """The quaternion helpers take their trig from libm: the module binds
    no numpy module, and importing it alone loads none."""
    assert not [name for name, value in vars(quat).items()
                if isinstance(value, types.ModuleType)
                and value.__name__.split(".")[0] == "numpy"]
    assert run_snippet("import sys, coaxtail.quat; "
                       "print('numpy' in sys.modules)").strip() == "False"


def pack(kp, ki, kd, i_limit):
    """The 12-tuple of PID gains pid_step takes."""
    return tuple(float(x) for g in (kp, ki, kd, i_limit) for x in g)


class TestPidStep:
    def test_integrator_clamps(self):
        for axis in range(3):
            gains = pack((0.0,) * 3, on_axis(axis, 1.0), (0.0,) * 3,
                         on_axis(axis, 0.5))
            integral, prev = (0.0, 0.0, 0.0), None
            for _ in range(1000):
                err = on_axis(axis, 10.0)
                out, integral = pid_step(gains, integral, prev, err, 0.01)
                prev = err
            assert out[axis] == pytest.approx(0.5)
            assert abs(integral[axis]) <= 0.5

    def test_first_derivative_is_zero(self):
        for axis in range(3):
            gains = pack((0.0,) * 3, (0.0,) * 3, on_axis(axis, 1.0),
                         (0.0,) * 3)
            first = on_axis(axis, 3.0)
            out, integral = pid_step(gains, (0.0,) * 3, None, first, 0.01)
            assert out[axis] == 0.0
            out, _ = pid_step(gains, integral, first, on_axis(axis, 4.0),
                              0.01)
            assert out[axis] == pytest.approx(100.0)

    def test_no_derivative_on_the_first_step(self):
        """The first step (no previous error) adds kd * 0.0: the output is
        kp*e + integral + kd*0.0 to the bit; later steps difference the
        previous error over dt."""
        kp, ki, kd = (0.5, 2.0, 0.25), (1.5, 0.5, 3.0), (3.0, -2.0, 0.5)
        gains = pack(kp, ki, kd, (10.0, 10.0, 10.0))
        steps = (((1.0, -2.0, -0.0), 1e-3), ((4.0, 1.0, 0.5), 2e-3),
                 ((2.0, -0.5, -3.0), 1e-3), ((2.5, 0.25, -1.0), 4e-3))
        got_integral = want_integral = (0.0, 0.0, 0.0)
        prev = None
        for err, dt in steps:
            out, got_integral = pid_step(gains, got_integral, prev, err, dt)
            want_integral = tuple(a + i * e * dt for a, i, e
                                  in zip(want_integral, ki, err))
            if prev is None:
                derr = [0.0, 0.0, 0.0]
            else:
                derr = [(e - p) / dt for e, p in zip(err, prev)]
            want = tuple(p * e + a + d * de for p, e, a, d, de
                         in zip(kp, err, want_integral, kd, derr))
            assert out == want, dt
            assert [math.copysign(1.0, x) for x in out] \
                == [math.copysign(1.0, x) for x in want], dt
            assert got_integral == want_integral
            prev = err

    def test_integrator_clamps_at_each_limit(self):
        """The integral stops at +-limit exactly, as np.clip does, sign of
        zero included; a zero limit holds it at zero."""
        limits = (0.5, 0.0, 2.0)
        gains = pack((0.0,) * 3, (1.0,) * 3, (0.0,) * 3, limits)
        integral, prev = (0.0, 0.0, 0.0), None
        for sign in (1.0, -1.0, 1.0):
            for _ in range(300):
                err = (sign * 10.0, sign * 10.0, sign * 10.0)
                out, integral = pid_step(gains, integral, prev, err, 0.01)
                prev = err
            want = np.clip(np.full(3, sign * 1e3), -np.array(limits),
                           limits)
            assert np.array_equal(integral, want)
            assert np.array_equal(np.signbit(integral), np.signbit(want))
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("dt", [1e-3, 4e-3])
    def test_signed_zero_errors_match_the_array_form(self, dt):
        kp, ki, kd = (0.55, 0.65, 0.0), (1.6, 0.0, 0.75), (0.001, 0.0, 0.2)
        i_limit = (0.5, 0.0, 0.25)
        gains = pack(kp, ki, kd, i_limit)
        integral, prev = (0.0, 0.0, 0.0), None
        ref = {"integral": np.zeros(3), "prev": None}
        for err in ((0.0, -0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, 0.0, -0.0),
                    (-0.0, 1e-300, -1e-300), (0.0, -0.0, 0.0)):
            got, integral = pid_step(gains, integral, prev, err, dt)
            prev = err
            got = np.array(got)
            want = reference_pid_step(ref, np.array(kp), np.array(ki),
                                      np.array(kd), np.array(i_limit), err,
                                      dt)
            assert np.array_equal(got, want), err
            assert np.array_equal(np.signbit(got), np.signbit(want)), err
            assert np.array_equal(np.signbit(integral),
                                  np.signbit(ref["integral"])), err

    def test_clamp_at_the_limit_and_at_signed_zero(self):
        """An integral that lands exactly on +-limit, or on a signed
        zero against a zero limit, is clamped as np.clip clamps it, sign
        bit included."""
        kp, ki, kd = (1.0, 0.5, 2.0), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)
        i_limit = (0.5, 0.0, 2.0)
        gains = pack(kp, ki, kd, i_limit)
        integral, prev = (0.0, 0.0, 0.0), None
        ref = {"integral": np.zeros(3), "prev": None}
        for err in ((0.5, -0.0, -2.0), (-1.0, 0.0, 4.0), (-0.0, -0.0, -0.0),
                    (0.0, -1.0, -0.0), (1.0, 1.0, -4.0), (-0.0, 0.0, 0.0)):
            got, integral = pid_step(gains, integral, prev, err, 1.0)
            prev = err
            got = np.array(got)
            want = reference_pid_step(ref, np.array(kp), np.array(ki),
                                      np.array(kd), np.array(i_limit), err,
                                      1.0)
            assert np.array_equal(got, want), err
            assert np.array_equal(np.signbit(got), np.signbit(want)), err
            assert np.array_equal(integral, ref["integral"]), err
            assert np.array_equal(np.signbit(integral),
                                  np.signbit(ref["integral"])), err

    @pytest.mark.parametrize("lim", [0.0, 0.5])
    @pytest.mark.parametrize("acc", [math.nan, "lim", "-lim", 0.0, -0.0,
                                     "2lim+1", "-2lim-1"])
    def test_clamp_matches_np_clip(self, acc, lim):
        """The integral after one step equals np.clip of the unclamped sum
        on arrays, as the controller's reference takes it: NaN stays NaN,
        +-limit and signed zeros keep their bits. The case runs on each
        axis in turn, the other two holding a zero integral under a unit
        limit. The output is the reference's too, its first step's
        kd * 0.0 included (it turns a -0.0 sum into +0.0)."""
        acc = {"lim": lim, "-lim": -lim, "2lim+1": 2.0 * lim + 1.0,
               "-2lim-1": -2.0 * lim - 1.0}.get(acc, acc)
        for axis in range(3):
            limits = on_axis(axis, lim, 1.0)
            gains = pack((0.0,) * 3, (1.0,) * 3, (0.0,) * 3, limits)
            # acc + 1.0 * -0.0 * 1.0 is acc, bit for bit
            out, integral = pid_step(gains, on_axis(axis, acc), None,
                                     (-0.0,) * 3, 1.0)
            out = np.array(out)
            want = np.clip(np.array(on_axis(axis, acc)), -np.array(limits),
                           np.array(limits))
            got = np.array(integral)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            ref = {"integral": np.array(on_axis(axis, acc)), "prev": None}
            want_out = reference_pid_step(ref, np.zeros(3), np.ones(3),
                                          np.zeros(3), np.array(limits),
                                          [-0.0] * 3, 1.0)
            assert np.array_equal(out, want_out, equal_nan=True)
            keep = ~np.isnan(want_out)
            assert np.array_equal(np.signbit(out[keep]),
                                  np.signbit(want_out[keep]))

    @pytest.mark.parametrize("prev", [None, (0.1, 0.2, 0.3)],
                             ids=["first", "later"])
    @pytest.mark.parametrize("bad", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], []],
                             ids=len)
    def test_wrong_length_error_is_refused(self, bad, prev):
        """An err with too few or too many axes raises ValueError, with or
        without a previous error."""
        gains = pack((1.0,) * 3, (1.0,) * 3, (1.0,) * 3, (1.0,) * 3)
        with pytest.raises(ValueError):
            pid_step(gains, (0.0, 0.0, 0.0), prev, bad, 1e-3)

    def test_three_axis_step_matches_the_array_form(self):
        """Random episodes against reference_pid_step: errors with signed
        zeros, NaN errors that make the integral NaN, and integrals that
        land exactly on +-limit (a zero error on a clamped axis, or a zero
        limit). Output and integral agree to the bit."""
        rng = np.random.default_rng(34)
        ties = nans = 0
        for episode in range(40):
            kp, ki, kd = (rng.uniform(0.0, 3.0, 3) for _ in range(3))
            i_limit = rng.choice([0.0, 0.25, 0.5, 2.0], 3)
            gains = pack(kp, ki, kd, i_limit)
            integral, prev = (0.0, 0.0, 0.0), None
            ref = {"integral": np.zeros(3), "prev": None}
            dt = float(rng.choice([1e-3, 4e-3, 1.0]))
            for _ in range(80):
                err = rng.normal(size=3) * rng.choice([1e-3, 1.0, 1e3])
                i = rng.integers(3)
                kind = rng.integers(4)
                if kind == 0:
                    err[i] = rng.choice([0.0, -0.0])
                elif kind == 1:
                    err[:] = rng.choice([0.0, -0.0], 3)
                elif kind == 2 and episode % 6 == 0:
                    err[i] = math.nan
                unclamped = ref["integral"] + ki * err * dt
                ties += np.count_nonzero(np.abs(unclamped) == i_limit)
                step_err = tuple(err.tolist())
                got, integral = pid_step(gains, integral, prev, step_err, dt)
                prev = step_err
                want = reference_pid_step(ref, kp, ki, kd, i_limit, err, dt)
                nans += np.count_nonzero(np.isnan(integral))
                for a, b in ((np.array(got), want),
                             (np.array(integral), ref["integral"])):
                    assert np.array_equal(a, b, equal_nan=True)
                    keep = ~np.isnan(b)
                    assert np.array_equal(np.signbit(a[keep]),
                                          np.signbit(b[keep]))
        assert ties > 1_000 and nans > 1_000, (ties, nans)

    @pytest.mark.parametrize("tick", [1e-3, 5e-4, 2e-4])
    @pytest.mark.parametrize("loop", ["vel", "rate"])
    def test_stock_gains_match_the_array_form(self, loop, tick):
        """The gains the controller passes, packed at import, are the
        module's KP, KI, KD and I_LIMIT in that order: a run over them at
        the loop's period (the velocity loop's divisor times the tick, or
        the tick) matches the reference on those constants to the bit,
        through clamped and unclamped integrals."""
        gains = getattr(control, f"_{loop.upper()}_GAINS")
        kp, ki, kd, i_limit = (np.array(getattr(control, f"{loop}_{k}".upper()))
                               for k in ("kp", "ki", "kd", "i_limit"))
        dt = tick * (loop_divisors(tick)[1] if loop == "vel" else 1)
        rng = np.random.default_rng(42)
        integral, prev = (0.0, 0.0, 0.0), None
        ref = {"integral": np.zeros(3), "prev": None}
        clamped = 0
        for _ in range(400):
            err = rng.normal(size=3) * rng.choice([1e-2, 1.0, 1e3])
            step_err = tuple(err.tolist())
            got, integral = pid_step(gains, integral, prev, step_err, dt)
            prev = step_err
            want = reference_pid_step(ref, kp, ki, kd, i_limit, err, dt)
            assert_same_bits(got, want)
            assert_same_bits(integral, ref["integral"])
            clamped += np.count_nonzero(np.abs(ref["integral"]) == i_limit)
        assert clamped > 100, clamped


class TestCascade:
    def test_rates_must_divide(self):
        """Each loop's rate must divide the base rate 1/dt; the message
        names the first loop that does not."""
        for dt, message in ((1.0 / 30.0, "pos_rate rate 50 must divide "
                                         "base rate 30"),
                            (1.0 / 400.0, "vel_rate rate 250 must divide "
                                          "base rate 400"),
                            (1.0 / 2500.0, "yaw_rate_rate rate 200 must "
                                           "divide base rate 2500")):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                loop_divisors(dt)
            with pytest.raises(ConfigError, match=f"^{message}$"):
                CascadeController(1.2, dt=dt)

    @pytest.mark.parametrize("dt, base", [(1e-3, 1000), (5e-4, 2000),
                                          (2e-4, 5000)])
    def test_loop_divisors_split_the_base_rate(self, dt, base):
        every = loop_divisors(dt)
        assert all(isinstance(n, int) for n in every)
        assert [n * rate for n, (_, rate) in
                zip(every, control.LOOP_RATES, strict=True)] == [base] * 4
        assert CascadeController(1.2, dt=dt)._every == every

    @pytest.mark.parametrize("name", (
        "pos_p", "vel_kp", "vel_ki", "vel_kd", "vel_i_limit", "rate_kp",
        "rate_ki", "rate_kd", "rate_i_limit"))
    def test_vector_gains_hold_three_numbers(self, name):
        """Each vector gain holds one finite float per axis, and each
        integrator limit is non-negative."""
        value = getattr(control, name.upper())
        assert isinstance(value, tuple) and len(value) == 3
        assert all(isinstance(x, float) and math.isfinite(x) for x in value)
        if name.endswith("i_limit"):
            assert all(x >= 0.0 for x in value)

    def test_non_finite_attitude_target_is_refused_by_name(self):
        """A yaw or pitch-override target that is NaN or infinite is a
        ConfigError naming it, not a bare ValueError from math.sin: at
        construction, and in step when it is assigned afterwards."""
        for bad in (math.nan, math.inf, -math.inf):
            for field, kwargs in (
                    ("yaw", {}),
                    ("yaw", {"pitch_override": -0.3}),
                    ("pitch_override", {})):
                match = f"^{field} must be finite, got"
                with pytest.raises(ConfigError, match=match):
                    ControlSetpoint(**{**kwargs, field: bad})
                sp = ControlSetpoint(**{field: 0.2, **kwargs})
                setattr(sp, field, bad)
                ctl = CascadeController(1.2)
                with pytest.raises(ConfigError, match=match):
                    ctl.step(sp, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                             (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("position", [
        (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (1.0, math.nan, 3.0),
        (math.inf, 0.0, 0.0), ("1", 2.0, 3.0), (True, 0.0, 0.0), 1.0, None,
        np.zeros((3, 1)),
    ], ids=["two", "four", "nan", "inf", "text", "bool", "scalar", "none",
            "column"])
    def test_setpoint_position_is_three_finite_numbers(self, position):
        """A position that is not three finite numbers is refused when the
        setpoint is built, naming the field, not in step as a bare
        ValueError or as a non-finite wrench."""
        with pytest.raises(ConfigError,
                           match="^position must be 3 finite numbers$"):
            ControlSetpoint(position=position)

    @pytest.mark.parametrize("field, bad", [
        ("yaw", "0.1"), ("yaw", True), ("yaw", None), ("yaw", (0.1,)),
        ("pitch_override", "0.1"), ("pitch_override", True),
        ("pitch_override", (0.1,)),
    ], ids=["yaw-text", "yaw-bool", "yaw-none", "yaw-tuple", "pitch-text",
            "pitch-bool", "pitch-tuple"])
    def test_setpoint_angle_is_a_finite_number(self, field, bad):
        """yaw and a pitch_override other than None are finite numbers,
        refused by name at construction."""
        with pytest.raises(ConfigError, match=f"^{field} must be finite, "):
            ControlSetpoint(**{field: bad})

    def test_setpoint_position_is_held_as_floats(self):
        """The position is copied to a tuple of Python floats, so a later
        write to the caller's array cannot move the target."""
        given = np.array([0.5, -0.2, 1.5])
        sp = ControlSetpoint(position=given)
        given[:] = 0.0
        assert sp.position == (0.5, -0.2, 1.5)
        assert all(type(x) is float for x in sp.position)

    def test_controller_takes_its_tick_once(self):
        """dt is set at construction: a bad tick is refused there, and the
        loops subsample 1/dt (at 0.5 ms the 50 Hz position loop updates
        every 40 ticks)."""
        # 1/3e-4 is no whole rate; 5e-324 makes 1/dt overflow
        for bad in (0.0, -1e-3, math.nan, math.inf, 3e-4, 5e-324):
            with pytest.raises(ConfigError, match="dt"):
                CascadeController(1.2, dt=bad)
        with pytest.raises(ConfigError, match="pos_rate rate 50 must divide "
                                              "base rate 30"):
            CascadeController(1.2, dt=1.0 / 30.0)
        ctl = CascadeController(1.2, dt=5e-4)
        sp = ControlSetpoint(position=(0.0, 0.0, 1.0))
        updated = []
        for tick in range(120):
            before = ctl._vel_sp
            ctl.step(sp, (0.0, 0.0, 1e-3 * tick), (0.0, 0.0, 0.0),
                     (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
            if ctl._vel_sp is not before:
                updated.append(tick)
        assert updated == [0, 40, 80]

    def test_controller_takes_mass_then_tick(self):
        """g is stock.GRAVITY, so the second argument is the tick, as
        run_scenario passes it."""
        ctl = CascadeController(1.2, 5e-4)
        assert (ctl.mass, ctl.dt) == (1.2, 5e-4)
        assert ctl._every == loop_divisors(5e-4)
        assert not hasattr(ctl, "gravity")

    def test_controller_checks_mass(self):
        for bad in (0.0, -1.2, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="mass"):
                CascadeController(bad)
        # the held demand before the first velocity tick is the weight
        # under stock.GRAVITY
        assert CascadeController(1.2)._f_des == (0.0, 0.0, 1.2 * 9.81)

    @staticmethod
    def random_ticks(rng, n):
        """n ticks of (setpoint, position, velocity, orientation,
        body_rate) as the simulator passes them: tuples of floats. The
        setpoint switches to a pitch override halfway."""
        sp_hover = ControlSetpoint(position=(0.5, -0.2, 1.5), yaw=0.3)
        sp_pitch = ControlSetpoint(position=(0.5, -0.2, 1.5), yaw=0.3,
                                   pitch_override=math.radians(-40.0))
        return [(sp_hover if tick < n // 2 else sp_pitch,
                 tuple((rng.normal(size=3) * 0.1 + [0.5, -0.2, 1.5]).tolist()),
                 tuple((rng.normal(size=3) * 0.5).tolist()),
                 tuple(random_unit(rng, 4).tolist()),
                 tuple((rng.normal(size=3) * 0.5).tolist()))
                for tick in range(n)]

    def test_controller_state_is_immutable_plain_data(self):
        """Every attribute of the controller, through hover and
        transition ticks fed with tuples (as the simulator passes them)
        or with arrays, is a number, None or a tuple of them, nested
        tuples included: no array, list or other object that a copy
        could share and a step could change in place."""
        def plain(value):
            if isinstance(value, tuple):
                return all(map(plain, value))
            return value is None or isinstance(value, (float, int))

        ctl = CascadeController(1.2)
        assert all(map(plain, vars(ctl).values())), vars(ctl)
        for args in self.random_ticks(np.random.default_rng(40), 60):
            ctl.step(*args)
            assert all(map(plain, vars(ctl).values())), vars(ctl)
        assert ctl._vel_prev is not None and ctl._rate_prev is not None
        for override in (None, math.radians(-45.0)):
            sp = ControlSetpoint(position=(0.5, -0.2, 1.5),
                                 pitch_override=override)
            for _ in range(20):
                ctl.step(sp, np.zeros(3), np.zeros(3),
                         np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
                assert all(map(plain, vars(ctl).values())), vars(ctl)
        assert ControlSetpoint().position == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("dt", [1e-3, 5e-4, 2e-4])
    @pytest.mark.parametrize("split", [0, 1, 4, 20, 97, 120])
    def test_copy_is_a_snapshot(self, split, dt):
        """copy.copy of a controller taken after split ticks steps to the
        same wrenches as the original, bit for bit, and stepping the copy
        leaves the original unchanged; assigning the copy's attributes
        back to the original restores it. The splits hold different
        state: none stepped (no previous errors), one tick, a velocity
        or a position loop boundary at 1 ms, mid-loop (no loop divides
        97), and the switch to a pitch override; the ticks move the
        boundaries."""
        ticks = self.random_ticks(np.random.default_rng(41), 240)
        ctl = CascadeController(1.2, dt)
        for args in ticks[:split]:
            ctl.step(*args)
        snap, kept = copy.copy(ctl), copy.copy(ctl)

        def run(controller):
            return np.array([list(vars(controller.step(*args)).values())
                             for args in ticks[split:]])

        from_snap = run(snap)
        assert vars(ctl) == vars(kept)
        from_ctl = run(ctl)
        assert_same_bits(from_snap, from_ctl)
        for name, value in vars(kept).items():
            setattr(ctl, name, value)
        assert_same_bits(run(ctl), from_ctl)

    def test_reset_is_a_fresh_controller(self):
        """reset() after a run leaves the same attributes as a new
        controller of the same mass and tick (the attitude setpoint
        caches keep their values under a cleared key), and the same
        wrenches follow."""
        def state(controller):
            return {name: value for name, value in vars(controller).items()
                    if name not in ("_q_yaw", "_override")}

        ticks = self.random_ticks(np.random.default_rng(43), 120)
        ctl, fresh = CascadeController(1.2, 5e-4), CascadeController(1.2, 5e-4)
        for args in ticks:
            ctl.step(*args)
        assert state(ctl) != state(fresh)
        ctl.reset()
        assert state(ctl) == state(fresh)
        assert_same_bits([list(vars(ctl.step(*args)).values())
                          for args in ticks],
                         np.array([list(vars(fresh.step(*args)).values())
                                   for args in ticks]))

    def test_equilibrium_outputs_weight_only(self):
        ctl = CascadeController(1.2)
        sp = ControlSetpoint(position=np.array([1.0, -2.0, 3.0]))
        w = ctl.step(sp, np.array([1.0, -2.0, 3.0]), np.zeros(3),
                     np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
        assert w.f_t == pytest.approx(1.2 * 9.81, rel=1e-12)
        assert w.tau_x == w.tau_y == w.tau_z == 0.0

    def test_pure_yaw_error_only_tau_z(self):
        ctl = CascadeController(1.2)
        sp = ControlSetpoint(position=np.zeros(3), yaw=0.4)
        w = ctl.step(sp, np.zeros(3), np.zeros(3),
                     np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
        assert w.tau_x == pytest.approx(0.0, abs=1e-12)
        assert w.tau_y == pytest.approx(0.0, abs=1e-12)
        assert w.tau_z != 0.0

    def test_transition_mode_commands_no_lateral_force(self):
        ctl = CascadeController(1.2)
        sp = ControlSetpoint(position=np.array([5.0, 5.0, 2.0]),
                             pitch_override=math.radians(-45.0))
        ctl.step(sp, np.zeros(3), np.zeros(3),
                 np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
        assert ctl._f_des[0] == 0.0 and ctl._f_des[1] == 0.0


    def test_kept_attitude_setpoints_match_fresh_ones(self):
        """The kept yaw rotation and pitch-override setpoint equal the
        uncached forms bit for bit through yaw and pitch changes, 0.0 to
        -0.0 included; reset() forgets them."""
        z_axis, y_axis = (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)
        rng = np.random.default_rng(12)
        pairs = [(0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-0.0, 0.0),
                 (0.0, 0.0), (0.4, -0.3), (0.4, -0.3), (0.4, -0.35),
                 (-0.2, -0.35), (-0.2, -0.35), (0.0, -0.35), (-0.0, -0.35)]
        pairs += [(float(rng.choice([0.0, -0.0, 0.3])),
                   float(rng.choice([0.0, -0.0, rng.uniform(-1.5, 0.0)])))
                  for _ in range(200)]
        ctl = CascadeController(1.2)
        for case, (yaw, pitch) in enumerate(pairs):
            q_yaw = quat.from_axis_angle(z_axis, yaw)
            q_sp = quat.multiply(q_yaw, quat.from_axis_angle(y_axis, pitch))
            if case % 3 == 0:
                assert_same_bits(ctl._yaw_rotation(yaw), np.array(q_yaw))
            got_q, got_z = ctl._override_setpoint(yaw, pitch)
            assert_same_bits(got_q, np.array(q_sp))
            assert_same_bits(got_z,
                             np.array(quat.rotate(q_sp, z_axis)))
            assert_same_bits(ctl._yaw_rotation(yaw), np.array(q_yaw))
        ctl.reset()
        assert ctl._yaw_key is None and ctl._override_key is None

    def test_kept_setpoints_leave_the_wrench_unchanged(self):
        """A controller that keeps its attitude setpoints and one that
        recomputes them every tick demand the same wrenches."""
        rng = np.random.default_rng(13)
        kept = CascadeController(1.2)
        fresh = CascadeController(1.2)
        sp = ControlSetpoint(position=np.array([0.5, -0.2, 1.5]))
        for tick in range(400):
            if tick % 40 == 0:
                sp.yaw = float(rng.choice([0.0, -0.0, 0.3]))
                sp.pitch_override = (None if tick < 200 else float(
                    rng.choice([0.0, -0.0, rng.uniform(-1.4, 0.0)])))
            parts = (rng.normal(size=3) * 0.1 + [0.5, -0.2, 1.5],
                     rng.normal(size=3) * 0.1, random_unit(rng, 4),
                     rng.normal(size=3) * 0.1)
            fresh._yaw_key = fresh._override_key = None
            a = kept.step(sp, *parts)
            b = fresh.step(sp, *parts)
            assert_same_bits(np.array(list(vars(a).values())),
                             np.array(list(vars(b).values())))


class TestAttitudeErrorSigns:
    """Feedback polarity of the attitude loops. A swapped quaternion error
    turns the yaw loop into positive feedback that only shows up tens of
    seconds into a pitched flight, so the signs are pinned here."""

    def yaw_torque_at(self, orientation, pitch_override=None):
        ctl = CascadeController(1.2)
        sp = ControlSetpoint(position=np.zeros(3), yaw=0.0,
                             pitch_override=pitch_override)
        w = ctl.step(sp, np.zeros(3), np.zeros(3), orientation, np.zeros(3))
        return w.tau_z

    def test_error_vector_semantics(self):
        q_sp = quat.from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.2)
        ident = np.array([1.0, 0.0, 0.0, 0.0])
        vec = quat.error_rotation_vector(ident, q_sp)
        assert vec[2] == pytest.approx(0.2, abs=1e-12)
        back = quat.error_rotation_vector(q_sp, ident)
        assert back[2] == pytest.approx(-0.2, abs=1e-12)

    def test_hover_yaw_offset_is_damped(self):
        q = quat.from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.3)
        assert self.yaw_torque_at(q) < 0.0
        q = quat.from_axis_angle(np.array([0.0, 0.0, 1.0]), -0.3)
        assert self.yaw_torque_at(q) > 0.0

    def test_pitched_yaw_offset_is_damped(self):
        # body-frame yaw offset on top of a 60 deg transition pitch
        pitch = quat.from_axis_angle(np.array([0.0, 1.0, 0.0]),
                                     math.radians(-60.0))
        for off in (0.1, -0.1):
            q = quat.multiply(pitch,
                              quat.from_axis_angle(np.array([0.0, 0.0, 1.0]),
                                                   off))
            tau = self.yaw_torque_at(q, pitch_override=math.radians(-60.0))
            assert tau * off < 0.0

    def test_tilt_error_restores(self):
        # nose tipped toward -x in hover: positive pitch torque rights it
        q = quat.from_axis_angle(np.array([0.0, 1.0, 0.0]),
                                 math.radians(-10.0))
        ctl = CascadeController(1.2)
        sp = ControlSetpoint(position=np.zeros(3))
        w = ctl.step(sp, np.zeros(3), np.zeros(3), q, np.zeros(3))
        assert w.tau_y > 0.0
