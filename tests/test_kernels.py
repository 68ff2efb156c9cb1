"""Numerical kernels: rotor trajectory and rigid-body RK4 step."""

import itertools
import json
import math

import numpy as np
import pytest

from coaxtail import kernels
from coaxtail.errors import NumericalDomainError
from coaxtail.rotor import SplmParams, _INPUT_SCALE, _kbeta_column, steady_state


def splm_lists(args):
    """splm_trajectory's arguments with the matrices and kb_col as the
    nested lists of floats it takes."""
    return (*args[:3], *(a.tolist() for a in args[3:7]), *args[7:])


def splm_args(variant="coupled", n=500, h=0.05):
    p = SplmParams(variant=variant)
    y0 = np.concatenate([steady_state(p, 900.0), np.zeros(3)])
    psi_half = np.arange(2 * n + 1) * (0.5 * h)
    u_half = (900.0 + 220.0 * np.sin(psi_half)) * _INPUT_SCALE
    return splm_lists((
        y0,
        n,
        h,
        np.linalg.inv(p.inertia),
        p.damping,
        p.stiffness_const,
        _kbeta_column(p),
        p.coupled,
        u_half,
    ))


def rigid_args():
    y = np.zeros(13)
    y[6] = 1.0
    y[10:13] = [0.3, -1.1, 0.6]
    moments = [0.011, 0.012, 0.004]
    return (
        y.tolist(),
        [0.2, -0.1, 11.0],
        [0.001, 0.02, -0.004],
        1.2,
        moments,
        [1.0 / d for d in moments],
        [0.0, 0.0, -9.81],
        1e-3,
    )


def reference_splm_trajectory(y0, n_steps, h, Minv, C, Kc, kb_col, coupled,
                              u_half):
    """The rotor kernel written element by element on numpy arrays: the
    form kernels.splm_trajectory must reproduce to the bit, and the step
    at whose start it must find beta singular. tan is libm's, as in the
    kernel; np.tan equals it only at numpy's baseline level
    (test_numpy_baseline_trig_is_libm)."""

    def deriv(y, u, out):
        g = 1.0
        if coupled:
            tb = math.tan(y[2])
            g = (1.0 + tb) / (1.0 - tb)
        s = 0.125 * g * y[1]
        f0 = u - (C[0, 0] * y[3] + C[0, 1] * y[4] + C[0, 2] * y[5]) \
            - (Kc[0, 0] * y[0] + Kc[0, 1] * y[1] + Kc[0, 2] * y[2]) - s * kb_col[0]
        f1 = -(C[1, 0] * y[3] + C[1, 1] * y[4] + C[1, 2] * y[5]) \
            - (Kc[1, 0] * y[0] + Kc[1, 1] * y[1] + Kc[1, 2] * y[2]) - s * kb_col[1]
        f2 = -(C[2, 0] * y[3] + C[2, 1] * y[4] + C[2, 2] * y[5]) \
            - (Kc[2, 0] * y[0] + Kc[2, 1] * y[1] + Kc[2, 2] * y[2]) - s * kb_col[2]
        out[0] = y[3]
        out[1] = y[4]
        out[2] = y[5]
        out[3] = Minv[0, 0] * f0 + Minv[0, 1] * f1 + Minv[0, 2] * f2
        out[4] = Minv[1, 0] * f0 + Minv[1, 1] * f1 + Minv[1, 2] * f2
        out[5] = Minv[2, 0] * f0 + Minv[2, 1] * f1 + Minv[2, 2] * f2

    out = np.empty((n_steps + 1, 6))
    out[0] = y0
    y = y0.copy()
    k1, k2, k3, k4, ytmp = (np.empty(6) for _ in range(5))
    for i in range(n_steps):
        if coupled and abs(y[2] - 0.25 * np.pi) < 1e-6:
            raise NumericalDomainError(f"step {i}: beta near pi/4")
        u0 = u_half[2 * i]
        um = u_half[2 * i + 1]
        u1 = u_half[2 * i + 2]
        deriv(y, u0, k1)
        for j in range(6):
            ytmp[j] = y[j] + 0.5 * h * k1[j]
        deriv(ytmp, um, k2)
        for j in range(6):
            ytmp[j] = y[j] + 0.5 * h * k2[j]
        deriv(ytmp, um, k3)
        for j in range(6):
            ytmp[j] = y[j] + h * k3[j]
        deriv(ytmp, u1, k4)
        for j in range(6):
            y[j] = y[j] + (h / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
        out[i + 1] = y
    return out


# Prints, as JSON, how many of np.tan, np.sin, np.cos and np.arctan2's
# results over 200,002 inputs differ in any bit from math's.
BASELINE_TRIG = """
import json, math
import numpy as np
rng = np.random.default_rng(35)
x = np.concatenate([rng.uniform(-0.8, 0.8, 100000),
                    rng.uniform(-8.0, 8.0, 100000), [0.0, -0.0]])
y = np.concatenate([rng.uniform(-2.0, 2.0, x.size - 2), [-1.0, 1.0]])
xs, ys = x.tolist(), y.tolist()

def differ(got, want):
    return int(np.count_nonzero(got.view(np.int64)
                                != np.array(want).view(np.int64)))

print(json.dumps({
    "inputs": x.size,
    "tan": differ(np.tan(x), [math.tan(v) for v in xs]),
    "sin": differ(np.sin(x), [math.sin(v) for v in xs]),
    "cos": differ(np.cos(x), [math.cos(v) for v in xs]),
    "arctan2": differ(np.arctan2(x, y),
                      [math.atan2(a, b) for a, b in zip(xs, ys)]),
}))
"""


def test_numpy_baseline_trig_is_libm(numpy_features_off, run_snippet):
    """The parity anchor of the libm trig in the rotor kernel and the
    tick: with every feature numpy dispatches to turned off, np.tan,
    np.sin, np.cos and np.arctan2 equal math's to the bit, so a run here
    reproduces what numpy's baseline loops compute."""
    counts = json.loads(run_snippet(BASELINE_TRIG, **numpy_features_off))
    assert counts == {"inputs": 200002, "tan": 0, "sin": 0, "cos": 0,
                      "arctan2": 0}


def random_splm_cases(stride):
    """The arguments of 120 // stride random rotor runs, in
    reference_splm_trajectory's order and alternately coupled: step
    counts around the kernel's chunks of 128 kept rows, random heads and
    inputs, and a -0.0 state entry in every tenth run."""
    rng = np.random.default_rng(20261019)
    counts = [0, stride, 127 * stride, 128 * stride, 129 * stride,
              257 * stride]
    for case in range(120 // stride):
        n = counts[case] if case < len(counts) else stride * int(
            rng.integers(2, 300 // stride))
        h = float(rng.uniform(0.005, 0.2))
        y0 = rng.normal(size=6) * np.array([1.0, 0.1, 0.1, 0.5, 0.1, 0.1])
        if case % 10 == 0:
            y0[rng.integers(6)] = -0.0
        m = np.eye(3) + rng.normal(size=(3, 3)) * 0.1
        c = np.diag(rng.uniform(0.1, 0.5, 3)) + rng.normal(size=(3, 3)) * 0.05
        kc = np.diag(rng.uniform(0.1, 2.0, 3)) + rng.normal(size=(3, 3)) * 0.05
        kb_col = rng.normal(size=3) * 0.5
        u_half = rng.normal(size=2 * n + 1) * rng.choice([1e-3, 0.1, 1.0])
        yield (y0, n, h, np.linalg.inv(m), c, kc, kb_col, case % 2 == 0,
               u_half)


def splm_map(h, Minv, C, Kc, kb_col):
    """kernels._splm_map of (nested) arrays: the step map both the kernel
    and reference_residual_trajectory apply."""
    return kernels._splm_map(
        float(h), *(tuple(tuple(map(float, r)) for r in m)
                    for m in (Minv, C, Kc)), tuple(map(float, kb_col)))


def stage1_residual(x, u, Kc, kb_col, coupled):
    """The stage-1 force residual u e0 - K_c x - s kb_col, s = g(beta)
    zeta / 8, in the kernel's operation order."""
    eg = 0.125
    if coupled:
        tb = math.tan(x[2])
        eg = 0.125 * ((1.0 + tb) / (1.0 - tb))
    s = eg * x[1]
    kx = [Kc[i][0] * x[0] + Kc[i][1] * x[1] + Kc[i][2] * x[2]
          for i in range(3)]
    return [u - kx[0] - s * kb_col[0], -kx[1] - s * kb_col[1],
            -kx[2] - s * kb_col[2]]


def settle(value, residual, slope):
    """A float at which residual, a function of that slope, is exactly
    0.0: three Newton steps from value, then a walk of up to 64 ulps
    either way."""
    for _ in range(3):
        value = value - residual(value) / slope
    up = down = value
    for _ in range(64):
        for v in (up, down):
            if residual(v) == 0.0:
                return v
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
    raise AssertionError(f"no float near {value!r} zeroes the residual")


def reference_residual_trajectory(y0, n_steps, h, Minv, C, Kc, kb_col,
                                  coupled, u_half):
    """The rotor kernel's residual form written element by element on
    numpy arrays, over the same step map: the form kernels.splm_trajectory
    must reproduce to the bit, lane by lane. z = (v, f, u_m - u_j,
    r_2 - r_1, r_3 - r_1, u_{j+2} - u_j, r_4 - r_1); the remainders are
    zero on the decoupled head."""
    stages, dx, dv = splm_map(h, Minv, C, Kc, kb_col)

    def dot(row, z):  # left to right, as the kernel's written-out sums
        acc = row[0] * z[0]
        for k in range(1, len(row)):
            acc = acc + row[k] * z[k]
        return acc

    def remainder(zeta, beta):
        tb = math.tan(beta)
        return 0.25 * tb / (1.0 - tb) * zeta

    half = 0.5 * h
    out = np.empty((n_steps + 1, 6))
    out[0] = y0
    y = np.array(y0, dtype=float)
    z = np.zeros(11)
    for i in range(n_steps):
        if coupled and abs(y[2] - 0.25 * np.pi) < 1e-6:
            raise NumericalDomainError(f"step {i}: beta near pi/4")
        u0, um, u1 = u_half[2 * i:2 * i + 3]
        z[0:3] = y[3:6]
        z[3:6] = stage1_residual(y[0:3], u0, Kc, kb_col, coupled)
        z[6] = um - u0
        z[9] = u1 - u0
        if coupled:
            r1 = remainder(y[1], y[2])
            z[7] = remainder(y[1] + half * y[4], y[2] + half * y[5]) - r1
            z[8] = remainder(y[1] + dot(stages[0], z),
                             y[2] + dot(stages[1], z)) - r1
            z[10] = remainder(y[1] + dot(stages[2], z),
                              y[2] + dot(stages[3], z)) - r1
        for j in range(3):
            y[j] = y[j] + dot(dx[j], z)
            y[3 + j] = y[3 + j] + dot(dv[j], z)
        out[i + 1] = y
    return out


class TestSplmKernel:
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_matches_classic_rk4_within_rounding(self, stride):
        """Every kept row is the classic RK4 reference's stride steps from
        the kernel's previous kept row, within 1e-13 max(1, max|y|). The
        reference restarts at each row: a coupled run whose pitch crosses
        pi/4 between two step starts moves 3e-12 under a 1-ulp change of
        its start state, so a whole run compares conditioning, not the
        step."""
        for args in random_splm_cases(stride):
            y0, n, h, *head, u_half = args
            got = kernels.splm_trajectory(*splm_lists(args), 0, stride)
            assert got.shape == (n // stride + 1, 6)
            assert np.isfinite(got).all()
            for i in range(n // stride):
                a = 2 * stride * i
                want = reference_splm_trajectory(
                    got[i], stride, h, *head,
                    u_half[a:a + 2 * stride + 1])[-1]
                bound = 1e-13 * max(1.0, np.abs(want).max())
                assert np.abs(got[i + 1] - want).max() <= bound, (n, i)

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_matches_residual_form_reference_bit_for_bit(self, stride):
        """Every stride-th row of the element-by-element residual form, to
        the bit and in sign bits."""
        for args in random_splm_cases(stride):
            got = kernels.splm_trajectory(*splm_lists(args), 0, stride)
            want = reference_residual_trajectory(*args)[::stride]
            assert np.isfinite(want).all()
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("coupled", [True, False],
                             ids=["coupled", "decoupled"])
    def test_rest_with_a_zero_residual_stays_put_to_the_bit(self, coupled,
                                                            stride):
        """A state at rest whose stage-1 force residual is exactly zero
        under a constant input is a fixed point to the bit: every entry
        of the step map's input is then zero. The kernel-level form of
        test_bench_then_psd_chain, on the stock head and on random ones."""
        rng = np.random.default_rng(39)
        stock = SplmParams()
        for case in range(6):
            if case == 0:
                minv, c = np.linalg.inv(stock.inertia), stock.damping
                kc = stock.stiffness_const.copy()
            else:
                minv = np.linalg.inv(np.eye(3) + rng.normal(size=(3, 3)) * 0.1)
                c = np.diag(rng.uniform(0.1, 0.5, 3)) \
                    + rng.normal(size=(3, 3)) * 0.05
                kc = np.diag(rng.uniform(0.1, 2.0, 3)) \
                    + rng.normal(size=(3, 3)) * 0.05
            # a pitch of 2**-3 rad makes k_i2 beta exact. kb_col is set so
            # that each row's knob below steps on its residual's own grid
            # (s kb_0 = -K_0 x / 2, s kb_i = -2 (k_i0 x0 + k_i1 x1)): k_12,
            # k_22 and the input cancel their rows, nudged by ulps to 0.0
            x = [float(rng.normal()), float(rng.normal()) * 0.1, 0.125]
            tb = math.tan(x[2]) if coupled else 0.0
            s = 0.125 * (1.0 + tb) / (1.0 - tb) * x[1]
            kb_col = np.array([-0.5 * (kc[0] @ x), *(-2.0 * kc[1:, :2]
                                                     @ x[:2])]) / s
            u = 0.0
            for i in (1, 2):
                def row(k, i=i):
                    kc[i, 2] = k
                    return stage1_residual(x, u, kc, kb_col, coupled)[i]
                kc[i, 2] = settle(kc[i, 2], row, -x[2])
            u = settle(
                u, lambda w: stage1_residual(x, w, kc, kb_col, coupled)[0],
                1.0)
            assert stage1_residual(x, u, kc, kb_col, coupled) == [0.0] * 3
            y0 = np.array(x + [0.0, 0.0, 0.0])
            n = 257 * stride
            got = kernels.splm_trajectory(
                *splm_lists((y0, n, 0.13, minv, c, kc, kb_col, coupled,
                             np.full(2 * n + 1, u))), 0, stride)
            assert got.shape == (n // stride + 1, 6)
            assert (got.view(np.int64) == y0.view(np.int64)).all(), case

    def test_cached_maps_are_never_stale(self):
        """Two heads at two step sizes, interleaved, give the rows of
        fresh calls made with an empty map cache, and the cache is hit."""
        runs = [splm_args("coupled", n=300, h=h) for h in (0.05, 0.1)]
        # the second head: decoupled, with the e = 0.25 hinge's column
        kb25 = _kbeta_column(SplmParams(hinge_offset=0.25)).tolist()
        runs += [(*a[:6], kb25, *a[7:]) for a in
                 (splm_args("decoupled", n=300, h=h) for h in (0.05, 0.1))]
        fresh = []
        for args in runs:
            kernels._splm_map.cache_clear()
            fresh.append(kernels.splm_trajectory(*args))
        kernels._splm_map.cache_clear()
        for k in (0, 2, 1, 3, 0, 3, 2, 1):
            got = kernels.splm_trajectory(*runs[k])
            assert (got.view(np.int64) == fresh[k].view(np.int64)).all(), k
        info = kernels._splm_map.cache_info()
        assert (info.misses, info.hits) == (4, 4)

    @pytest.mark.parametrize("trip_step,stride", [(0, 1), (128, 1), (200, 1),
                                                  (203, 4)],
                             ids=["first_step", "second_chunk_start",
                                  "mid_chunk", "between_kept_rows"])
    def test_singular_step_matches_reference(self, trip_step, stride):
        # free motion: beta climbs 1e-6 rad per step and starts so that it
        # sits half a step inside the 1e-6 guard band around pi/4 at
        # trip_step: the very first step, the first step of the second
        # output chunk (no row of that chunk gathered yet), the middle
        # of the second chunk, or a step whose start row a stride of 4
        # does not keep; both forms name that step
        n, h = 400, 1e-3
        beta0 = 0.25 * math.pi - (trip_step + 0.5) * 1e-6
        y0 = np.array([0.1, 0.0, beta0, 0.3, 0.0, 1e-3])
        u_half = np.sin(np.arange(2 * n + 1) * (0.5 * h))
        args = (y0, n, h, np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)),
                np.array([0.12, -0.1, -0.7]), True, u_half)
        step = rf"^step {trip_step}: "
        with pytest.raises(NumericalDomainError, match=step):
            kernels.splm_trajectory(*splm_lists(args), 0, stride)
        with pytest.raises(NumericalDomainError, match=step):
            reference_splm_trajectory(*args)

    def test_singular_pitch_raises(self):
        args = list(splm_args("coupled"))
        y0 = args[0].copy()
        y0[2] = 0.25 * math.pi - 5e-7
        y0[5] = 0.0
        args[0] = y0
        with pytest.raises(NumericalDomainError,
                           match=r"^step 0: blade pitch beta=.* pi/4"):
            kernels.splm_trajectory(*args)

    def test_deterministic(self):
        args = splm_args("coupled")
        a = kernels.splm_trajectory(*args)
        b = kernels.splm_trajectory(*args)
        assert np.array_equal(a, b)


def reference_rigid_step(y, f_body, tau_body, mass, inertia, inertia_inv,
                         g_world, h):
    """The rigid step written element by element on numpy arrays: the form
    kernels.rigid_step must reproduce to the bit."""
    inv_mass = 1.0 / mass

    def deriv(y, out):
        qw, qx, qy, qz = y[6], y[7], y[8], y[9]
        wx, wy, wz = y[10], y[11], y[12]
        out[0] = y[3]
        out[1] = y[4]
        out[2] = y[5]
        tx = 2.0 * (qy * f_body[2] - qz * f_body[1])
        ty = 2.0 * (qz * f_body[0] - qx * f_body[2])
        tz = 2.0 * (qx * f_body[1] - qy * f_body[0])
        fwx = f_body[0] + qw * tx + (qy * tz - qz * ty)
        fwy = f_body[1] + qw * ty + (qz * tx - qx * tz)
        fwz = f_body[2] + qw * tz + (qx * ty - qy * tx)
        out[3] = fwx * inv_mass + g_world[0]
        out[4] = fwy * inv_mass + g_world[1]
        out[5] = fwz * inv_mass + g_world[2]
        out[6] = 0.5 * (-qx * wx - qy * wy - qz * wz)
        out[7] = 0.5 * (qw * wx + qy * wz - qz * wy)
        out[8] = 0.5 * (qw * wy - qx * wz + qz * wx)
        out[9] = 0.5 * (qw * wz + qx * wy - qy * wx)
        hx = inertia[0, 0] * wx + inertia[0, 1] * wy + inertia[0, 2] * wz
        hy = inertia[1, 0] * wx + inertia[1, 1] * wy + inertia[1, 2] * wz
        hz = inertia[2, 0] * wx + inertia[2, 1] * wy + inertia[2, 2] * wz
        mx = tau_body[0] - (wy * hz - wz * hy)
        my = tau_body[1] - (wz * hx - wx * hz)
        mz = tau_body[2] - (wx * hy - wy * hx)
        out[10] = (inertia_inv[0, 0] * mx + inertia_inv[0, 1] * my
                   + inertia_inv[0, 2] * mz)
        out[11] = (inertia_inv[1, 0] * mx + inertia_inv[1, 1] * my
                   + inertia_inv[1, 2] * mz)
        out[12] = (inertia_inv[2, 0] * mx + inertia_inv[2, 1] * my
                   + inertia_inv[2, 2] * mz)

    k1, k2, k3, k4, ytmp = (np.empty(13) for _ in range(5))
    deriv(y, k1)
    for j in range(13):
        ytmp[j] = y[j] + 0.5 * h * k1[j]
    deriv(ytmp, k2)
    for j in range(13):
        ytmp[j] = y[j] + 0.5 * h * k2[j]
    deriv(ytmp, k3)
    for j in range(13):
        ytmp[j] = y[j] + h * k3[j]
    deriv(ytmp, k4)
    out = np.empty(13)
    for j in range(13):
        out[j] = y[j] + (h / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
    qn = np.sqrt(out[6] * out[6] + out[7] * out[7] + out[8] * out[8]
                 + out[9] * out[9])
    for j in range(6, 10):
        out[j] = out[j] / qn
    return out


def principal_args(rng, moments, y, torque):
    """(kernel arguments, reference arguments) of one rigid step: the
    kernel takes the principal moments and their inverses 1.0 / d, the
    full-matrix reference np.diag(d) and its np.linalg.inv."""
    force = rng.normal(size=3) * 10.0
    mass = rng.uniform(0.3, 5.0)
    g = np.array([0.0, 0.0, -rng.uniform(0.0, 10.0)])
    h = rng.choice([1e-3, 5e-4, 1e-4])
    y, torque = np.asarray(y, dtype=float), np.asarray(torque, dtype=float)
    inertia = np.diag(moments)
    kernel = (y.tolist(), force.tolist(), torque.tolist(), float(mass),
              moments.tolist(), (1.0 / moments).tolist(), g.tolist(),
              float(h))
    ref = (y, force, torque, mass, inertia, np.linalg.inv(inertia), g, h)
    return kernel, ref


class TestRigidKernel:
    def test_matches_array_reference_bit_for_bit(self):
        """The principal-axis kernel equals the full-matrix reference fed
        np.diag(d) and its np.linalg.inv, so every product it drops was an
        exact zero. Signed zeros appear in the state, among the body rates
        and among the torques: a body rate that is zero is +0.0 there (the
        sign a simulated rate can hold), or -0.0 beside a torque that is
        not zero; test_negative_zero_rate_on_a_torque_free_axis covers the
        rest."""
        rng = np.random.default_rng(20261018)
        for case in range(400):
            y = rng.normal(size=13) * rng.choice([1e-3, 1.0, 30.0])
            q = rng.normal(size=4)
            y[6:10] = q / np.linalg.norm(q)
            torque = rng.normal(size=3) * 0.1
            if case % 10 == 0:
                y[rng.integers(13)] = -0.0
            elif case % 10 in (1, 2):
                # a zero rate and a signed-zero torque on random axes
                for i in rng.choice(3, rng.integers(1, 4), replace=False):
                    y[10 + i] = 0.0
                for i in rng.choice(3, rng.integers(1, 4), replace=False):
                    torque[i] = rng.choice([0.0, -0.0])
            elif case % 10 == 3:
                # -0.0 rates about axes that feel a torque
                for i in rng.choice(3, rng.integers(1, 4), replace=False):
                    y[10 + i] = -0.0
            moments = rng.uniform(0.002, 0.03, 3) * rng.choice([1e-3, 1.0,
                                                                 50.0])
            args, ref = principal_args(rng, moments, y, torque)
            got = kernels.rigid_step(*args)
            want = reference_rigid_step(*ref)
            assert isinstance(got, tuple) and len(got) == 13
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_negative_zero_rate_on_a_torque_free_axis(self):
        """Every body rate and torque from {+0.0, -0.0, 1, -1}: the kernel
        equals the full-matrix reference in value throughout, and in sign
        bits too unless a rate is -0.0. That is the one place the two
        part: a body rate of -0.0 whose angular acceleration is an exact
        zero can keep its -0.0, where the matrix form's +0.0 products made
        it +0.0."""
        rng = np.random.default_rng(8)
        moments = np.array([0.022, 0.025, 0.010])
        signed = (0.0, -0.0, 1.0, -1.0)
        parted = 0
        for rates in itertools.product(signed, repeat=3):
            for torque in itertools.product(signed, repeat=3):
                y = np.zeros(13)
                y[6], y[10:13] = 1.0, rates
                args, ref = principal_args(rng, moments, y, torque)
                got = np.array(kernels.rigid_step(*args))
                want = reference_rigid_step(*ref)
                assert np.array_equal(got, want)
                differ = np.signbit(got) != np.signbit(want)
                may = np.zeros(13, dtype=bool)
                may[10:13] = np.signbit(rates) & (got[10:13] == 0.0)
                assert not np.any(differ & ~may), (rates, torque)
                parted += np.any(differ)
        assert parted > 0

    def test_quaternion_stays_normalized(self):
        y = rigid_args()[0]
        args = list(rigid_args())
        for _ in range(2000):
            y = kernels.rigid_step(y, *args[1:])
        assert abs(np.linalg.norm(y[6:10]) - 1.0) < 1e-12

    def test_free_fall(self):
        args = list(rigid_args())
        args[0] = [0.0] * 6 + [1.0] + [0.0] * 6
        args[1] = [0.0, 0.0, 0.0]   # no body force
        args[2] = [0.0, 0.0, 0.0]   # no torque
        for _ in range(1000):
            args[0] = kernels.rigid_step(*args)
        assert args[0][5] == pytest.approx(-9.81, abs=1e-9)

    def test_momentum_conservation_free_spin(self):
        args = list(rigid_args())
        args[1] = [0.0, 0.0, 0.0]
        args[2] = [0.0, 0.0, 0.0]
        args[6] = [0.0, 0.0, 0.0]   # no gravity
        inertia = np.diag(args[4])
        y = args[0]

        def world_momentum(y):
            from coaxtail import quat
            l_body = inertia @ y[10:13]
            return np.array(quat.rotate(y[6:10], l_body))

        l0 = world_momentum(y)
        for _ in range(2000):
            y = kernels.rigid_step(y, *args[1:])
        l1 = world_momentum(y)
        assert np.max(np.abs(l1 - l0)) / np.linalg.norm(l0) < 1e-6
