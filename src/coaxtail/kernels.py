"""Hot numeric inner loops, one source each.

Two kernels live here: the azimuth-domain RK4 integrator for the
swashplateless-rotor dynamics, and the single RK4 step of the rigid-body
6-DOF state. Both run on Python floats unpacked once, with no call per
stage. The rigid step writes its four stages out in the operation order
of an element-by-element array version, so its result is the same to the
bit at several times the speed; the rotor kernel takes RK4 in residual
form, one linear map per step precomposed from Python floats. Their only
transcendental call is libm's, through the math module (the rotor
kernel's tan): numpy's ufuncs cost several times more on one float, and
their rounding depends on which SIMD loop numpy dispatches to, where
libm's does not. ``perfbench/run.py --trace 1`` reports their cost.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalDomainError

NUMBA_ENABLED = False  # no jit path; kept because the benchmark records it

_QUARTER_PI = 0.25 * math.pi
_SINGULAR_GUARD = 1e-6
_CHUNK_ROWS = 128


@functools.lru_cache(maxsize=64)  # a sweep revisits each head and step
def _splm_map(h, Minv, C, Kc, kb):
    """The rotor's RK4 step of size h as rows of a linear map over
    z = (v, f, u_m - u_j, r_2 - r_1, r_3 - r_1, u_{j+2} - u_j, r_4 - r_1):
    the lag and pitch offsets of stages 3 and 4 over z's first 6 and 8
    entries, and the step's increments of x and v over its first 9 and
    all 11. The classic stages are taken on linear forms over z in Python
    floats, in a fixed order, with the g = 1 part of the coupling (kb / 8
    in column 1) folded into K_c. The arguments are floats and tuples of
    them, so the cache keys on their values."""
    zero = (0.0,) * 11
    e = [zero[:i] + (1.0,) + zero[i + 1:] for i in range(11)]
    lin = [(k0, k1 + 0.125 * b, k2) for (k0, k1, k2), b in zip(Kc, kb)]

    def times(A, X):  # A X, for three forms X
        return [[a0 * p + a1 * q + a2 * r for p, q, r in zip(*X)]
                for a0, a1, a2 in A]

    def plus(X, c, Y):  # X + c Y
        return [tuple(p + c * q for p, q in zip(x, y)) for x, y in zip(X, Y)]

    def accel(V, X, du, dr):  # M^-1 (f + du e0 - C V - lin X - dr kb)
        return times(Minv, [
            [a + w - c - k - b * r for a, w, c, k, r in zip(*rows, dr)]
            for *rows, b in zip(e[3:6], (du, zero, zero), times(C, V),
                                times(lin, X), kb)])

    half, sixth, v, none = 0.5 * h, h / 6.0, e[0:3], (zero,) * 3
    a1 = accel(v, none, zero, zero)
    v2, x2 = plus(v, half, a1), plus(none, half, v)
    a2 = accel(v2, x2, e[6], e[7])
    v3, x3 = plus(v, half, a2), plus(none, half, v2)
    a3 = accel(v3, x3, e[6], e[8])
    v4, x4 = plus(v, h, a3), plus(none, h, v3)
    a4 = accel(v4, x4, e[9], e[10])
    step = [tuple(sixth * (p + 2.0 * q + 2.0 * r + s)
                  for p, q, r, s in zip(*k))
            for k in zip(v + a1, v2 + a2, v3 + a3, v4 + a4)]
    return ((x3[1][:6], x3[2][:6], x4[1][:8], x4[2][:8]),
            tuple(row[:9] for row in step[:3]), tuple(step[3:]))


def splm_trajectory(y0, n_steps, h, Minv, C, Kc, kb_col, coupled, u_half,
                    first_step=0, stride=1):
    """Integrate the rotor perturbation dynamics over n_steps of size h.

    The independent variable is rotor azimuth (rad), not wall time.
    u_half holds the input on the half-step grid (2*n_steps + 1 values,
    an array), so each RK4 stage sees the input at its own abscissa. The
    matrices and kb_col are (nested) lists of floats, such as SplmParams'
    unpacked rows. Each step is the classic RK4 step in residual form:
    the stage-1 force residual f = u_j e0 - K_c x - s kb_col, s = g(beta)
    zeta / 8, in the classic stage's order without damping, then x and v
    plus _splm_map's rows times z. On the coupled head z holds r_k - r_1,
    where r_k = tan(b)/(1 - tan b) zeta / 4 = (g - 1) zeta / 8 at stage
    k's pitch b and lag zeta, which the map's stage rows place. The rows
    equal the classic step's to rounding. Exact still: with v = 0, a
    constant input and a zero residual, z is zero and the state stays put
    to the bit; the same inputs give the same bits; every step's start
    pitch is checked. tan is libm's (math.tan), as in
    rotor._coupling_gain: np.tan's AVX-512 loop is 1 ulp off on some
    pitches. An infinite pitch makes math.tan raise ValueError, which
    rotor.integrate reports as divergence. Only every stride-th row is
    kept (stride divides n_steps), gathered _CHUNK_ROWS rows at a time
    as one flat list of floats stored through a flat view of the output.
    Returns the (n_steps // stride + 1) x 6 trajectory at steps 0,
    stride, 2 stride, ...; NumericalDomainError names the step at whose
    start beta is within _SINGULAR_GUARD of pi/4, counted from
    first_step, whether or not its row is kept.
    """
    mats = (tuple(tuple(map(float, r)) for r in m) for m in (Minv, C, Kc))
    stages, dx, dv = _splm_map(float(h), *mats, tuple(map(float, kb_col)))
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = Kc
    kb0, kb1, kb2 = kb_col
    ((z30, z31, z32, z33, z34, z35), (b30, b31, b32, b33, b34, b35),
     (z40, z41, z42, z43, z44, z45, z46, z47),
     (b40, b41, b42, b43, b44, b45, b46, b47)) = stages
    ((p00, p01, p02, p03, p04, p05, p06, p07, p08),
     (p10, p11, p12, p13, p14, p15, p16, p17, p18),
     (p20, p21, p22, p23, p24, p25, p26, p27, p28)) = dx
    ((q00, q01, q02, q03, q04, q05, q06, q07, q08, q09, q0a),
     (q10, q11, q12, q13, q14, q15, q16, q17, q18, q19, q1a),
     (q20, q21, q22, q23, q24, q25, q26, q27, q28, q29, q2a)) = dv
    tan, quarter_pi, guard = math.tan, _QUARTER_PI, _SINGULAR_GUARD

    out = np.empty((n_steps // stride + 1, 6))
    out[0] = y0
    flat = out.reshape(-1)
    x0, x1, x2, v0, v1, v2 = out[0].tolist()
    half = 0.5 * h
    eg = 0.125  # g(beta) / 8, set per step on the coupled head
    d2 = d3 = e4 = 0.0  # the remainders, zero on the decoupled head
    # x = [theta, zeta, beta], v = dx/dpsi, z = (v, f, dm, d2, d3, d4, e4)
    for start in range(0, n_steps, _CHUNK_ROWS * stride):
        stop = min(start + _CHUNK_ROWS * stride, n_steps)
        u = u_half[2 * start:2 * stop + 1].tolist()
        rows = []
        keep = 2 * stride - 2  # j of the step whose end row is kept next
        for j in range(0, 2 * (stop - start), 2):
            uj = u[j]
            if coupled:
                if -guard < x2 - quarter_pi < guard:
                    raise NumericalDomainError(
                        f"step {first_step + start + j // 2}: blade pitch "
                        f"beta={x2!r} is within {guard:g} rad of pi/4, "
                        f"where g(beta) is singular")
                tb = tan(x2)  # g = (1 + tan b)/(1 - tan b), 1.0 at b = 0
                d = 1.0 - tb
                eg = 0.125 * ((1.0 + tb) / d)
                r1 = 0.25 * tb / d * x1
            s = eg * x1
            f0 = uj - (k00 * x0 + k01 * x1 + k02 * x2) - s * kb0
            f1 = -(k10 * x0 + k11 * x1 + k12 * x2) - s * kb1
            f2 = -(k20 * x0 + k21 * x1 + k22 * x2) - s * kb2
            dm, d4 = u[j + 1] - uj, u[j + 2] - uj
            if coupled:
                tb = tan(x2 + half * v2)
                d2 = 0.25 * tb / (1.0 - tb) * (x1 + half * v1) - r1
                z = x1 + (z30 * v0 + z31 * v1 + z32 * v2 + z33 * f0
                          + z34 * f1 + z35 * f2)
                tb = tan(x2 + (b30 * v0 + b31 * v1 + b32 * v2 + b33 * f0
                               + b34 * f1 + b35 * f2))
                d3 = 0.25 * tb / (1.0 - tb) * z - r1
                z = x1 + (z40 * v0 + z41 * v1 + z42 * v2 + z43 * f0
                          + z44 * f1 + z45 * f2 + z46 * dm + z47 * d2)
                tb = tan(x2 + (b40 * v0 + b41 * v1 + b42 * v2 + b43 * f0
                               + b44 * f1 + b45 * f2 + b46 * dm + b47 * d2))
                e4 = 0.25 * tb / (1.0 - tb) * z - r1
            x0 = x0 + (p00 * v0 + p01 * v1 + p02 * v2 + p03 * f0 + p04 * f1
                       + p05 * f2 + p06 * dm + p07 * d2 + p08 * d3)
            x1 = x1 + (p10 * v0 + p11 * v1 + p12 * v2 + p13 * f0 + p14 * f1
                       + p15 * f2 + p16 * dm + p17 * d2 + p18 * d3)
            x2 = x2 + (p20 * v0 + p21 * v1 + p22 * v2 + p23 * f0 + p24 * f1
                       + p25 * f2 + p26 * dm + p27 * d2 + p28 * d3)
            v0, v1, v2 = (
                v0 + (q00 * v0 + q01 * v1 + q02 * v2 + q03 * f0
                      + q04 * f1 + q05 * f2 + q06 * dm + q07 * d2
                      + q08 * d3 + q09 * d4 + q0a * e4),
                v1 + (q10 * v0 + q11 * v1 + q12 * v2 + q13 * f0
                      + q14 * f1 + q15 * f2 + q16 * dm + q17 * d2
                      + q18 * d3 + q19 * d4 + q1a * e4),
                v2 + (q20 * v0 + q21 * v1 + q22 * v2 + q23 * f0
                      + q24 * f1 + q25 * f2 + q26 * dm + q27 * d2
                      + q28 * d3 + q29 * d4 + q2a * e4))
            if j == keep:
                keep += 2 * stride
                rows += (x0, x1, x2, v0, v1, v2)
        flat[6 * (start // stride + 1):6 * (stop // stride + 1)] = rows
    return out


def rigid_step(y, f_body, tau_body, mass, inertia_diag, inertia_inv_diag,
               g_world, h):
    """One RK4 step of the 13-state rigid body; quaternion renormalized.

    State layout [p(3), v(3), q(4, wxyz), w(3)]. Force and torque are held
    constant in the body frame over the step; gravity is a constant world
    acceleration. The body axes are principal axes: inertia_diag holds
    the principal moments d and inertia_inv_diag 1.0 / d, so I w and
    I^-1 m are three products each. Vectors are tuples or lists of
    floats, such as the simulator's state and VehicleParams.inertia (the
    principal moments, which step_6dof passes as inertia_diag). The
    arithmetic runs on Python floats in the same order as an
    element-by-element array version on the full diagonal matrices, so
    the result is the same to the bit, save one sign of zero: a -0.0 body
    rate whose angular acceleration is an exact zero may stay -0.0, where
    the matrix form's +0.0 products gave +0.0 (a simulated rate starts at
    +0.0 and never becomes -0.0). numpy scalars would cost several times
    more per operation. The four RK4 stages are written out, with no call
    per stage: each binds its quaternion and body rate once, then computes
    the world-frame acceleration (R(q) f / m + g), the quaternion rate
    (0.5 q ⊗ [0, w]) and the angular acceleration (I^-1 (tau - w x I w)).
    The rates depend only on q and w, and the position rate of each stage
    is that stage's velocity.
    Returns the new state as a tuple of 13 floats.
    """
    f0, f1, f2 = f_body
    t0, t1, t2 = tau_body
    g0, g1, g2 = g_world
    ix, iy, iz = inertia_diag
    jx, jy, jz = inertia_inv_diag
    inv_mass = 1.0 / mass
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y
    half = 0.5 * h
    # stage n has velocity vn*, acceleration an*, quaternion rate qn* and
    # angular acceleration wn*; (tx, ty, tz) is 2 q_v x f, so the
    # world-frame force is f + qw t + q_v x t

    # stage 1 at (q, w)
    tx = 2.0 * (qy * f2 - qz * f1)
    ty = 2.0 * (qz * f0 - qx * f2)
    tz = 2.0 * (qx * f1 - qy * f0)
    a1x = (f0 + qw * tx + (qy * tz - qz * ty)) * inv_mass + g0
    a1y = (f1 + qw * ty + (qz * tx - qx * tz)) * inv_mass + g1
    a1z = (f2 + qw * tz + (qx * ty - qy * tx)) * inv_mass + g2
    q1w = 0.5 * (-qx * wx - qy * wy - qz * wz)
    q1x = 0.5 * (qw * wx + qy * wz - qz * wy)
    q1y = 0.5 * (qw * wy - qx * wz + qz * wx)
    q1z = 0.5 * (qw * wz + qx * wy - qy * wx)
    hx, hy, hz = ix * wx, iy * wy, iz * wz
    mx = t0 - (wy * hz - wz * hy)
    my = t1 - (wz * hx - wx * hz)
    mz = t2 - (wx * hy - wy * hx)
    w1x, w1y, w1z = jx * mx, jy * my, jz * mz

    # stage 2 at (q + h/2 q1, w + h/2 w1)
    v2x, v2y, v2z = vx + half * a1x, vy + half * a1y, vz + half * a1z
    Qw = qw + half * q1w
    Qx = qx + half * q1x
    Qy = qy + half * q1y
    Qz = qz + half * q1z
    Wx, Wy, Wz = wx + half * w1x, wy + half * w1y, wz + half * w1z
    tx = 2.0 * (Qy * f2 - Qz * f1)
    ty = 2.0 * (Qz * f0 - Qx * f2)
    tz = 2.0 * (Qx * f1 - Qy * f0)
    a2x = (f0 + Qw * tx + (Qy * tz - Qz * ty)) * inv_mass + g0
    a2y = (f1 + Qw * ty + (Qz * tx - Qx * tz)) * inv_mass + g1
    a2z = (f2 + Qw * tz + (Qx * ty - Qy * tx)) * inv_mass + g2
    q2w = 0.5 * (-Qx * Wx - Qy * Wy - Qz * Wz)
    q2x = 0.5 * (Qw * Wx + Qy * Wz - Qz * Wy)
    q2y = 0.5 * (Qw * Wy - Qx * Wz + Qz * Wx)
    q2z = 0.5 * (Qw * Wz + Qx * Wy - Qy * Wx)
    hx, hy, hz = ix * Wx, iy * Wy, iz * Wz
    mx = t0 - (Wy * hz - Wz * hy)
    my = t1 - (Wz * hx - Wx * hz)
    mz = t2 - (Wx * hy - Wy * hx)
    w2x, w2y, w2z = jx * mx, jy * my, jz * mz

    # stage 3 at (q + h/2 q2, w + h/2 w2)
    v3x, v3y, v3z = vx + half * a2x, vy + half * a2y, vz + half * a2z
    Qw = qw + half * q2w
    Qx = qx + half * q2x
    Qy = qy + half * q2y
    Qz = qz + half * q2z
    Wx, Wy, Wz = wx + half * w2x, wy + half * w2y, wz + half * w2z
    tx = 2.0 * (Qy * f2 - Qz * f1)
    ty = 2.0 * (Qz * f0 - Qx * f2)
    tz = 2.0 * (Qx * f1 - Qy * f0)
    a3x = (f0 + Qw * tx + (Qy * tz - Qz * ty)) * inv_mass + g0
    a3y = (f1 + Qw * ty + (Qz * tx - Qx * tz)) * inv_mass + g1
    a3z = (f2 + Qw * tz + (Qx * ty - Qy * tx)) * inv_mass + g2
    q3w = 0.5 * (-Qx * Wx - Qy * Wy - Qz * Wz)
    q3x = 0.5 * (Qw * Wx + Qy * Wz - Qz * Wy)
    q3y = 0.5 * (Qw * Wy - Qx * Wz + Qz * Wx)
    q3z = 0.5 * (Qw * Wz + Qx * Wy - Qy * Wx)
    hx, hy, hz = ix * Wx, iy * Wy, iz * Wz
    mx = t0 - (Wy * hz - Wz * hy)
    my = t1 - (Wz * hx - Wx * hz)
    mz = t2 - (Wx * hy - Wy * hx)
    w3x, w3y, w3z = jx * mx, jy * my, jz * mz

    # stage 4 at (q + h q3, w + h w3)
    v4x, v4y, v4z = vx + h * a3x, vy + h * a3y, vz + h * a3z
    Qw = qw + h * q3w
    Qx = qx + h * q3x
    Qy = qy + h * q3y
    Qz = qz + h * q3z
    Wx, Wy, Wz = wx + h * w3x, wy + h * w3y, wz + h * w3z
    tx = 2.0 * (Qy * f2 - Qz * f1)
    ty = 2.0 * (Qz * f0 - Qx * f2)
    tz = 2.0 * (Qx * f1 - Qy * f0)
    a4x = (f0 + Qw * tx + (Qy * tz - Qz * ty)) * inv_mass + g0
    a4y = (f1 + Qw * ty + (Qz * tx - Qx * tz)) * inv_mass + g1
    a4z = (f2 + Qw * tz + (Qx * ty - Qy * tx)) * inv_mass + g2
    q4w = 0.5 * (-Qx * Wx - Qy * Wy - Qz * Wz)
    q4x = 0.5 * (Qw * Wx + Qy * Wz - Qz * Wy)
    q4y = 0.5 * (Qw * Wy - Qx * Wz + Qz * Wx)
    q4z = 0.5 * (Qw * Wz + Qx * Wy - Qy * Wx)
    hx, hy, hz = ix * Wx, iy * Wy, iz * Wz
    mx = t0 - (Wy * hz - Wz * hy)
    my = t1 - (Wz * hx - Wx * hz)
    mz = t2 - (Wx * hy - Wy * hx)
    w4x, w4y, w4z = jx * mx, jy * my, jz * mz

    sixth = h / 6.0
    ow = qw + sixth * (q1w + 2.0 * q2w + 2.0 * q3w + q4w)
    ox = qx + sixth * (q1x + 2.0 * q2x + 2.0 * q3x + q4x)
    oy = qy + sixth * (q1y + 2.0 * q2y + 2.0 * q3y + q4y)
    oz = qz + sixth * (q1z + 2.0 * q2z + 2.0 * q3z + q4z)
    qn = math.sqrt(ow * ow + ox * ox + oy * oy + oz * oz)
    return (
        px + sixth * (vx + 2.0 * v2x + 2.0 * v3x + v4x),
        py + sixth * (vy + 2.0 * v2y + 2.0 * v3y + v4y),
        pz + sixth * (vz + 2.0 * v2z + 2.0 * v3z + v4z),
        vx + sixth * (a1x + 2.0 * a2x + 2.0 * a3x + a4x),
        vy + sixth * (a1y + 2.0 * a2y + 2.0 * a3y + a4y),
        vz + sixth * (a1z + 2.0 * a2z + 2.0 * a3z + a4z),
        ow / qn, ox / qn, oy / qn, oz / qn,
        wx + sixth * (w1x + 2.0 * w2x + 2.0 * w3x + w4x),
        wy + sixth * (w1y + 2.0 * w2y + 2.0 * w3y + w4y),
        wz + sixth * (w1z + 2.0 * w2z + 2.0 * w3z + w4z),
    )
