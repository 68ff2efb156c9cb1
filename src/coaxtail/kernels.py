"""Hot numeric inner loops, one source each.

Two kernels live here: the azimuth-domain RK4 integrator for the
swashplateless-rotor dynamics, and the single RK4 step of the rigid-body
6-DOF state. Each is self-contained and runs on Python floats unpacked
once, in the operation order of an element-by-element array version, so
its result is the same to the bit at several times the speed. Both have
their four RK4 stages written out in the function body, with no call per
stage. Their only transcendental call is libm's, through the math
module (the rotor kernel's tan): numpy's ufuncs cost several times more
on one float, and their rounding depends on which SIMD loop numpy
dispatches to, where libm's does not.
``perfbench/run.py --trace 1`` reports their per-call cost.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalDomainError

NUMBA_ENABLED = False  # no jit path; kept because the benchmark records it

_QUARTER_PI = 0.25 * math.pi
_SINGULAR_GUARD = 1e-6
_CHUNK_ROWS = 128


def splm_trajectory(y0, n_steps, h, Minv, C, Kc, kb_col, coupled, u_half,
                    first_step=0, stride=1):
    """Integrate the rotor perturbation dynamics over n_steps of size h.

    The independent variable is rotor azimuth (rad), not wall time.
    u_half holds the input sampled on the half-step grid (2*n_steps + 1
    values, an array) so each RK4 stage sees the input at its own
    abscissa. The matrices and kb_col are (nested) lists of floats, such
    as SplmParams' unpacked rows.
    The arithmetic runs on Python floats in the same order as an
    element-by-element array version, so the result is the same to the
    bit. The four RK4 stages are written out in the loop body, with no
    call per stage. Each stage's coupling factor g(beta)/8 is an inline
    copy of rotor._coupling_gain, kept here because this is the hot loop;
    both take tan from libm (math.tan), so the trajectory's bits do not
    depend on numpy's dispatch level. np.tan rounds like libm only at
    numpy's baseline level; its AVX-512 loop is 1 ulp off on some
    pitches. An infinite pitch makes math.tan raise ValueError, which
    rotor.integrate reports as divergence. Only every
    stride-th row is kept (stride divides n_steps): each chunk of
    _CHUNK_ROWS kept rows is gathered as one flat list of floats and
    stored through a flat view of the output, which keeps memory at the
    size of the output array.
    Returns the (n_steps // stride + 1) x 6 trajectory at steps 0,
    stride, 2 stride, ...; NumericalDomainError names the step at whose
    start beta is within _SINGULAR_GUARD of pi/4, counted from
    first_step, whether or not its row is kept.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = Minv
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = C
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = Kc
    kb0, kb1, kb2 = kb_col
    tan = math.tan
    quarter_pi = _QUARTER_PI
    guard = _SINGULAR_GUARD

    out = np.empty((n_steps // stride + 1, 6))
    out[0] = y0
    flat = out.reshape(-1)
    x0, x1, x2, v0, v1, v2 = out[0].tolist()
    half = 0.5 * h
    sixth = h / 6.0
    eg = 0.125  # g(beta) / 8, set per stage on the coupled head
    # x = [theta, zeta, beta], v = their azimuth derivatives; stage n
    # evaluates the acceleration M^-1 (u - C V - K_c X - s kb_col) with
    # s = g(X2) X1 / 8 at stage position X and velocity V:
    # k1 = (v, a), k2 = (q, b), k3 = (r, c), k4 = (w, d)
    for start in range(0, n_steps, _CHUNK_ROWS * stride):
        stop = min(start + _CHUNK_ROWS * stride, n_steps)
        u = u_half[2 * start:2 * stop + 1].tolist()
        rows = []
        keep = 2 * stride - 2  # j of the step whose end row is kept next
        for j in range(0, 2 * (stop - start), 2):
            if coupled and -guard < x2 - quarter_pi < guard:
                raise NumericalDomainError(
                    f"step {first_step + start + j // 2}: blade pitch "
                    f"beta={x2!r} is within {guard:g} rad of pi/4, where "
                    f"g(beta) is singular")
            um = u[j + 1]

            # stage 1 at (x, v)
            if coupled:
                # tan(beta + pi/4) via (1 + tan b)/(1 - tan b): exact 1.0 at beta = 0
                tb = tan(x2)
                eg = 0.125 * ((1.0 + tb) / (1.0 - tb))
            s = eg * x1
            f0 = u[j] - (c00 * v0 + c01 * v1 + c02 * v2) \
                - (k00 * x0 + k01 * x1 + k02 * x2) - s * kb0
            f1 = -(c10 * v0 + c11 * v1 + c12 * v2) \
                - (k10 * x0 + k11 * x1 + k12 * x2) - s * kb1
            f2 = -(c20 * v0 + c21 * v1 + c22 * v2) \
                - (k20 * x0 + k21 * x1 + k22 * x2) - s * kb2
            a0 = m00 * f0 + m01 * f1 + m02 * f2
            a1 = m10 * f0 + m11 * f1 + m12 * f2
            a2 = m20 * f0 + m21 * f1 + m22 * f2

            # stage 2 at (x + h/2 v, q)
            q0 = v0 + half * a0
            q1 = v1 + half * a1
            q2 = v2 + half * a2
            X0 = x0 + half * v0
            X1 = x1 + half * v1
            X2 = x2 + half * v2
            if coupled:
                tb = tan(X2)
                eg = 0.125 * ((1.0 + tb) / (1.0 - tb))
            s = eg * X1
            f0 = um - (c00 * q0 + c01 * q1 + c02 * q2) \
                - (k00 * X0 + k01 * X1 + k02 * X2) - s * kb0
            f1 = -(c10 * q0 + c11 * q1 + c12 * q2) \
                - (k10 * X0 + k11 * X1 + k12 * X2) - s * kb1
            f2 = -(c20 * q0 + c21 * q1 + c22 * q2) \
                - (k20 * X0 + k21 * X1 + k22 * X2) - s * kb2
            b0 = m00 * f0 + m01 * f1 + m02 * f2
            b1 = m10 * f0 + m11 * f1 + m12 * f2
            b2 = m20 * f0 + m21 * f1 + m22 * f2

            # stage 3 at (x + h/2 q, r)
            r0 = v0 + half * b0
            r1 = v1 + half * b1
            r2 = v2 + half * b2
            X0 = x0 + half * q0
            X1 = x1 + half * q1
            X2 = x2 + half * q2
            if coupled:
                tb = tan(X2)
                eg = 0.125 * ((1.0 + tb) / (1.0 - tb))
            s = eg * X1
            f0 = um - (c00 * r0 + c01 * r1 + c02 * r2) \
                - (k00 * X0 + k01 * X1 + k02 * X2) - s * kb0
            f1 = -(c10 * r0 + c11 * r1 + c12 * r2) \
                - (k10 * X0 + k11 * X1 + k12 * X2) - s * kb1
            f2 = -(c20 * r0 + c21 * r1 + c22 * r2) \
                - (k20 * X0 + k21 * X1 + k22 * X2) - s * kb2
            c0 = m00 * f0 + m01 * f1 + m02 * f2
            c1 = m10 * f0 + m11 * f1 + m12 * f2
            c2 = m20 * f0 + m21 * f1 + m22 * f2

            # stage 4 at (x + h r, w)
            w0 = v0 + h * c0
            w1 = v1 + h * c1
            w2 = v2 + h * c2
            X0 = x0 + h * r0
            X1 = x1 + h * r1
            X2 = x2 + h * r2
            if coupled:
                tb = tan(X2)
                eg = 0.125 * ((1.0 + tb) / (1.0 - tb))
            s = eg * X1
            f0 = u[j + 2] - (c00 * w0 + c01 * w1 + c02 * w2) \
                - (k00 * X0 + k01 * X1 + k02 * X2) - s * kb0
            f1 = -(c10 * w0 + c11 * w1 + c12 * w2) \
                - (k10 * X0 + k11 * X1 + k12 * X2) - s * kb1
            f2 = -(c20 * w0 + c21 * w1 + c22 * w2) \
                - (k20 * X0 + k21 * X1 + k22 * X2) - s * kb2
            d0 = m00 * f0 + m01 * f1 + m02 * f2
            d1 = m10 * f0 + m11 * f1 + m12 * f2
            d2 = m20 * f0 + m21 * f1 + m22 * f2

            x0 = x0 + sixth * (v0 + 2.0 * q0 + 2.0 * r0 + w0)
            x1 = x1 + sixth * (v1 + 2.0 * q1 + 2.0 * r1 + w1)
            x2 = x2 + sixth * (v2 + 2.0 * q2 + 2.0 * r2 + w2)
            v0 = v0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
            v1 = v1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            v2 = v2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
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
