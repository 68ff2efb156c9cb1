"""Hot numeric inner loops, one source each.

Two kernels live here: the azimuth-domain RK4 integrator for the
swashplateless-rotor dynamics, and the single RK4 step of the rigid-body
6-DOF state. Each is self-contained and runs on Python floats unpacked
once, in the operation order of an element-by-element array version, so
its result is the same to the bit at several times the speed.
``perfbench/run.py --trace 1`` reports their per-call cost.
"""

from __future__ import annotations

import math

import numpy as np

NUMBA_ENABLED = False  # no jit path; kept because the benchmark records it

STATUS_OK = 0
STATUS_SINGULAR = 1

_QUARTER_PI = 0.25 * np.pi
_SINGULAR_GUARD = 1e-6
_CHUNK_ROWS = 128


def _floats(a):
    """Python floats of a vector or matrix: an array converts once; a
    (nested) sequence, such as the rows VehicleParams and SplmParams
    unpack once, is used as it is."""
    return a.tolist() if isinstance(a, np.ndarray) else a


def splm_trajectory(y0, n_steps, h, Minv, C, Kc, kb_col, coupled, u_half):
    """Integrate the rotor perturbation dynamics over n_steps of size h.

    The independent variable is rotor azimuth (rad), not wall time.
    u_half holds the input sampled on the half-step grid (2*n_steps + 1
    values, an array) so each RK4 stage sees the input at its own
    abscissa. The matrices and kb_col may be arrays or (nested) sequences
    of floats, such as SplmParams' unpacked rows.
    The arithmetic runs on Python floats in the same order as an
    element-by-element array version, so the result is the same to the
    bit. The coupling gain keeps numpy's tan, which need not round like
    math.tan. Rows are written out _CHUNK_ROWS at a time, which keeps
    memory at the size of the output array.
    Returns (trajectory[(n_steps+1) x 6], status).
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = _floats(Minv)
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = _floats(C)
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = _floats(Kc)
    kb0, kb1, kb2 = _floats(kb_col)
    tan = np.tan

    def accel(x0, x1, x2, v0, v1, v2, u):
        # x = [theta, zeta, beta], v = their azimuth derivatives
        g = 1.0
        if coupled:
            # tan(beta + pi/4) via (1 + tan b)/(1 - tan b): exact 1.0 at beta = 0
            tb = float(tan(x2))
            g = (1.0 + tb) / (1.0 - tb)
        s = 0.125 * g * x1
        f0 = u - (c00 * v0 + c01 * v1 + c02 * v2) \
            - (k00 * x0 + k01 * x1 + k02 * x2) - s * kb0
        f1 = -(c10 * v0 + c11 * v1 + c12 * v2) \
            - (k10 * x0 + k11 * x1 + k12 * x2) - s * kb1
        f2 = -(c20 * v0 + c21 * v1 + c22 * v2) \
            - (k20 * x0 + k21 * x1 + k22 * x2) - s * kb2
        return (m00 * f0 + m01 * f1 + m02 * f2,
                m10 * f0 + m11 * f1 + m12 * f2,
                m20 * f0 + m21 * f1 + m22 * f2)

    out = np.empty((n_steps + 1, 6))
    out[0] = y0
    x0, x1, x2, v0, v1, v2 = out[0].tolist()
    half = 0.5 * h
    sixth = h / 6.0
    for start in range(0, n_steps, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n_steps)
        u = u_half[2 * start:2 * stop + 1].tolist()
        rows = []
        for j in range(0, 2 * (stop - start), 2):
            if coupled and abs(x2 - _QUARTER_PI) < _SINGULAR_GUARD:
                i = start + len(rows)
                if rows:
                    out[start + 1:i + 1] = rows
                return out[: i + 1], STATUS_SINGULAR
            um = u[j + 1]
            # k1 = (v, a), k2 = (q, b), k3 = (r, c), k4 = (w, d)
            a0, a1, a2 = accel(x0, x1, x2, v0, v1, v2, u[j])
            q0 = v0 + half * a0
            q1 = v1 + half * a1
            q2 = v2 + half * a2
            b0, b1, b2 = accel(x0 + half * v0, x1 + half * v1,
                               x2 + half * v2, q0, q1, q2, um)
            r0 = v0 + half * b0
            r1 = v1 + half * b1
            r2 = v2 + half * b2
            c0, c1, c2 = accel(x0 + half * q0, x1 + half * q1,
                               x2 + half * q2, r0, r1, r2, um)
            w0 = v0 + h * c0
            w1 = v1 + h * c1
            w2 = v2 + h * c2
            d0, d1, d2 = accel(x0 + h * r0, x1 + h * r1, x2 + h * r2,
                               w0, w1, w2, u[j + 2])
            x0 = x0 + sixth * (v0 + 2.0 * q0 + 2.0 * r0 + w0)
            x1 = x1 + sixth * (v1 + 2.0 * q1 + 2.0 * r1 + w1)
            x2 = x2 + sixth * (v2 + 2.0 * q2 + 2.0 * r2 + w2)
            v0 = v0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
            v1 = v1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            v2 = v2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
            rows.append((x0, x1, x2, v0, v1, v2))
        out[start + 1:stop + 1] = rows
    return out, STATUS_OK


def rigid_step(y, f_body, tau_body, mass, inertia, inertia_inv, g_world, h):
    """One RK4 step of the 13-state rigid body; quaternion renormalized.

    State layout [p(3), v(3), q(4, wxyz), w(3)]. Force and torque are held
    constant in the body frame over the step; gravity is a constant world
    acceleration. Vectors and matrices may be arrays or (nested)
    sequences of floats. The arithmetic runs on Python floats in the same
    order as an element-by-element array version, so the result is the
    same to the bit; numpy scalars would cost several times more per
    operation. The stages are written out: the rates depend only on q
    and w, and the position rate of each stage is that stage's velocity.
    Returns a new 13-element array.
    """
    f0, f1, f2 = _floats(f_body)
    t0, t1, t2 = _floats(tau_body)
    g0, g1, g2 = _floats(g_world)
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = _floats(inertia)
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = _floats(inertia_inv)
    inv_mass = 1.0 / mass

    def rates(qw, qx, qy, qz, wx, wy, wz):
        """(acceleration, quaternion rate, angular acceleration)."""
        # world-frame force: R(q) @ f_body, rotation expanded inline
        tx = 2.0 * (qy * f2 - qz * f1)
        ty = 2.0 * (qz * f0 - qx * f2)
        tz = 2.0 * (qx * f1 - qy * f0)
        fwx = f0 + qw * tx + (qy * tz - qz * ty)
        fwy = f1 + qw * ty + (qz * tx - qx * tz)
        fwz = f2 + qw * tz + (qx * ty - qy * tx)

        # Euler equations: wdot = Iinv @ (tau - w x (I w))
        hx = i00 * wx + i01 * wy + i02 * wz
        hy = i10 * wx + i11 * wy + i12 * wz
        hz = i20 * wx + i21 * wy + i22 * wz
        mx = t0 - (wy * hz - wz * hy)
        my = t1 - (wz * hx - wx * hz)
        mz = t2 - (wx * hy - wy * hx)

        return (
            fwx * inv_mass + g0,
            fwy * inv_mass + g1,
            fwz * inv_mass + g2,
            # quaternion kinematics: qdot = 0.5 * q ⊗ [0, w]
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            j00 * mx + j01 * my + j02 * mz,
            j10 * mx + j11 * my + j12 * mz,
            j20 * mx + j21 * my + j22 * mz,
        )

    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = _floats(y)
    half = 0.5 * h
    # stage n has velocity vn*, acceleration an*, quaternion rate qn* and
    # angular acceleration wn*; stage 1 starts from y itself
    a1x, a1y, a1z, q1w, q1x, q1y, q1z, w1x, w1y, w1z = rates(
        qw, qx, qy, qz, wx, wy, wz)
    v2x, v2y, v2z = vx + half * a1x, vy + half * a1y, vz + half * a1z
    a2x, a2y, a2z, q2w, q2x, q2y, q2z, w2x, w2y, w2z = rates(
        qw + half * q1w, qx + half * q1x, qy + half * q1y, qz + half * q1z,
        wx + half * w1x, wy + half * w1y, wz + half * w1z)
    v3x, v3y, v3z = vx + half * a2x, vy + half * a2y, vz + half * a2z
    a3x, a3y, a3z, q3w, q3x, q3y, q3z, w3x, w3y, w3z = rates(
        qw + half * q2w, qx + half * q2x, qy + half * q2y, qz + half * q2z,
        wx + half * w2x, wy + half * w2y, wz + half * w2z)
    v4x, v4y, v4z = vx + h * a3x, vy + h * a3y, vz + h * a3z
    a4x, a4y, a4z, q4w, q4x, q4y, q4z, w4x, w4y, w4z = rates(
        qw + h * q3w, qx + h * q3x, qy + h * q3y, qz + h * q3z,
        wx + h * w3x, wy + h * w3y, wz + h * w3z)
    sixth = h / 6.0
    ow = qw + sixth * (q1w + 2.0 * q2w + 2.0 * q3w + q4w)
    ox = qx + sixth * (q1x + 2.0 * q2x + 2.0 * q3x + q4x)
    oy = qy + sixth * (q1y + 2.0 * q2y + 2.0 * q3y + q4y)
    oz = qz + sixth * (q1z + 2.0 * q2z + 2.0 * q3z + q4z)
    qn = math.sqrt(ow * ow + ox * ox + oy * oy + oz * oz)
    return np.array((
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
    ))
