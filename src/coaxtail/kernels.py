"""Hot numeric inner loops, one source each.

Two kernels live here: the azimuth-domain RK4 integrator for the
swashplateless-rotor dynamics, and the single RK4 step of the rigid-body
6-DOF state. Each is self-contained: the rotor kernel works element by
element on small arrays, the rigid step on Python floats unpacked once.
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


def splm_trajectory(y0, n_steps, h, Minv, C, Kc, kb_col, coupled, u_half):
    """Integrate the rotor perturbation dynamics over n_steps of size h.

    The independent variable is rotor azimuth (rad), not wall time.
    u_half holds the input sampled on the half-step grid (2*n_steps + 1
    values) so each RK4 stage sees the input at its own abscissa.
    Returns (trajectory[(n_steps+1) x 6], status).
    """

    def deriv(y, u, out):
        # y = [theta, zeta, beta, theta', zeta', beta']
        g = 1.0
        if coupled:
            # tan(beta + pi/4) via (1 + tan b)/(1 - tan b): exact 1.0 at beta = 0
            tb = np.tan(y[2])
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
    ytmp = np.empty(6)
    k1 = np.empty(6)
    k2 = np.empty(6)
    k3 = np.empty(6)
    k4 = np.empty(6)
    for i in range(n_steps):
        if coupled and abs(y[2] - _QUARTER_PI) < _SINGULAR_GUARD:
            return out[: i + 1], STATUS_SINGULAR
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
    return out, STATUS_OK


def rigid_step(y, f_body, tau_body, mass, inertia, inertia_inv, g_world, h):
    """One RK4 step of the 13-state rigid body; quaternion renormalized.

    State layout [p(3), v(3), q(4, wxyz), w(3)]. Force and torque are held
    constant in the body frame over the step; gravity is a constant world
    acceleration. The arithmetic runs on Python floats in the same order
    as an element-by-element array version, so the result is the same to
    the bit; numpy scalars would cost several times more per operation.
    Returns a new 13-element array.
    """
    f0, f1, f2 = np.asarray(f_body, dtype=float).tolist()
    t0, t1, t2 = np.asarray(tau_body, dtype=float).tolist()
    g0, g1, g2 = np.asarray(g_world, dtype=float).tolist()
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = \
        np.asarray(inertia, dtype=float).tolist()
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = \
        np.asarray(inertia_inv, dtype=float).tolist()
    inv_mass = 1.0 / mass

    def deriv(y):
        _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y

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
            vx, vy, vz,
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

    y = np.asarray(y, dtype=float).tolist()
    half = 0.5 * h
    k1 = deriv(y)
    k2 = deriv([a + half * b for a, b in zip(y, k1)])
    k3 = deriv([a + half * b for a, b in zip(y, k2)])
    k4 = deriv([a + h * b for a, b in zip(y, k3)])
    sixth = h / 6.0
    out = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    qn = math.sqrt(out[6] * out[6] + out[7] * out[7] + out[8] * out[8]
                   + out[9] * out[9])
    for j in range(6, 10):
        out[j] = out[j] / qn
    return np.array(out)
