"""Hot numeric inner loops, one plain-numpy source each.

Two kernels live here: the azimuth-domain RK4 integrator for the
swashplateless-rotor dynamics, and the single RK4 step of the rigid-body
6-DOF state. Each is self-contained and works element by element on
small arrays. ``perfbench/run.py --trace 1`` reports their per-call cost.
"""

from __future__ import annotations

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
    acceleration.
    """
    inv_mass = 1.0 / mass

    def deriv(y, out):
        qw = y[6]
        qx = y[7]
        qy = y[8]
        qz = y[9]
        wx = y[10]
        wy = y[11]
        wz = y[12]

        out[0] = y[3]
        out[1] = y[4]
        out[2] = y[5]

        # world-frame force: R(q) @ f_body, rotation expanded inline
        tx = 2.0 * (qy * f_body[2] - qz * f_body[1])
        ty = 2.0 * (qz * f_body[0] - qx * f_body[2])
        tz = 2.0 * (qx * f_body[1] - qy * f_body[0])
        fwx = f_body[0] + qw * tx + (qy * tz - qz * ty)
        fwy = f_body[1] + qw * ty + (qz * tx - qx * tz)
        fwz = f_body[2] + qw * tz + (qx * ty - qy * tx)
        out[3] = fwx * inv_mass + g_world[0]
        out[4] = fwy * inv_mass + g_world[1]
        out[5] = fwz * inv_mass + g_world[2]

        # quaternion kinematics: qdot = 0.5 * q ⊗ [0, w]
        out[6] = 0.5 * (-qx * wx - qy * wy - qz * wz)
        out[7] = 0.5 * (qw * wx + qy * wz - qz * wy)
        out[8] = 0.5 * (qw * wy - qx * wz + qz * wx)
        out[9] = 0.5 * (qw * wz + qx * wy - qy * wx)

        # Euler equations: wdot = Iinv @ (tau - w x (I w))
        hx = inertia[0, 0] * wx + inertia[0, 1] * wy + inertia[0, 2] * wz
        hy = inertia[1, 0] * wx + inertia[1, 1] * wy + inertia[1, 2] * wz
        hz = inertia[2, 0] * wx + inertia[2, 1] * wy + inertia[2, 2] * wz
        mx = tau_body[0] - (wy * hz - wz * hy)
        my = tau_body[1] - (wz * hx - wx * hz)
        mz = tau_body[2] - (wx * hy - wy * hx)
        out[10] = inertia_inv[0, 0] * mx + inertia_inv[0, 1] * my + inertia_inv[0, 2] * mz
        out[11] = inertia_inv[1, 0] * mx + inertia_inv[1, 1] * my + inertia_inv[1, 2] * mz
        out[12] = inertia_inv[2, 0] * mx + inertia_inv[2, 1] * my + inertia_inv[2, 2] * mz

    k1 = np.empty(13)
    k2 = np.empty(13)
    k3 = np.empty(13)
    k4 = np.empty(13)
    ytmp = np.empty(13)
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
    qn = np.sqrt(out[6] * out[6] + out[7] * out[7] + out[8] * out[8] + out[9] * out[9])
    for j in range(6, 10):
        out[j] = out[j] / qn
    return out

