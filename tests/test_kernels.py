"""Numerical kernels: rotor trajectory and rigid-body RK4 step."""

import math

import numpy as np
import pytest

from coaxtail import kernels
from coaxtail.rotor import SplmParams, _input_scale, _kbeta_column, steady_state


def splm_args(variant="coupled", n=500, h=0.05):
    p = SplmParams(variant=variant)
    y0 = np.concatenate([steady_state(p, 900.0), np.zeros(3)])
    psi_half = np.arange(2 * n + 1) * (0.5 * h)
    u_half = (900.0 + 220.0 * np.sin(psi_half)) * _input_scale(p)
    return (
        y0,
        n,
        h,
        np.linalg.inv(p.inertia),
        p.damping.copy(),
        p.stiffness_const.copy(),
        _kbeta_column(p),
        p.coupled,
        u_half,
    )


def rigid_args():
    y = np.zeros(13)
    y[6] = 1.0
    y[10:13] = [0.3, -1.1, 0.6]
    inertia = np.diag([0.011, 0.012, 0.004])
    return (
        y,
        np.array([0.2, -0.1, 11.0]),
        np.array([0.001, 0.02, -0.004]),
        1.2,
        inertia,
        np.linalg.inv(inertia),
        np.array([0.0, 0.0, -9.81]),
        1e-3,
    )


class TestSplmKernel:
    def test_singular_pitch_truncates(self):
        args = list(splm_args("coupled"))
        y0 = args[0].copy()
        y0[2] = 0.25 * math.pi - 5e-7
        y0[5] = 0.0
        args[0] = y0
        traj, status = kernels.splm_trajectory(*args)
        assert status == kernels.STATUS_SINGULAR
        assert traj.shape[0] < args[1] + 1

    def test_deterministic(self):
        args = splm_args("coupled")
        a, _ = kernels.splm_trajectory(*args)
        b, _ = kernels.splm_trajectory(*args)
        assert np.array_equal(a, b)


class TestRigidKernel:
    def test_quaternion_stays_normalized(self):
        y = rigid_args()[0]
        args = list(rigid_args())
        for _ in range(2000):
            y = kernels.rigid_step(y, *args[1:])
        assert abs(np.linalg.norm(y[6:10]) - 1.0) < 1e-12

    def test_free_fall(self):
        args = list(rigid_args())
        y = np.zeros(13)
        y[6] = 1.0
        args[0] = y
        args[1] = np.zeros(3)   # no body force
        args[2] = np.zeros(3)   # no torque
        for _ in range(1000):
            args[0] = kernels.rigid_step(*args)
        assert args[0][5] == pytest.approx(-9.81, abs=1e-9)

    def test_momentum_conservation_free_spin(self):
        args = list(rigid_args())
        args[1] = np.zeros(3)
        args[2] = np.zeros(3)
        args[6] = np.zeros(3)   # no gravity
        inertia = args[4]
        y = args[0]

        def world_momentum(y):
            from coaxtail import quat
            l_body = inertia @ y[10:13]
            return quat.rotate(y[6:10], l_body)

        l0 = world_momentum(y)
        for _ in range(2000):
            y = kernels.rigid_step(y, *args[1:])
        l1 = world_momentum(y)
        assert np.max(np.abs(l1 - l0)) / np.linalg.norm(l0) < 1e-6
