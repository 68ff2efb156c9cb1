"""Swashplateless rotor dynamics: oracles, invariants, bench behavior."""

import math

import numpy as np
import pytest

from coaxtail.errors import ConfigError, NumericalDomainError
from coaxtail.rotor import (
    RotorState,
    SplmParams,
    _input_scale,
    bench_torque_series,
    integrate,
    rotor_solidity,
    splm_step,
    steady_state,
    stiffness_matrix,
    torque_from_states,
)


def make_params(**kw):
    return SplmParams(**kw)


class TestSolidity:
    def test_constructed_identity(self):
        assert rotor_solidity(2, math.pi / 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_scalar_value(self):
        assert rotor_solidity(2, 0.03, 0.2) == pytest.approx(0.09549, abs=5e-6)

    def test_blade_count_linearity(self):
        assert rotor_solidity(4, 0.03, 0.2) == 2.0 * rotor_solidity(2, 0.03, 0.2)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            rotor_solidity(0, 0.03, 0.2)
        with pytest.raises(ConfigError):
            rotor_solidity(2, -0.01, 0.2)
        with pytest.raises(ConfigError):
            rotor_solidity(2, 0.03, 0.0)


class TestParamsValidation:
    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError):
            make_params(inertia=np.eye(2))

    def test_singular_inertia_rejected(self):
        with pytest.raises(ConfigError):
            make_params(inertia=np.zeros((3, 3)))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            make_params(variant="rigid")

    def test_matrices_are_read_only_copies(self):
        """The integrator uses rows unpacked at construction, so the
        matrices may not change afterwards, nor follow the caller's."""
        given = np.eye(3) * 2.0
        p = make_params(inertia=given, damping=given, stiffness_const=given)
        given[0, 0] = 9.0
        for m in (p.inertia, p.damping, p.stiffness_const):
            assert m[0, 0] == 2.0
            with pytest.raises(ValueError):
                m[0, 0] = 1.0

    def test_negative_scalars_rejected(self):
        with pytest.raises(ConfigError):
            make_params(chord=-0.03)
        with pytest.raises(ConfigError):
            make_params(torque_pickup=-1.0)

    def test_non_finite_rejected(self):
        scalars = ("downwash_angle", "hinge_offset", "lift_slope",
                   "blade_count", "chord", "radius", "torque_gain",
                   "torque_pickup", "speed_per_throttle", "throttle_scale",
                   "hover_throttle")
        for bad in (math.nan, math.inf, -math.inf):
            for name in scalars:
                with pytest.raises(ConfigError):
                    make_params(**{name: bad})
            for name in ("inertia", "damping", "stiffness_const"):
                m = getattr(make_params(), name).copy()
                m[2, 1] = bad
                with pytest.raises(ConfigError):
                    make_params(**{name: m})
            with pytest.raises(ConfigError):
                make_params(beta_delay=[[0.0, 0.0], [100.0, bad]])
        with pytest.raises(ConfigError):
            make_params(inertia=np.full((3, 3), math.nan))

    def test_beta_delay_must_increase(self):
        with pytest.raises(ConfigError):
            make_params(beta_delay=[[0.0, 0.0], [0.0, 0.1]])

    def test_delay_interpolates(self):
        p = make_params(beta_delay=[[0.0, 0.0], [100.0, 0.1], [200.0, 0.3]])
        assert p.delay_at(150.0) == pytest.approx(0.2, rel=1e-12)
        assert p.delay_at(500.0) == pytest.approx(0.3, rel=1e-12)

    def test_wrapped_angle(self):
        s = RotorState(x=[2.0 * math.pi + 0.5, 0.0, 0.0])
        assert s.wrapped_angle == pytest.approx(0.5, abs=1e-12)


class TestStiffness:
    def test_variants_coincide_at_zero_beta(self):
        kc = stiffness_matrix(make_params(variant="coupled"), 0.0)
        kd = stiffness_matrix(make_params(variant="decoupled"), 0.0)
        assert np.array_equal(kc, kd)

    def test_coupled_gain_trig_value(self):
        # tan(0.1 + pi/4) through the variant column
        p_c = make_params(variant="coupled")
        p_d = make_params(variant="decoupled")
        col_c = stiffness_matrix(p_c, 0.1)[:, 1] - p_c.stiffness_const[:, 1]
        col_d = stiffness_matrix(p_d, 0.1)[:, 1] - p_d.stiffness_const[:, 1]
        g = col_c[0] / col_d[0]
        assert g == pytest.approx(math.tan(0.1 + math.pi / 4.0), rel=1e-12)
        assert g == pytest.approx(1.22305, abs=5e-6)

    def test_decoupled_independent_of_beta(self):
        p = make_params(variant="decoupled")
        assert np.array_equal(stiffness_matrix(p, 0.0), stiffness_matrix(p, 0.3))

    def test_singularity_guarded(self):
        p = make_params(variant="coupled")
        with pytest.raises(NumericalDomainError):
            stiffness_matrix(p, math.pi / 4.0)
        with pytest.raises(NumericalDomainError):
            stiffness_matrix(p, math.pi / 4.0 - 5e-7)
        # just outside the guard is fine
        stiffness_matrix(p, math.pi / 4.0 - 2e-6)


class TestStep:
    def test_zero_everything_stays_zero(self):
        p = make_params()
        s = RotorState()
        for _ in range(50):
            s = splm_step(s, 0.0, p, 1e-3)
        assert np.all(s.x == 0.0)
        assert np.all(s.x_dot == 0.0)

    def test_dt_bounds(self):
        p = make_params()
        with pytest.raises(ConfigError):
            splm_step(RotorState(), 0.0, p, 3e-3)
        with pytest.raises(ConfigError):
            splm_step(RotorState(), 0.0, p, 0.0)

    def test_decoupled_steady_state_reached(self):
        # 5 s of wall time converges to the linear-solve equilibrium
        p = make_params(variant="decoupled")
        target = steady_state(p, 700.0)
        s = RotorState()
        for _ in range(5000):
            s = splm_step(s, 700.0, p, 1e-3)
        assert np.max(np.abs(s.x - target) / np.abs(target)) < 1e-6

    @pytest.mark.parametrize("variant", ["coupled", "decoupled"])
    def test_steps_equal_one_integration_bit_for_bit(self, variant):
        """splm_step reuses the inverse inertia, K_beta column and input
        scale SplmParams computed once; 200 single steps under a constant
        input must equal one 200-step integration of the same input."""
        p = make_params(variant=variant)
        dt, u = 1e-3, 650.0
        x0 = steady_state(p, 900.0)
        s = RotorState(x0, np.array([0.01, -0.02, 0.005]))
        y0 = s.as_vector()
        rows = [y0]
        for _ in range(200):
            s = splm_step(s, u, p, dt)
            rows.append(s.as_vector())
        traj = integrate(p, y0, p.omega_hover * dt, 200, np.full(401, u))
        assert np.array_equal(np.array(rows), traj)
        assert np.array_equal(np.signbit(np.array(rows)), np.signbit(traj))

    def test_coupled_steady_state_is_fixed_point(self):
        p = make_params(variant="coupled")
        x = steady_state(p, 900.0)
        b = np.array([900.0 * _input_scale(p), 0.0, 0.0])
        resid = stiffness_matrix(p, float(x[2])) @ x - b
        assert np.max(np.abs(resid)) < 1e-12


def transfer_function_zeta(p, nu):
    """Complex zeta response per unit throttle count at azimuth frequency nu."""
    k = stiffness_matrix(p, 0.0)
    a = k + 1j * nu * p.damping - nu * nu * p.inertia
    b = np.array([_input_scale(p), 0.0, 0.0])
    return np.linalg.solve(a, b)[1]


def simulated_zeta_phasor(p, nu, u_amp, n_revs=40, steps_per_rev=256):
    """Drive with u_amp*sin(nu*psi), project the settled zeta onto e^{i nu psi}."""
    h = 2.0 * math.pi / steps_per_rev
    n = n_revs * steps_per_rev
    psi_half = np.arange(2 * n + 1) * (0.5 * h)
    u_half = u_amp * np.sin(nu * psi_half)
    # start on the particular solution so no transient needs to decay
    xhat = np.linalg.solve(
        stiffness_matrix(p, 0.0) + 1j * nu * p.damping - nu * nu * p.inertia,
        np.array([u_amp * _input_scale(p), 0.0, 0.0]),
    )
    y0 = np.concatenate([np.imag(xhat), nu * np.real(xhat)])
    traj = integrate(p, y0, h, n, u_half)
    psi = np.arange(n + 1) * h
    zeta = traj[:, 1]
    # rectangle projection over an integer number of drive periods
    span = int(round((2.0 * math.pi / nu) / h)) if nu > 0 else n
    periods = max(1, n // span)
    m = periods * span
    w = np.exp(-1j * nu * psi[:m])
    return 2.0 * np.mean(zeta[:m] * w) * 1j  # sin drive: x = Im(xhat e^{i nu psi})


class TestFrequencyResponse:
    # frequencies with an integer number of samples per drive period, so
    # the phasor projection has no leakage from the conjugate term
    @pytest.mark.parametrize("nu", [0.25, 0.5, 1.0, 1.6])
    def test_zeta_matches_analytic_transfer_function(self, nu):
        p = make_params(variant="decoupled")
        want = transfer_function_zeta(p, nu) * 300.0
        got = simulated_zeta_phasor(p, nu, 300.0)
        assert abs(got - want) / abs(want) < 1e-4


class TestIntegratorProperties:
    def test_fourth_order_convergence(self):
        p = make_params(variant="coupled")
        x0 = steady_state(p, 900.0)
        y0 = np.concatenate([x0, np.zeros(3)])
        span = 16.0 * math.pi  # 8 revolutions

        def run(n):
            psi_half = np.linspace(0.0, span, 2 * n + 1)
            u_half = 900.0 + 250.0 * np.sin(psi_half)
            return integrate(p, y0, span / n, n, u_half)[-1]

        ref = run(3200)
        err_a = np.max(np.abs(run(200) - ref))
        err_b = np.max(np.abs(run(400) - ref))
        assert err_a / err_b >= 12.0

    def test_superposition_decoupled(self):
        p = make_params(variant="decoupled")
        n, h = 400, 0.05
        rng = np.random.default_rng(11)
        u1 = rng.normal(0.0, 150.0, 2 * n + 1)
        u2 = rng.normal(0.0, 150.0, 2 * n + 1)
        y0 = np.zeros(6)
        t1 = integrate(p, y0, h, n, u1)
        t2 = integrate(p, y0, h, n, u2)
        t12 = integrate(p, y0, h, n, u1 + u2)
        assert np.max(np.abs(t12 - (t1 + t2))) < 1e-9

    def test_coupled_with_beta_pinned_matches_decoupled_exactly(self):
        # geometry that never excites beta: hinge offset 0.75 zeroes the
        # beta row of the coupling column, and the mass/damping/stiffness
        # rows for beta are pure diagonal
        m = np.array([[1.0, 0.25, 0.0], [0.25, 0.14, 0.0], [0.0, 0.0, 0.06]])
        c = np.array([[0.45, 0.04, 0.0], [0.04, 0.20, 0.0], [0.0, 0.0, 0.24]])
        k = np.array([[2.0, 0.0, 0.0], [-0.045, 0.15, 0.0], [0.0, 0.0, 0.14]])
        kw = dict(inertia=m, damping=c, stiffness_const=k, hinge_offset=0.75)
        pc = make_params(variant="coupled", **kw)
        pd = make_params(variant="decoupled", **kw)
        n, h = 600, 0.05
        psi_half = np.arange(2 * n + 1) * (0.5 * h)
        u = 900.0 + 200.0 * np.sin(psi_half)
        y0 = np.array([0.1, -0.05, 0.0, 0.02, 0.01, 0.0])
        ta = integrate(pc, y0, h, n, u)
        tb = integrate(pd, y0, h, n, u)
        assert np.array_equal(ta, tb)
        assert np.all(ta[:, 2] == 0.0)

    def test_unforced_energy_nonincreasing_on_symmetric_config(self):
        # pick K_c so the total K (with g = 1) is symmetric positive definite
        s_target = np.array([[2.0, 0.01, 0.0], [0.01, 0.15, 0.01], [0.0, 0.01, 0.14]])
        probe = make_params(variant="decoupled")
        kbeta = stiffness_matrix(probe, 0.0) - probe.stiffness_const
        p = make_params(variant="decoupled", stiffness_const=s_target - kbeta)
        k_total = stiffness_matrix(p, 0.0)
        assert np.allclose(k_total, s_target)
        assert np.all(np.linalg.eigvalsh(s_target) > 0.0)

        n, h = 2000, 0.02
        y0 = np.array([0.2, -0.15, 0.1, 0.05, -0.02, 0.04])
        traj = integrate(p, y0, h, n, np.zeros(2 * n + 1))
        x, v = traj[:, :3], traj[:, 3:]
        energy = 0.5 * (np.einsum("ij,jk,ik->i", v, p.inertia, v)
                        + np.einsum("ij,jk,ik->i", x, k_total, x))
        assert np.all(np.diff(energy) <= 1e-12)
        assert energy[-1] < 0.01 * energy[0]


class TestBench:
    def test_zero_amplitude_is_flat(self):
        for variant in ("coupled", "decoupled"):
            p = make_params(variant=variant)
            _, tau = bench_torque_series(p, 900.0, 0.0, 0.0, 2.0, 1000.0)
            centered = tau - tau.mean()
            assert centered.max() - centered.min() < 1e-9

    def test_decoupled_quieter_than_coupled(self):
        # matched runs at the documented operating point
        p2p = {}
        for variant in ("coupled", "decoupled"):
            p = make_params(variant=variant)
            _, tau = bench_torque_series(p, 900.0, 200.0, 0.0, 10.0, 1000.0)
            x = tau[2000:]
            x = x - x.mean()
            p2p[variant] = x.max() - x.min()
        assert p2p["decoupled"] < p2p["coupled"]

    def test_amplitude_linearity_of_fundamental(self):
        p = make_params(variant="decoupled")
        omega = p.speed_per_throttle * 900.0
        fund = {}
        for amp in (100.0, 200.0):
            t, tau = bench_torque_series(p, 900.0, amp, 0.0, 8.0, 1000.0)
            keep = slice(2000, None)
            x = tau[keep] - tau[keep].mean()
            w = np.exp(-1j * omega * t[keep])
            fund[amp] = abs(np.mean(x * w))
        assert fund[200.0] / fund[100.0] == pytest.approx(2.0, rel=1e-6)

    def test_undersampled_fs_rejected(self):
        p = make_params()
        with pytest.raises(ConfigError):
            bench_torque_series(p, 900.0, 200.0, 0.0, 1.0, 30.0)
        for duration, fs in ((math.nan, 1000.0), (1.0, math.nan),
                             (math.inf, 1000.0)):
            with pytest.raises(ConfigError):
                bench_torque_series(p, 900.0, 200.0, 0.0, duration, fs)

    def test_non_finite_command_rejected(self):
        p = make_params()
        for bad in (math.nan, math.inf, -math.inf):
            for args in ((bad, 200.0, 0.0), (900.0, bad, 0.0),
                         (900.0, 200.0, bad)):
                with pytest.raises(ConfigError):
                    bench_torque_series(p, *args, 1.0, 1000.0)

    def test_integrate_rejects_non_finite_inputs(self):
        p = make_params()
        u_half = np.zeros(21)
        for bad in (math.nan, math.inf):
            y0 = np.zeros(6)
            y0[4] = bad
            u_bad = u_half.copy()
            u_bad[7] = bad
            for args in ((np.zeros(6), bad, u_half), (y0, 0.05, u_half),
                         (np.zeros(6), 0.05, u_bad)):
                with pytest.raises(ConfigError):
                    integrate(p, args[0], args[1], 10, args[2])

    def test_torque_model_guards_singular_pitch(self):
        p = make_params(variant="coupled")
        traj = np.zeros((3, 6))
        traj[1, 2] = math.pi / 4.0
        with pytest.raises(NumericalDomainError):
            torque_from_states(p, np.full(3, 900.0), traj)
