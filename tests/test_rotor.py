"""Swashplateless rotor dynamics: oracles, invariants, bench behavior."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from coaxtail import rotor
from coaxtail.analysis import (TimeSeries, avg_psd_db, default_mean_window,
                               mean_subtract, psd)
from coaxtail.errors import ConfigError, NumericalDomainError, SimulationFault
from coaxtail.rotor import (
    HOVER_THROTTLE,
    SPEED_PER_THROTTLE,
    SplmParams,
    _INPUT_SCALE,
    _coupling_gain,
    bench_torque_series,
    integrate,
    modulation_signal,
    steady_state,
    stiffness_matrix,
    torque_from_states,
)
from coaxtail.stock import FULL_THROTTLE


OMEGA_HOVER = SPEED_PER_THROTTLE * HOVER_THROTTLE  # rad/s


def make_params(**kw):
    return SplmParams(**kw)


class TestSolidity:
    """The stock head's solidity, sigma = N c / (pi R), is a constant; it
    sets the throttle-to-forcing scale."""

    def test_constructed_identity(self):
        assert rotor.SOLIDITY == (rotor.BLADE_COUNT * rotor.CHORD
                                  / (math.pi * rotor.RADIUS))
        assert _INPUT_SCALE == 1.0 / (FULL_THROTTLE * rotor.LIFT_SLOPE
                                      * rotor.SOLIDITY)

    def test_scalar_value(self):
        assert rotor.SOLIDITY == pytest.approx(0.09399, abs=5e-6)

    def test_blade_area_over_disc_area(self):
        blade_area = rotor.BLADE_COUNT * rotor.CHORD * rotor.RADIUS
        disc_area = math.pi * rotor.RADIUS ** 2
        assert rotor.SOLIDITY == pytest.approx(blade_area / disc_area,
                                               rel=1e-12)

    def test_stock_geometry_is_valid(self):
        assert type(rotor.BLADE_COUNT) is int and rotor.BLADE_COUNT >= 1
        assert 0.0 < rotor.CHORD < rotor.RADIUS


class TestParamsValidation:
    def test_default_matrices_are_read_only_arrays(self):
        """The tuple-of-tuples defaults are held as read-only float
        arrays, one copy per instance."""
        a, b = SplmParams(), SplmParams()
        defaults = {f.name: f.default for f in dataclasses.fields(SplmParams)}
        for name in ("inertia", "damping", "stiffness_const"):
            m = getattr(a, name)
            assert m.dtype == float and m.shape == (3, 3)
            assert not m.flags.writeable
            assert np.array_equal(m, np.array(defaults[name]))
            assert m is not getattr(b, name)

    def test_bad_shape_rejected(self):
        """A wrong shape, ragged rows, text (numeric text too), booleans or
        a dict is refused with a ConfigError naming the matrix, not a raw
        ValueError or TypeError, nor read as numbers."""
        for bad in (np.eye(2), [[1, 0], [0, 1, 0], [0, 0, 1]],
                    [[1, "a", 0], [0, 1, 0], [0, 0, 1]], {1: 2}, "eye",
                    [["1", "0.25", "0"], ["0.25", "1", "0"], ["0", "0", "1"]],
                    np.eye(3, dtype=bool), [[1.0, 0.0, 0.0], [0.0, True, 0.0],
                                            [0.0, 0.0, 1.0]]):
            for name in ("inertia", "damping", "stiffness_const"):
                with pytest.raises(ConfigError,
                                   match=f"^{name} must be a 3x3 matrix"):
                    make_params(**{name: bad})

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

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            for name in ("downwash_angle", "hinge_offset"):
                with pytest.raises(ConfigError):
                    make_params(**{name: bad})
            for name in ("inertia", "damping", "stiffness_const"):
                m = getattr(make_params(), name).copy()
                m[2, 1] = bad
                with pytest.raises(ConfigError):
                    make_params(**{name: m})
        with pytest.raises(ConfigError):
            make_params(inertia=np.full((3, 3), math.nan))



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

    def test_coupling_gain_has_one_form_for_floats_and_arrays(self):
        """stiffness_matrix and torque_from_states share _coupling_gain:
        an array of pitch angles gives, bit for bit, what each angle
        gives alone."""
        rng = np.random.default_rng(5)
        beta = np.concatenate([rng.uniform(-0.7, 0.7, 2000),
                               [0.0, -0.0, 0.7, -0.7]])
        g = _coupling_gain(beta, True)
        each = np.array([_coupling_gain(float(b), True) for b in beta])
        assert np.array_equal(g, each)
        assert np.array_equal(np.signbit(g), np.signbit(each))
        assert _coupling_gain(0.0, True) == 1.0
        for b in (math.pi / 4.0, np.array([0.1, math.pi / 4.0 + 5e-7])):
            with pytest.raises(NumericalDomainError):
                _coupling_gain(b, True)
        for b in (0.3, math.pi / 4.0):
            assert _coupling_gain(b, False) == 1.0

    def test_coupling_gain_takes_libm_tan(self):
        """g is (1 + math.tan b)/(1 - math.tan b) to the bit, for a float
        and each entry of an array, whatever numpy dispatches to; an
        infinite pitch is a domain error, and NaN stays NaN."""
        rng = np.random.default_rng(35)
        beta = rng.uniform(-0.78, 0.78, 5000)
        want = np.array([(1.0 + math.tan(b)) / (1.0 - math.tan(b))
                         for b in beta.tolist()])
        assert np.array_equal(_coupling_gain(beta, True), want)
        assert np.array_equal(_coupling_gain(beta.reshape(50, 100), True),
                              want.reshape(50, 100))
        assert all(_coupling_gain(b, True) == w
                   for b, w in zip(beta.tolist()[:500], want.tolist()))
        for b in (math.inf, -math.inf, np.array([0.1, math.inf])):
            with pytest.raises(NumericalDomainError, match="beta is infinite"):
                _coupling_gain(b, True)
        assert math.isnan(_coupling_gain(math.nan, True))
        assert np.isnan(_coupling_gain(np.array([0.1, math.nan]), True)[1])


class TestStep:
    """Stepping the head from rest in wall-time steps of 1 ms at the
    hover shaft speed, through integrate."""

    def test_zero_everything_stays_zero(self):
        p = make_params()
        traj = integrate(p, np.zeros(6), OMEGA_HOVER * 1e-3, 50,
                         np.zeros(101))
        assert np.all(traj == 0.0)

    def test_dt_bounds(self):
        p = make_params()
        for psi_step in (0.0, -OMEGA_HOVER * 1e-3):
            with pytest.raises(ConfigError):
                integrate(p, np.zeros(6), psi_step, 10, np.zeros(21))

    def test_decoupled_steady_state_reached(self):
        # 5 s of wall time converges to the linear-solve equilibrium
        p = make_params(variant="decoupled")
        target = steady_state(p, 700.0)
        traj = integrate(p, np.zeros(6), OMEGA_HOVER * 1e-3, 5000,
                         np.full(10001, 700.0))
        assert np.max(np.abs(traj[-1, :3] - target) / np.abs(target)) < 1e-6

    def test_steady_state_rejects_non_finite_input(self):
        for variant in ("coupled", "decoupled"):
            p = make_params(variant=variant)
            for u in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError):
                    steady_state(p, u)

    def test_coupled_steady_state_is_fixed_point(self):
        p = make_params(variant="coupled")
        x = steady_state(p, 900.0)
        b = np.array([900.0 * _INPUT_SCALE, 0.0, 0.0])
        resid = stiffness_matrix(p, float(x[2])) @ x - b
        assert np.max(np.abs(resid)) < 1e-12


CRITERION4_HEADS = [(phi, e) for phi in (0.08, 0.12, 0.16)
                    for e in (0.15, 0.20, 0.25)]


def per_point_mismatch(params, b, beta):
    """x[2] - beta for K(beta) x = b, one linear solve per pitch."""
    return float(np.linalg.solve(stiffness_matrix(params, beta), b)[2]) - beta


def per_point_steady_state(params, u):
    """The coupled steady state with one linear solve per pitch: the form
    whose grid steady_state solves as one stack, and whose bits it must
    keep."""
    b = np.array([u * _INPUT_SCALE, 0.0, 0.0])
    x0 = np.linalg.solve(stiffness_matrix(params, 0.0), b)
    grid = np.linspace(-0.70, 0.70, 281)
    vals = np.array([per_point_mismatch(params, b, g) for g in grid])
    flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(flips) == 0:
        raise SimulationFault(
            f"no steady-state pitch solution in the admissible range for "
            f"the {params.variant} head at throttle {u:g} counts")
    centers = 0.5 * (grid[flips] + grid[flips + 1])
    i = flips[np.argmin(np.abs(centers - x0[2]))]
    a, c, fa = grid[i], grid[i + 1], vals[i]
    for _ in range(200):
        m = 0.5 * (a + c)
        fm = per_point_mismatch(params, b, m)
        if fm == 0.0 or (c - a) < 1e-15:
            break
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            c = m
    return np.linalg.solve(stiffness_matrix(params, 0.5 * (a + c)), b)


class TestStackedSteadyState:
    """steady_state solves the coupled head's pitch grid as one stack of
    matrices; every value is the one-solve-per-pitch value, to the bit."""

    GRID = np.linspace(-0.70, 0.70, 281)

    @pytest.mark.parametrize("phi,e", CRITERION4_HEADS)
    def test_stack_is_each_pitch_alone(self, phi, e):
        p = make_params(variant="coupled", downwash_angle=phi, hinge_offset=e)
        stack = stiffness_matrix(p, self.GRID)
        assert stack.shape == (281, 3, 3)
        for i, beta in enumerate(self.GRID):
            alone = stiffness_matrix(p, beta)
            assert np.array_equal(stack[i], alone)
            assert np.array_equal(np.signbit(stack[i]), np.signbit(alone))
        for u in (900.0, 1700.0):
            b = np.array([u * _INPUT_SCALE, 0.0, 0.0])
            vals = rotor._pitch_mismatch(p, b, self.GRID)
            each = np.array([per_point_mismatch(p, b, beta)
                             for beta in self.GRID])
            assert np.array_equal(vals, each)
            assert np.array_equal(np.signbit(vals), np.signbit(each))
            # the same point or the same fault: past about 1,700 counts
            # some of these heads have no steady-state branch left
            try:
                want = per_point_steady_state(p, u)
            except SimulationFault as exc:
                with pytest.raises(SimulationFault) as info:
                    steady_state(p, u)
                assert str(info.value) == str(exc)
            else:
                got = steady_state(p, u)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_solves_keep_to_numpy_1_broadcasting(self, monkeypatch):
        # numpy 1.x takes a 1-D b as one vector per matrix only when
        # b.ndim == a.ndim - 1; any other b must be a (stack of) column(s)
        solve = np.linalg.solve

        def numpy1_solve(a, b):
            a, b = np.asarray(a), np.asarray(b)
            if b.ndim != a.ndim - 1 and b.ndim < 2:
                raise ValueError("solve: Input operand 1 does not have "
                                 "enough dimensions")
            return solve(a, b)

        p = make_params(variant="coupled")
        want = steady_state(p, HOVER_THROTTLE)
        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        assert np.array_equal(steady_state(p, HOVER_THROTTLE), want)

    def test_decoupled_stack_is_the_constant_head(self):
        p = make_params(variant="decoupled")
        stack = stiffness_matrix(p, self.GRID)
        assert np.array_equal(stack, np.broadcast_to(stiffness_matrix(p),
                                                     (281, 3, 3)))

    def test_no_branch_past_the_throttle_edge(self):
        p = make_params(variant="coupled")
        steady_state(p, 1752.0)
        with pytest.raises(SimulationFault) as info:
            steady_state(p, 1753.0)
        assert str(info.value) == (
            "no steady-state pitch solution in the admissible range for the "
            "coupled head at throttle 1753 counts")


def transfer_function_zeta(p, nu):
    """Complex zeta response per unit throttle count at azimuth frequency nu."""
    k = stiffness_matrix(p, 0.0)
    a = k + 1j * nu * p.damping - nu * nu * p.inertia
    b = np.array([_INPUT_SCALE, 0.0, 0.0])
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
        np.array([u_amp * _INPUT_SCALE, 0.0, 0.0]),
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


class TestModulation:
    def test_substitution_example(self):
        out = modulation_signal(900.0, (0.0, 200.0), math.pi / 2.0)
        assert out == pytest.approx(1100.0, rel=1e-12)

    def test_zero_amplitude_constant(self):
        theta = np.linspace(0.0, 20.0, 100)
        out = modulation_signal(750.0, (0.0, 0.0), theta)
        assert np.all(out == 750.0)

    def test_zero_mean_over_revolution(self):
        theta = np.arange(0.0, 2.0 * math.pi, 2.0 * math.pi / 4096.0)
        out = modulation_signal(900.0, (120.0, -80.0), theta)
        assert np.mean(out) == pytest.approx(900.0, abs=1e-9)

    def test_phase_from_direction(self):
        # moment along +x demands peak thrust a quarter revolution later
        out_x = modulation_signal(0.0, (50.0, 0.0), 0.0)
        assert out_x == pytest.approx(50.0 * math.sin(math.pi / 2.0), rel=1e-12)


class TestBench:
    def test_zero_amplitude_is_flat(self):
        for variant in ("coupled", "decoupled"):
            p = make_params(variant=variant)
            _, tau = bench_torque_series(p, 900.0, 0.0, 0.0, 2.0, 1000.0)
            centered = tau - tau.mean()
            assert centered.max() - centered.min() < 1e-9

    def test_command_may_not_dip_below_zero_counts(self):
        p = make_params()
        with pytest.raises(ConfigError, match="exceeds throttle"):
            bench_torque_series(p, 900.0, 900.5, 0.0, 0.1, 1000.0)
        # a modulation as deep as the throttle touches zero and is kept
        _, tau = bench_torque_series(p, 900.0, 900.0, 0.0, 0.1, 1000.0)
        assert np.isfinite(tau).all()

    @pytest.mark.parametrize("variant", ["coupled", "decoupled"])
    def test_command_may_not_peak_past_full_throttle(self, variant):
        p = make_params(variant=variant)
        with pytest.raises(ConfigError, match="throttle scale"):
            bench_torque_series(p, 1900.0, 500.0, 0.0, 0.1, 1000.0)
        with pytest.raises(ConfigError, match="throttle scale"):
            bench_torque_series(p, 1000.5, 1000.0, 0.0, 0.1, 1000.0)
        # a peak of exactly the throttle scale is kept
        _, tau = bench_torque_series(p, 1000.0, 1000.0, 0.0, 0.1, 1000.0)
        assert np.isfinite(tau).all()

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
        omega = SPEED_PER_THROTTLE * 900.0
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
        # the last pair rounds to zero output samples
        for duration, fs in ((math.nan, 1000.0), (1.0, math.nan),
                             (math.inf, 1000.0), (0.0004, 1000.0)):
            with pytest.raises(ConfigError):
                bench_torque_series(p, 900.0, 200.0, 0.0, duration, fs)

    @staticmethod
    def spy_on_steps(monkeypatch):
        """A list that collects (psi_step, stride) of each integrate call
        the bench makes."""
        steps = []
        real = rotor.integrate

        def spy(params, y0, psi_step, n_steps, u_half, **kwargs):
            steps.append((psi_step, kwargs["stride"]))
            return real(params, y0, psi_step, n_steps, u_half, **kwargs)

        monkeypatch.setattr(rotor, "integrate", spy)
        return steps

    @pytest.mark.parametrize("throttle", [300.0, 900.0, 1600.0])
    @pytest.mark.parametrize("variant", ["coupled", "decoupled"])
    def test_the_fs_floor_is_stable(self, variant, throttle, monkeypatch):
        """At fs = 2x the rotation frequency, the lowest rate the bench
        takes, every integrator step stays within H_MAX: the run is
        finite and warns of nothing, at low, hover and high throttle."""
        steps = self.spy_on_steps(monkeypatch)
        p = make_params(variant=variant)
        omega = SPEED_PER_THROTTLE * throttle
        fs = omega / math.pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, tau = bench_torque_series(p, throttle, 0.25 * throttle,
                                         0.3, 40.0 / (fs / 2.0), fs)
        assert np.isfinite(tau).all() and np.ptp(tau) > 0.0
        # pi / 0.13 rad: 25 steps per output sample
        assert {stride for _, stride in steps} == {25}
        assert max(h for h, _ in steps) <= rotor.H_MAX

    @pytest.mark.parametrize("throttle, fs, stride", [
        # at 1 kHz the count follows the throttle: 2 at the criterion-4
        # point, 1 near idle and 4 near full throttle
        (300.0, 1000.0, 1), (900.0, 1000.0, 2), (1800.0, 1000.0, 4),
        (900.0, 250.0, 8),
        # down to 25 at the fs floor
        (900.0, 100.0, 20), (300.0, 33.0106084, 20), (1600.0, 150.0, 23),
    ])
    def test_substeps_keep_the_step_bound(self, throttle, fs, stride,
                                          monkeypatch):
        """The bench takes ceil(omega / (fs * H_MAX)) integrator steps per
        output sample, each omega / (fs * stride) rad long."""
        steps = self.spy_on_steps(monkeypatch)
        omega = SPEED_PER_THROTTLE * throttle
        _, tau = bench_torque_series(make_params(), throttle, 0.1 * throttle,
                                     0.0, 20.0 / fs, fs)
        assert np.isfinite(tau).all()
        assert steps and {s for _, s in steps} == {stride}
        assert {h for h, _ in steps} == {omega / (fs * stride)}
        assert omega / (fs * stride) <= rotor.H_MAX

    def test_non_finite_torque_is_a_simulation_fault(self, monkeypatch):
        """With the step bound lifted to 0.64 rad (4 steps per sample at
        these rates), a decoupled head at 300 +- 150 counts sampled at
        33.0106084 Hz takes 0.63 rad steps: its states stay finite, but
        the torque readout overflows to -inf in the last sample. That is a
        SimulationFault naming the sample, with no numpy warning; a head
        that diverges outright is one too."""
        monkeypatch.setattr(rotor, "H_MAX", 0.64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationFault,
                               match=r"^bench torque sample 660 "
                                     r"\(t=19\.9936 s\) is not finite: "
                                     r"-inf$"):
                bench_torque_series(make_params(variant="decoupled"), 300.0,
                                    150.0, 0.0, 20.0, 33.0106084)
            with pytest.raises(SimulationFault, match="^rotor trajectory "
                               "diverged to non-finite values$"):
                bench_torque_series(make_params(variant="coupled"), 900.0,
                                    200.0, 0.0, 10.0, 100.0)

    @pytest.mark.parametrize("fs, duration", [
        # fs * H_MAX dwarfs omega: the step count itself underflows to 0
        (1e300, 1e-300),
        # one step per sample, whose length omega / fs underflows to 0
        (2.793e23, 3.6e-24),
    ])
    def test_an_underflowing_step_is_refused(self, fs, duration,
                                             monkeypatch):
        """An azimuth step that rounds to zero is one ConfigError naming
        the throttle and the rate, before anything integrates."""
        steps = self.spy_on_steps(monkeypatch)
        message = (f"throttle=1e-300 at fs={fs:g} Hz gives an azimuth step "
                   "that underflows to zero")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            bench_torque_series(make_params(), 1e-300, 0.0, 0.0, duration, fs)
        assert steps == []

    @pytest.mark.parametrize("phi, e", [(0.08, 0.15), (0.16, 0.25)])
    def test_h_max_agrees_with_a_step_eight_times_finer(self, phi, e,
                                                        monkeypatch):
        """On two opposite corners of the criterion-4 matrix, the figures
        the criterion orders read the same at H_MAX as at H_MAX / 8: the
        peak-to-peak to 1e-4 relative, the average PSD to 1e-3 dB and the
        decoupled/coupled peak-to-peak ratio to 1e-5 (measured 7.0e-6,
        6.1e-5 dB and 2.2e-7)."""
        fs = 1000.0

        def figures(variant):
            p = make_params(variant=variant, downwash_angle=phi,
                            hinge_offset=e)
            _, tau = bench_torque_series(p, 900.0, 200.0, 0.0, 10.0, fs)
            x = mean_subtract(TimeSeries(fs=fs, values=tau[2000:]),
                              default_mean_window(fs))
            return (float(np.ptp(x.values)),
                    avg_psd_db(psd(x, segment=1024, overlap=0.5)))

        coarse = {v: figures(v) for v in ("coupled", "decoupled")}
        monkeypatch.setattr(rotor, "H_MAX", rotor.H_MAX / 8.0)
        fine = {v: figures(v) for v in ("coupled", "decoupled")}
        for v in coarse:
            assert coarse[v][0] == pytest.approx(fine[v][0], rel=1e-4)
            assert coarse[v][1] == pytest.approx(fine[v][1], abs=1e-3)

        def ratio(figs):
            return figs["decoupled"][0] / figs["coupled"][0]

        assert ratio(coarse) == pytest.approx(ratio(fine), abs=1e-5)

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
        rows = []  # (y0, psi_step, n_steps, u_half)
        for bad in (math.nan, math.inf):
            y0 = np.zeros(6)
            y0[4] = bad
            u_bad = u_half.copy()
            u_bad[7] = bad
            rows += [(np.zeros(6), bad, 10, u_half), (y0, 0.05, 10, u_half),
                     (np.zeros(6), 0.05, 10, u_bad)]
        # y0 must hold exactly 6 states, never be broadcast from one
        for y0 in (np.array([0.01]), np.zeros(5), np.zeros(7),
                   np.zeros((6, 1)), 0.0):
            rows.append((y0, 0.05, 10, u_half))
        for y0, psi_step, n_steps, u in rows:
            with pytest.raises(ConfigError):
                integrate(p, y0, psi_step, n_steps, u)
        # step counts are whole numbers >= 0: no fraction, bool or negative
        for n_steps, u in ((2.5, np.zeros(6)), (-1, np.zeros(1)),
                           (True, np.zeros(3)), (None, u_half)):
            with pytest.raises(ConfigError, match="^n_steps must be a whole"):
                integrate(p, np.zeros(6), 0.05, n_steps, u)
        for first_step in (-1, 2.5, True, None):
            with pytest.raises(ConfigError, match="^first_step must be a "):
                integrate(p, np.zeros(6), 0.05, 10, u_half,
                          first_step=first_step)
        # numpy integers and whole floats are counts too, and zero steps is
        # valid
        for n_steps in (np.int64(10), 10.0, 0):
            traj = integrate(p, np.zeros(6), 0.05, n_steps,
                             np.zeros(2 * int(n_steps) + 1))
            assert traj.shape == (n_steps + 1, 6)
        assert np.array_equal(
            integrate(p, np.zeros(6), 0.05, 10, u_half, first_step=2.0),
            integrate(p, np.zeros(6), 0.05, 10, u_half, first_step=2))

    @pytest.mark.parametrize("variant", ["coupled", "decoupled"])
    def test_diverging_head_is_a_simulation_fault(self, variant):
        """A head with negative damping grows until its states overflow.
        On the coupled head the pitch reaches infinity, where the
        kernel's math.tan raises ValueError; integrate reports either
        head as diverged, with no warning."""
        p = make_params(variant=variant, damping=np.diag([-2.0] * 3))
        y0 = np.array([0.0, 0.01, 0.01, 0.0, 0.0, 0.0])
        n = 4000
        if variant == "coupled":
            with pytest.raises(ValueError, match="math domain error"):
                rotor.kernels.splm_trajectory(
                    y0, n, 0.1, p._inertia_inv_rows, p._damping_rows,
                    p._stiffness_rows, p._kbeta, True, np.zeros(2 * n + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationFault, match="^rotor trajectory "
                               "diverged to non-finite values$"):
                integrate(p, y0, 0.1, n, np.zeros(2 * n + 1))

    def test_integrate_refuses_a_bad_stride_before_the_kernel(self,
                                                              monkeypatch):
        """A stride is a whole count >= 1 that divides n_steps; anything
        else is one ConfigError naming stride, and nothing integrates."""
        def kernel(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(rotor.kernels, "splm_trajectory", kernel)
        p = make_params()
        for stride in (0, -4, 2.5, True, None, math.nan):
            with pytest.raises(ConfigError, match="^stride must be a whole"):
                integrate(p, np.zeros(6), 0.05, 12, np.zeros(25),
                          stride=stride)
        for n_steps, stride in ((12, 5), (10, 4), (1, 2)):
            with pytest.raises(ConfigError,
                               match=f"^stride {stride} does not divide "
                                     f"n_steps {n_steps}$"):
                integrate(p, np.zeros(6), 0.05, n_steps,
                          np.zeros(2 * n_steps + 1), stride=stride)

    def test_integrate_keeps_every_stride_th_row(self):
        p = make_params(variant="coupled")
        n = 24
        u_half = 900.0 + 200.0 * np.sin(np.arange(2 * n + 1) * 0.025)
        y0 = np.concatenate([steady_state(p, 900.0), np.zeros(3)])
        full = integrate(p, y0, 0.05, n, u_half)
        for stride in (1, 3, 4.0, np.int64(8), 24):
            got = integrate(p, y0, 0.05, n, u_half, stride=stride)
            assert np.array_equal(got, full[::int(stride)])

    def test_torque_model_guards_singular_pitch(self):
        p = make_params(variant="coupled")
        traj = np.zeros((3, 6))
        traj[1, 2] = math.pi / 4.0
        with pytest.raises(NumericalDomainError):
            torque_from_states(p, np.full(3, 900.0), traj)


def bench_steps(throttle, fs):
    """The bench's integrator steps per output sample."""
    return math.ceil(SPEED_PER_THROTTLE * throttle / (fs * rotor.H_MAX))


def whole_run_bench(params, throttle, amplitude, phase, n_out, fs):
    """The bench as one integrate call over the whole half grid, keeping
    every row the bench samples: the form the blocked bench must
    reproduce to the bit."""
    substeps = bench_steps(throttle, fs)
    n_steps = n_out * substeps
    h = SPEED_PER_THROTTLE * throttle / (fs * substeps)
    m_d = (amplitude * math.sin(phase), amplitude * math.cos(phase))
    u_half = modulation_signal(throttle, m_d,
                               np.arange(2 * n_steps + 1) * (0.5 * h))
    y0 = np.concatenate([rotor.steady_state(params, throttle), np.zeros(3)])
    traj = integrate(params, y0, h, n_steps, u_half)
    t = np.arange(n_out + 1) / fs
    return t, torque_from_states(params, u_half[::2 * substeps],
                                 traj[::substeps])


def pitch_ramp_head(beta_trip, trip_step, throttle, fs, monkeypatch):
    """A coupled head whose pitch only accelerates, at a constant rate set
    by the throttle (no damping, stiffness or lag-pitch feedback; the
    inverse inertia carries the drive into beta). The bench's start state
    is patched so that beta is first within the 1e-6 rad guard band of
    pi/4 at the start of step trip_step, at beta_trip."""
    c = 1e-7
    p = make_params(variant="coupled",
                    inertia=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-c, 0.0, 1.0]],
                    damping=np.zeros((3, 3)), stiffness_const=np.zeros((3, 3)),
                    downwash_angle=0.0, hinge_offset=0.75)
    accel = c * throttle * _INPUT_SCALE
    h = SPEED_PER_THROTTLE * throttle / (fs * bench_steps(throttle, fs))
    beta0 = beta_trip - 0.5 * accel * (trip_step * h) ** 2
    y0 = np.array([0.0, 0.0, beta0])
    monkeypatch.setattr(rotor, "steady_state", lambda params, u: y0.copy())
    return p


class TestBlockedBench:
    """bench_torque_series integrates _BENCH_BLOCK output samples per
    integrate call; the result is the whole-run form's, bit for bit."""

    B = rotor._BENCH_BLOCK
    # steps per output sample at 900 counts and 1 kHz
    S = bench_steps(900.0, 1000.0)

    @pytest.mark.parametrize("variant", ["coupled", "decoupled"])
    @pytest.mark.parametrize("n_out", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_blocks_match_one_whole_run(self, variant, n_out):
        p = make_params(variant=variant)
        t, tau = bench_torque_series(p, 900.0, 200.0, 0.3, n_out / 1000.0,
                                     1000.0)
        t_ref, tau_ref = whole_run_bench(p, 900.0, 200.0, 0.3, n_out, 1000.0)
        assert t.shape == tau.shape == (n_out + 1,)
        for got, want in ((t, t_ref), (tau, tau_ref)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_each_integrate_call_holds_one_block(self, monkeypatch):
        """A 60 s bench passes no integrate call more than one block's
        half grid, its calls together take every step exactly once, and
        each call gets back only the rows the bench samples."""
        calls, strides, rows = [], [], []
        real = rotor.integrate

        def spy(params, y0, psi_step, n_steps, u_half, *, first_step=0,
                stride=1):
            calls.append((first_step, n_steps, len(u_half)))
            strides.append(stride)
            traj = real(params, y0, psi_step, n_steps, u_half,
                        first_step=first_step, stride=stride)
            rows.append(len(traj) == n_steps // stride + 1)
            return traj

        monkeypatch.setattr(rotor, "integrate", spy)
        n_out = 60000
        bench_torque_series(make_params(variant="decoupled"), 900.0, 200.0,
                            0.0, 60.0, 1000.0)
        substeps = self.S
        assert set(strides) == {substeps} and all(rows)
        assert max(size for _, _, size in calls) <= 2 * substeps * self.B + 1
        assert sum(n for _, n, _ in calls) == substeps * n_out
        assert [first for first, _, _ in calls] == list(
            np.cumsum([0] + [n for _, n, _ in calls[:-1]]))

    @pytest.mark.parametrize("trip_step", [S * B, S * B + 1999],
                             ids=["second_block_start", "mid_second_block"])
    def test_singular_pitch_step_counts_from_the_run(self, monkeypatch,
                                                     trip_step):
        # the second block's first step starts from the first block's end
        # row, which only the second block's integrate call checks
        throttle, fs, n_out = 900.0, 1000.0, 2 * self.B + 5
        p = pitch_ramp_head(0.25 * math.pi - 5e-7, trip_step, throttle, fs,
                            monkeypatch)
        step = rf"^step {trip_step}: blade pitch"
        with pytest.raises(NumericalDomainError, match=step):
            whole_run_bench(p, throttle, 0.0, 0.0, n_out, fs)
        with pytest.raises(NumericalDomainError, match=step):
            bench_torque_series(p, throttle, 0.0, 0.0, n_out / fs, fs)

    @pytest.mark.parametrize("duration,cause", [(1e17, ValueError),
                                                (1e13, MemoryError)])
    def test_too_many_output_samples(self, duration, cause):
        """numpy refuses the output arrays before anything is allocated:
        past its shape limit (ValueError) or past memory (MemoryError)."""
        with pytest.raises(ConfigError,
                           match="output samples, too many to simulate"
                           ) as info:
            bench_torque_series(make_params(), 900.0, 200.0, 0.0, duration,
                                1000.0)
        assert isinstance(info.value.__cause__, cause)
