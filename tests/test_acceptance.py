"""Acceptance gate: one test and one printed PASS/FAIL line per shipped
guarantee. Run `pytest tests/test_acceptance.py -v -s` to see the lines.

Each test times itself where a runtime budget applies, evaluates every
sub-check, and prints a single summary line before asserting, so a red
run still shows the full scoreboard.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from coaxtail import quat
from coaxtail.aero import TandemConfig, WingMode, WingPanel, pitch_moment, \
    stability_margin, static_stability_check
from coaxtail.analysis import TimeSeries, avg_psd_db, default_mean_window, \
    mean_subtract, peak_to_peak_reduction, psd
from coaxtail.control import AllocationGains, Wrench, forward_model, mix
from coaxtail.propulsion import average_power, crossover_ratio, \
    fixture_config_powers
from coaxtail.rotor import SplmParams, _INPUT_SCALE, bench_torque_series, \
    integrate, steady_state, stiffness_matrix
from coaxtail.vehicle import ScenarioSpec, VehicleParams, pack_state, \
    run_scenario, step_6dof, transition_profile


def report(num, label, checks, timing=""):
    failed = [name for name, ok in checks.items() if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = timing if not failed else "failed: " + ", ".join(failed)
    print(f"criterion {num} [{label}]: {status}" +
          (f" ({detail})" if detail else ""))
    assert not failed, f"criterion {num} {label} failed: {failed}"


class TestCriterion1:
    def test_power_study_exact(self):
        t0 = time.perf_counter()
        powers = fixture_config_powers("paper-2025")
        by = {p.name: p for p in powers}
        r_star = crossover_ratio(by["HPC"], by["HLC"])
        hpc = average_power(by["HPC"], 0.2)
        red_hlc = 100.0 * (1.0 - hpc / average_power(by["HLC"], 0.2))
        red_hsc = 100.0 * (1.0 - hpc / average_power(by["HSC"], 0.2))
        gap_mr = 100.0 * (by["HSC"].hover_w - by["HPC"].hover_w) \
            / by["HSC"].hover_w
        gap_fw = 100.0 * (by["HLC"].cruise_w - by["HPC"].cruise_w) \
            / by["HLC"].cruise_w
        elapsed = time.perf_counter() - t0
        checks = {
            "HPC_hover_138.3": abs(by["HPC"].hover_w - 138.3) < 1e-9,
            "HLC_cruise_122": abs(by["HLC"].cruise_w - 122.0) < 1e-9,
            "HSC_hover_210.6": abs(by["HSC"].hover_w - 210.6) < 1e-9,
            "crossover_44.7pct": abs(100.0 * r_star - 44.7) <= 0.1,
            "reduction_vs_HLC_29.2pct": abs(red_hlc - 29.2) <= 0.1,
            "reduction_vs_HSC_15.6pct": abs(red_hsc - 15.6) <= 0.1,
            "multirotor_gap_34pct": abs(gap_mr - 34.0) <= 0.5,
            "fixedwing_gap_48pct": abs(gap_fw - 48.0) <= 0.5,
            "runtime_under_1s": elapsed < 1.0,
        }
        report(1, "power study", checks, f"{elapsed:.3f} s")


class TestCriterion2:
    def test_mixer_identity(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(10_000):
            g = AllocationGains(
                c_t1=rng.uniform(0.001, 2.0), c_t2=rng.uniform(0.001, 2.0),
                k_t1=rng.uniform(1e-5, 0.5), k_t2=rng.uniform(1e-5, 0.5),
                c_m=rng.uniform(1e-4, 0.1),
                k_ey=rng.uniform(0.01, 0.5) * rng.choice([-1.0, 1.0]),
                k_ez=rng.uniform(0.01, 0.5) * rng.choice([-1.0, 1.0]))
            lam = rng.uniform(0.0, 1.0)
            w = Wrench(*(rng.uniform(-20.0, 20.0, 4)))
            back = forward_model(mix(w, g, lam), g)
            worst = max(worst,
                        abs(back.f_t - w.f_t), abs(back.tau_x - w.tau_x),
                        abs(back.tau_y - w.tau_y), abs(back.tau_z - w.tau_z))
        elapsed = time.perf_counter() - t0

        g = AllocationGains()
        w = Wrench(f_t=10.0, tau_x=0.5, tau_y=0.4, tau_z=0.3)
        full_elevon = mix(w, g, 0.0)
        thrust_only = mix(Wrench(f_t=10.0, tau_x=0.5, tau_y=0.4,
                                 tau_z=0.0), g, 0.0)
        checks = {
            "round_trip_under_1e-9": worst < 1e-9,
            "lam1_zeroes_elevons": mix(w, g, 1.0).d_1 == 0.0
            and mix(w, g, 1.0).d_2 == 0.0,
            "lam0_zeroes_rotor_pitch": full_elevon.m_dy == 0.0,
            "lam0_zeroes_rotor_yaw": full_elevon.t_d1 == thrust_only.t_d1
            and full_elevon.t_d2 == thrust_only.t_d2,
            "runtime_under_5s": elapsed < 5.0,
        }
        report(2, "mixer algebra", checks,
               f"max residual {worst:.3g}, {elapsed:.2f} s")


def _tf_zeta(p, nu):
    k = stiffness_matrix(p, 0.0)
    a = k + 1j * nu * p.damping - nu * nu * p.inertia
    return np.linalg.solve(a, np.array([_INPUT_SCALE, 0.0, 0.0]))[1]


def _sim_zeta(p, nu, u_amp, n_revs=40, steps_per_rev=512):
    h = 2.0 * math.pi / steps_per_rev
    n = n_revs * steps_per_rev
    psi_half = np.arange(2 * n + 1) * (0.5 * h)
    u_half = u_amp * np.sin(nu * psi_half)
    xhat = np.linalg.solve(
        stiffness_matrix(p, 0.0) + 1j * nu * p.damping - nu * nu * p.inertia,
        np.array([u_amp * _INPUT_SCALE, 0.0, 0.0]))
    y0 = np.concatenate([np.imag(xhat), nu * np.real(xhat)])
    traj = integrate(p, y0, h, n, u_half)
    psi = np.arange(n + 1) * h
    span = int(round((2.0 * math.pi / nu) / h))
    m = max(1, n // span) * span
    w = np.exp(-1j * nu * psi[:m])
    return 2.0 * np.mean(traj[:m, 1] * w) * 1j


class TestCriterion3:
    def test_splm_oracles(self):
        p = SplmParams(variant="decoupled")
        # each frequency fits an integer number of 512-per-rev samples
        # per drive period, so the phasor projection is leakage-free
        nus = [256.0 / m for m in (
            64, 80, 100, 128, 160, 200, 256, 320, 400, 512,
            640, 800, 1024, 1280, 1600, 2048, 2560, 3200, 4096, 5120)]
        worst_tf = 0.0
        for nu in nus:
            want = _tf_zeta(p, nu) * 300.0
            got = _sim_zeta(p, nu, 300.0)
            worst_tf = max(worst_tf, abs(got - want) / abs(want))

        pc = SplmParams(variant="coupled")
        x0 = steady_state(pc, 900.0)
        y0 = np.concatenate([x0, np.zeros(3)])
        span = 16.0 * math.pi

        def run(n):
            psi_half = np.linspace(0.0, span, 2 * n + 1)
            return integrate(pc, y0, span / n, n,
                             900.0 + 250.0 * np.sin(psi_half))[-1]

        ref = run(3200)
        ratio = (np.max(np.abs(run(200) - ref))
                 / np.max(np.abs(run(400) - ref)))

        # geometry whose beta row never couples: hinge offset 0.75 zeroes
        # the coupling column entry and the beta rows are pure diagonal
        m = np.array([[1.0, 0.25, 0.0], [0.25, 0.14, 0.0], [0.0, 0.0, 0.06]])
        c = np.array([[0.45, 0.04, 0.0], [0.04, 0.20, 0.0], [0.0, 0.0, 0.24]])
        k = np.array([[2.0, 0.0, 0.0], [-0.045, 0.15, 0.0], [0.0, 0.0, 0.14]])
        kw = dict(inertia=m, damping=c, stiffness_const=k, hinge_offset=0.75)
        n_b, h_b = 600, 0.05
        psi_half = np.arange(2 * n_b + 1) * (0.5 * h_b)
        u = 900.0 + 200.0 * np.sin(psi_half)
        y0b = np.array([0.1, -0.05, 0.0, 0.02, 0.01, 0.0])
        ta = integrate(SplmParams(variant="coupled", **kw), y0b, h_b, n_b, u)
        tb = integrate(SplmParams(variant="decoupled", **kw), y0b, h_b, n_b, u)

        checks = {
            "tf_match_20_freqs_1e-4": worst_tf < 1e-4,
            "rk4_ratio_ge_12": ratio >= 12.0,
            "beta0_variants_bitwise_equal": np.array_equal(ta, tb),
        }
        report(3, "rotor dynamics oracles", checks,
               f"worst TF err {worst_tf:.2e}, ratio {ratio:.1f}")


class TestCriterion4:
    def test_decoupled_quieter_across_matrix(self):
        fs = 1000.0
        window = default_mean_window(fs)
        results = []
        for phi in (0.08, 0.12, 0.16):
            for e in (0.15, 0.20, 0.25):
                metrics = {}
                for variant in ("coupled", "decoupled"):
                    p = SplmParams(variant=variant, downwash_angle=phi,
                                   hinge_offset=e)
                    _, tau = bench_torque_series(p, 900.0, 200.0, 0.0,
                                                 10.0, fs)
                    s = mean_subtract(TimeSeries(fs=fs, values=tau[2000:]),
                                      window)
                    p2p = float(s.values.max() - s.values.min())
                    db = avg_psd_db(psd(s, segment=1024, overlap=0.5))
                    metrics[variant] = (p2p, db)
                c, d = metrics["coupled"], metrics["decoupled"]
                results.append((phi, e, d[0] < c[0], d[1] < c[1]))
        checks = {
            f"phi{phi:g}_e{e:g}_p2p_and_psd": p2p_ok and psd_ok
            for phi, e, p2p_ok, psd_ok in results
        }
        checks["matrix_has_at_least_5_configs"] = len(results) >= 5
        report(4, "vibration direction", checks,
               f"{len(results)} configs, both orderings hold")


class TestCriterion5:
    def test_spectral_chain(self):
        fs, n, amp = 1000.0, 8192, 3.0
        t = np.arange(n) / fs
        sine = TimeSeries(fs=fs, values=amp * np.sin(2.0 * math.pi * 62.5 * t))
        result = psd(sine, segment=1024, overlap=0.5)
        total = float(np.sum(result.density) * (result.freq[1]
                                                - result.freq[0]))

        rng = np.random.default_rng(41)
        noisy = TimeSeries(fs=fs, values=rng.standard_normal(1000) + 2.0)
        once = mean_subtract(noisy, 64)
        twice = mean_subtract(once, 64)
        idem = float(np.max(np.abs(twice.values - once.values)))

        white = TimeSeries(fs=fs, values=rng.standard_normal(8192))
        a = psd(white, segment=512)
        b = psd(TimeSeries(fs=fs, values=white.values * math.sqrt(10.0)),
                segment=512)
        db_step = avg_psd_db(b) - avg_psd_db(a)

        base = TimeSeries(fs=fs, values=np.sin(2.0 * math.pi * 40.0 * t))
        reduced = peak_to_peak_reduction(
            base, TimeSeries(fs=fs, values=0.371 * base.values))

        checks = {
            "sine_power_within_2pct": abs(total - amp * amp / 2.0)
            <= 0.02 * amp * amp / 2.0,
            "mean_subtract_idempotent_1e-12": idem < 1e-12,
            "db_identity_exact": abs(db_step - 10.0) < 1e-9,
            "p2p_reduction_62.9_to_0.1pp": abs(reduced - 62.9) <= 0.1,
        }
        report(5, "spectral analysis", checks,
               f"sine power {total:.4f}, reduction {reduced:.2f}%")


def _table_config(l_front=0.24, l_rear=0.30):
    front = WingPanel(area=0.048, incidence=math.radians(4.5), arm=l_front,
                      lift_slope=5.0, cl0=0.3)
    rear = WingPanel(area=0.056, incidence=math.radians(2.0), arm=l_rear,
                     lift_slope=5.0, cl0=0.3)
    return TandemConfig(front=front, rear=rear)


class TestCriterion6:
    def test_static_stability(self):
        # published incidences with a spread of arm pairs, every one of
        # them satisfying the area-arm inequality
        stable_all = all(
            static_stability_check(_table_config(lf, lr)).stable
            for lf, lr in ((0.24, 0.30), (0.10, 0.30), (0.30, 0.26)))
        unstable_flagged = not static_stability_check(
            _table_config(0.35, 0.30)).stable

        cfg = _table_config()
        v, da, h = 12.0, 0.01, 1e-6
        fd = (pitch_moment(cfg, v, da + h)
              - pitch_moment(cfg, v, da - h)) / (2.0 * h)
        analytic = stability_margin(cfg, v)
        slope_err = abs(fd - analytic) / abs(analytic)

        # arms tuned so the trim point sits at zero AoA deviation
        cl_f = 5.0 * math.radians(4.5) + 0.3
        cl_r = 5.0 * math.radians(2.0) + 0.3
        trimmed = _table_config(0.30 * (0.056 * cl_r) / (0.048 * cl_f), 0.30)
        restoring = all(
            pitch_moment(trimmed, 10.0, d) * d < 0.0
            for d in np.linspace(math.radians(-5.0), math.radians(5.0), 50)
            if d != 0.0)

        checks = {
            "table_geometry_stable": stable_all,
            "violated_inequality_flagged": unstable_flagged,
            "slope_matches_fd_1e-9": slope_err < 1e-9,
            "moment_opposes_deviation_50grid": restoring,
        }
        report(6, "static stability", checks, f"slope err {slope_err:.1e}")


def _scaled_wings(params, scale):
    """params with both wing panels' areas times scale."""
    t = params.tandem
    return replace(params, tandem=replace(
        t, front=replace(t.front, area=t.front.area * scale),
        rear=replace(t.rear, area=t.rear.area * scale)))


class TestCriterion7:
    def test_wind_rejection(self, shipped_run):
        runtimes = []

        def peak(spec, params):
            t0 = time.perf_counter()
            log = run_scenario(spec, params)
            runtimes.append(time.perf_counter() - t0)
            return log.peak_deviation(spec.position, t_min=spec.wind.start)

        def shipped_peak(mode):
            spec, _, log, seconds = shipped_run(f"wind_{mode.value}")
            runtimes.append(seconds)
            return log.peak_deviation(spec.position, t_min=spec.wind.start)

        # the shipped gust scenario, configs/wind_<mode>.cfg, with the
        # wings fixed in each mode
        spec, params, _, _ = shipped_run("wind_extended")
        dev_ext = shipped_peak(WingMode.EXTENDED)
        dev_ret = shipped_peak(WingMode.RETRACTED)
        ratio = dev_ret / dev_ext

        devs = [dev_ext if scale == 1.0 else peak(
            spec, _scaled_wings(params, scale)) for scale in (0.6, 1.0, 1.4)]

        checks = {
            "retracted_ratio_le_0.5": ratio <= 0.5,
            "deviation_monotone_in_area": devs[0] < devs[1] < devs[2],
            "runtime_under_30s_per_run": max(runtimes) < 30.0,
        }
        report(7, "wind rejection", checks,
               f"ratio {ratio:.3f}, slowest run {max(runtimes):.1f} s")


class TestCriterion8:
    def test_transition(self, shipped_run):
        profile_exact = (
            transition_profile(0.0) == pytest.approx(math.radians(-10.0),
                                                     abs=1e-12)
            and transition_profile(12.0) == pytest.approx(
                math.radians(-45.0), abs=1e-12)
            and transition_profile(44.0) == 0.0
            and transition_profile(90.0) == 0.0)

        _, _, log, elapsed = shipped_run("transition")

        # the ramp (2-22 s) and the last second of the cruise hold (41-42 s)
        rms_deg, speed = log.transition_tracking()

        checks = {
            "profile_breakpoints_exact": profile_exact,
            "cruise_speed_15.6pm2": abs(speed - 15.6) <= 2.0,
            "ramp_pitch_rms_under_5deg": rms_deg < 5.0,
            "runtime_under_60s": elapsed < 60.0,
        }
        report(8, "transition scenario", checks,
               f"speed {speed:.2f} m/s, RMS {rms_deg:.2f} deg, "
               f"{elapsed:.1f} s")


class TestCriterion9:
    def test_rigid_body(self):
        params = VehicleParams()
        # a state is the tuple [p, v, q (wxyz), w]
        state = pack_state(np.zeros(3))
        for _ in range(1000):
            state = step_6dof(state, np.zeros(3), np.zeros(3), params, 1e-3)
        free_fall_ok = abs(state[5] + 9.81) < 1e-9

        inertia = params.inertia
        spin = pack_state(
            position=np.zeros(3), velocity=np.zeros(3),
            orientation=np.array([1.0, 0.0, 0.0, 0.0]),
            body_rate=np.array([2.0, -1.5, 3.0]))
        l0 = np.array(quat.rotate(spin[6:10], inertia @ spin[10:13]))
        for _ in range(10_000):
            spin = step_6dof(spin, np.zeros(3), np.zeros(3), params, 1e-3)
        l1 = np.array(quat.rotate(spin[6:10], inertia @ spin[10:13]))
        momentum_ok = (np.linalg.norm(l1 - l0) / np.linalg.norm(l0)) < 1e-6

        spec = ScenarioSpec(name="det", mode="hover", duration=2.0,
                            position=(0.0, 0.0, 1.5),
                            start_position=(0.1, -0.1, 1.3))
        log_a = run_scenario(spec, params)
        log_b = run_scenario(spec, params)
        deterministic = (np.array_equal(log_a.state, log_b.state)
                         and np.array_equal(log_a.td1, log_b.td1)
                         and np.array_equal(log_a.d1, log_b.d1))

        checks = {
            "free_fall_1e-9": free_fall_ok,
            "momentum_conserved_1e-6_over_10s": momentum_ok,
            "bit_exact_determinism": deterministic,
        }
        report(9, "rigid-body integrator", checks)
