"""Tandem-wing force law, pitch moment, stability."""

import math

import numpy as np
import pytest

from coaxtail.errors import ConfigError, LinearRangeError
from coaxtail.aero import (
    StabilityReport,
    TandemConfig,
    WingPanel,
    panel_cn,
    pitch_moment,
    stability_margin,
    static_stability_check,
    tandem_wrench,
)

RHO = 1.225
AIRFOIL = dict(lift_slope=5.0, cl0=0.3)


def table_config(l_front=0.24, l_rear=0.30):
    """Wing geometry from the published airframe: 480x100 and 560x100 mm
    panels at 4.5 and 2 degrees. Arms and airfoil constants are
    illustrative; the airfoil is shared by both panels."""
    front = WingPanel(area=0.048, incidence=math.radians(4.5), arm=l_front,
                      **AIRFOIL)
    rear = WingPanel(area=0.056, incidence=math.radians(2.0), arm=l_rear,
                     **AIRFOIL)
    return TandemConfig(front=front, rear=rear)


def trimmed_config():
    """Arms chosen so the moment vanishes exactly at zero AoA deviation."""
    cl_f = AIRFOIL["lift_slope"] * math.radians(4.5) + AIRFOIL["cl0"]
    cl_r = AIRFOIL["lift_slope"] * math.radians(2.0) + AIRFOIL["cl0"]
    l_rear = 0.30
    l_front = l_rear * (0.056 * cl_r) / (0.048 * cl_f)
    return table_config(l_front=l_front, l_rear=l_rear)


def vehicle_tandem():
    """The simulator's stock tandem: 480x100 and 560x100 mm panels at 4.5
    and 2 degrees on a Cl = 2.2*alpha + 0.32 airfoil."""
    return TandemConfig(
        front=WingPanel(area=0.048, lift_slope=2.2, cl0=0.32,
                        incidence=math.radians(4.5), arm=0.24),
        rear=WingPanel(area=0.056, lift_slope=2.2, cl0=0.32,
                       incidence=math.radians(2.0), arm=0.30))


class TestPanelCn:
    def test_zero_alpha_gives_cl0(self):
        panel = WingPanel(area=0.05, lift_slope=4.0, cl0=0.37,
                          incidence=0.0, arm=0.2)
        assert panel_cn(panel, 0.0) == 0.37

    def test_scalar_example(self):
        panel = WingPanel(area=0.05, lift_slope=5.7296, cl0=0.5,
                          incidence=0.0, arm=0.2)
        assert panel_cn(panel, math.radians(2.0)) == pytest.approx(
            0.7, abs=2e-5)

    def test_in_range_is_exactly_the_lift_line(self):
        panel = vehicle_tandem().front
        for deg in (-5.0, -2.0, 0.0, 4.0, 10.0):
            a = math.radians(deg)
            assert panel_cn(panel, a) == panel.lift_slope * a + panel.cl0

    def test_past_the_blend_band_is_the_flat_plate(self):
        panel = vehicle_tandem().front
        for deg in (40.0, 90.0, 150.0, -35.0, -90.0):
            a = math.radians(deg)
            assert panel_cn(panel, a) == 1.2 * math.sin(a)

    def test_coefficient_is_continuous(self):
        panel = vehicle_tandem().front
        grid = np.radians(np.arange(-180.0, 180.01, 0.05))
        vals = np.array([panel_cn(panel, float(a)) for a in grid])
        assert np.max(np.abs(np.diff(vals))) < 3e-3
        assert np.max(np.abs(vals)) < 1.35


class TestTandemWrench:
    def test_linear_range_is_the_lift_line(self):
        """At zero angle of attack each panel sits at its incidence, where
        the coefficient is the plain lift line."""
        q = 0.5 * RHO * 12.0 * 12.0
        fx, ty = tandem_wrench(vehicle_tandem(), q, 0.0)
        f_front = q * 0.048 * (2.2 * math.radians(4.5) + 0.32)
        f_rear = q * 0.056 * (2.2 * math.radians(2.0) + 0.32)
        assert fx == pytest.approx(f_front + f_rear, rel=1e-12)
        assert ty == pytest.approx(0.24 * f_front - 0.30 * f_rear, rel=1e-12)

    def test_pure_crossflow_pushes_downwind(self):
        # alpha = +90 deg: post-stall plate force on both panels
        q = 0.5 * RHO * 36.0
        fx, _ = tandem_wrench(vehicle_tandem(), q, math.pi / 2)
        expected = q * (0.048 * 1.2 * math.sin(math.pi / 2
                                               + math.radians(4.5))
                        + 0.056 * 1.2 * math.sin(math.pi / 2
                                                 + math.radians(2.0)))
        assert fx == pytest.approx(expected, rel=1e-12)
        assert fx > 0.0

    def test_zero_dynamic_pressure_gives_nothing(self):
        for alpha in (0.0, 0.3, math.pi / 2, -2.0):
            assert tandem_wrench(vehicle_tandem(), 0.0, alpha) == (0.0, 0.0)

    def test_pitch_moment_is_its_moment(self):
        cfg = table_config()
        for v in (0.0, 7.0, 13.0):
            for da in (math.radians(-3.0), 0.0, math.radians(2.5)):
                assert pitch_moment(cfg, v, da) == tandem_wrench(
                    cfg, 0.5 * RHO * v * v, da)[1]


class TestPitchMoment:
    def test_constructed_trim_is_zero(self):
        cfg = trimmed_config()
        assert pitch_moment(cfg, 12.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_speed_zero_moment(self):
        assert pitch_moment(table_config(), 0.0, 0.01) == 0.0

    def test_restoring_signs_on_stable_config(self):
        cfg = trimmed_config()
        assert static_stability_check(cfg).stable
        assert pitch_moment(cfg, 12.0, math.radians(2.0)) < 0.0
        assert pitch_moment(cfg, 12.0, math.radians(-2.0)) > 0.0

    def test_moment_opposes_deviation_on_grid(self):
        cfg = trimmed_config()
        for da in np.linspace(math.radians(-5.0), math.radians(5.0), 50):
            if da == 0.0:
                continue
            assert pitch_moment(cfg, 10.0, da) * da < 0.0

    def test_quadratic_in_speed(self):
        cfg = table_config()
        m1 = pitch_moment(cfg, 7.0, 0.03)
        assert pitch_moment(cfg, 14.0, 0.03) == pytest.approx(4.0 * m1,
                                                              rel=1e-12)

    @pytest.mark.parametrize("v", [-1.0, math.nan, math.inf])
    def test_bad_speed_rejected(self, v):
        with pytest.raises(ConfigError, match="^v must be non-negative"):
            pitch_moment(table_config(), v, 0.0)

    @pytest.mark.parametrize("deg", [7.0, -7.5, math.nan])
    def test_out_of_range_angle_rejected(self, deg):
        # +7 deg puts the front panel at 11.5; -7.5 puts the rear at -5.5
        with pytest.raises(LinearRangeError, match="outside the linear range"):
            pitch_moment(table_config(), 10.0, math.radians(deg))


class TestStability:
    def test_table_configuration_stable(self):
        report = static_stability_check(table_config())
        assert isinstance(report, StabilityReport)
        assert report.stable
        assert report.margin < 0.0
        assert report.trim_exists

    def test_swapped_incidences_unstable(self):
        front = WingPanel(area=0.048, incidence=math.radians(2.0), arm=0.24,
                          **AIRFOIL)
        rear = WingPanel(area=0.056, incidence=math.radians(4.5), arm=0.30,
                         **AIRFOIL)
        assert not static_stability_check(TandemConfig(front, rear)).stable

    def test_equal_area_arm_products_not_stable(self):
        front = WingPanel(area=0.048, incidence=math.radians(4.5), arm=0.35,
                          **AIRFOIL)
        rear = WingPanel(area=0.056, incidence=math.radians(2.0), arm=0.30,
                         **AIRFOIL)
        cfg = TandemConfig(front, rear)
        assert front.area * front.arm == pytest.approx(rear.area * rear.arm)
        assert not static_stability_check(cfg).stable

    def test_mismatched_airfoils_rejected(self):
        front = WingPanel(area=0.048, lift_slope=5.0, cl0=0.3,
                          incidence=math.radians(4.5), arm=0.24)
        rear = WingPanel(area=0.056, lift_slope=5.2, cl0=0.3,
                         incidence=math.radians(2.0), arm=0.30)
        with pytest.raises(ConfigError):
            static_stability_check(TandemConfig(front, rear))

    def test_margin_matches_finite_difference(self):
        cfg = table_config()
        v = 13.0
        h = 1e-3
        fd = (pitch_moment(cfg, v, h) - pitch_moment(cfg, v, -h)) / (2.0 * h)
        analytic = stability_margin(cfg, v)
        assert analytic == pytest.approx(fd, rel=1e-9)

    def test_margin_constant_across_linear_range(self):
        cfg = table_config()
        v, h = 13.0, 1e-3
        slopes = []
        for da0 in (math.radians(-2.0), 0.0, math.radians(3.0)):
            slopes.append((pitch_moment(cfg, v, da0 + h)
                           - pitch_moment(cfg, v, da0 - h)) / (2.0 * h))
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-9)
        assert slopes[1] == pytest.approx(slopes[2], rel=1e-9)

