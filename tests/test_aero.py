"""Tandem-wing statics: lift line, pitch moment, stability."""

import math

import numpy as np
import pytest

from coaxtail.errors import ConfigError, LinearRangeError
from coaxtail.aero import (
    StabilityReport,
    TandemConfig,
    WingPanel,
    lift_coefficient,
    pitch_moment,
    stability_margin,
    static_stability_check,
    wing_force,
)

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


class TestLiftLine:
    def test_zero_alpha_gives_cl0(self):
        panel = WingPanel(area=0.05, lift_slope=4.0, cl0=0.37,
                          incidence=0.0, arm=0.2)
        assert lift_coefficient(0.0, panel) == 0.37

    def test_scalar_example(self):
        panel = WingPanel(area=0.05, lift_slope=5.7296, cl0=0.5,
                          incidence=0.0, arm=0.2)
        assert lift_coefficient(math.radians(2.0), panel) == pytest.approx(
            0.7, abs=2e-5)

    def test_out_of_range_rejected(self):
        panel = WingPanel(area=0.05, lift_slope=5.0, cl0=0.3,
                          incidence=0.0, arm=0.2)
        with pytest.raises(LinearRangeError):
            lift_coefficient(math.radians(11.0), panel)
        with pytest.raises(LinearRangeError):
            lift_coefficient(math.radians(-5.5), panel)


class TestWingForce:
    def test_zero_speed(self):
        panel = WingPanel(area=0.048, lift_slope=5.0, cl0=0.3,
                          incidence=0.0, arm=0.2)
        assert wing_force(0.0, 0.02, panel, 1.225) == 0.0

    def test_scalar_example(self):
        # Cl = 0.8 via cl0 at zero AoA
        panel = WingPanel(area=0.048, lift_slope=5.0, cl0=0.8,
                          incidence=0.0, arm=0.2)
        f = wing_force(16.0, 0.0, panel, 1.225)
        assert f == pytest.approx(6.021, abs=2e-3)

    def test_quadratic_in_speed(self):
        panel = WingPanel(area=0.048, lift_slope=5.0, cl0=0.3,
                          incidence=0.0, arm=0.2)
        f1 = wing_force(7.0, 0.03, panel, 1.225)
        f2 = wing_force(14.0, 0.03, panel, 1.225)
        assert f2 == pytest.approx(4.0 * f1, rel=1e-12)

    def test_negative_speed_rejected(self):
        panel = WingPanel(area=0.048, lift_slope=5.0, cl0=0.3,
                          incidence=0.0, arm=0.2)
        with pytest.raises(ConfigError):
            wing_force(-1.0, 0.0, panel, 1.225)


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

    def test_range_error_propagates(self):
        with pytest.raises(LinearRangeError):
            pitch_moment(table_config(), 10.0, math.radians(7.0))


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

