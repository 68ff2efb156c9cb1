"""Property tests: every constructor refuses a non-finite float with ConfigError.

Each example puts one NaN or infinity into one float field (or one element
of a vector or matrix field) of an otherwise valid constructor call. The
call must raise ConfigError, never any other exception. A blade count
must also be a whole number, and each field a constructor checks as
positive (non-negative) must refuse zero and a negative value (a
negative value).
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from coaxtail import aero, analysis, control, propulsion, rotor, vehicle
from coaxtail.aero import TandemConfig, WingPanel
from coaxtail.analysis import TimeSeries
from coaxtail.control import ActuatorLimits, AllocationGains, CascadeGains
from coaxtail.errors import ConfigError
from coaxtail.propulsion import PropellerTable, RpmSheet
from coaxtail.rotor import SplmParams, rotor_solidity
from coaxtail.vehicle import (
    LambdaSchedule,
    ScenarioSpec,
    VehicleParams,
    WindProfile,
    WingSchedule,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_SPLM = SplmParams()
_CASCADE = CascadeGains()

# constructor -> {field: a valid value of the field's shape}
FIELDS = {
    SplmParams: {
        **{name: float(getattr(_SPLM, name)) for name in (
            "downwash_angle", "hinge_offset", "lift_slope", "blade_count",
            "chord", "radius", "torque_gain", "torque_pickup",
            "speed_per_throttle", "throttle_scale", "hover_throttle")},
        "inertia": _SPLM.inertia,
        "damping": _SPLM.damping,
        "stiffness_const": _SPLM.stiffness_const,
    },
    WindProfile: {"speed": 5.0, "direction": (1.0, 0.0, 0.0), "start": 2.0,
                  "stop": 8.0, "ramp": 0.5},
    ScenarioSpec: {"duration": 4.0, "dt": 1e-3, "position": (0.0, 0.0, 1.5),
                   "yaw": 0.3, "start_position": (0.1, -0.1, 1.3)},
    LambdaSchedule: {"lam_hover": 1.0, "lam_fw": 0.3, "pitch_start": -0.5,
                     "pitch_end": -1.2},
    WingSchedule: {"extend_below": -0.35},
    ActuatorLimits: {"throttle_min": 0.0, "throttle_max": 2000.0,
                     "servo_max": 0.6},
    AllocationGains: {"c_t1": 0.008, "c_t2": 0.0065, "k_t1": 6.0e-5,
                      "k_t2": 4.0e-5, "c_m": 0.002, "k_ey": 0.6, "k_ez": 0.4},
    WingPanel: {"area": 0.048, "lift_slope": 2.2, "cl0": 0.32,
                "incidence": 0.08, "arm": 0.24},
    TandemConfig: {"rho": 1.225},
    RpmSheet: {"rpm": 5000.0, "j": (0.0, 0.3, 0.6), "ct": (0.1, 0.08, 0.05),
               "cp": (0.05, 0.045, 0.04)},
    PropellerTable: {"diameter": 0.4064},
    TimeSeries: {"fs": 1000.0, "values": (0.0, 1.0, 0.5, -0.2)},
    VehicleParams: {"mass": 1.2, "inertia": np.diag([0.022, 0.025, 0.010]),
                    "drag_cd": 1.0, "lateral_area": 0.0453,
                    "axial_area": 0.015, "elevon_q_ref": 149.0,
                    "aft_speed_per_count": 0.16, "gravity": 9.81},
    CascadeGains: {f.name: getattr(_CASCADE, f.name)
                   for f in dataclasses.fields(CascadeGains)
                   if not f.name.endswith("_rate")},
}

# constructor -> its arguments that are not floats, passed unchanged
_PANEL = WingPanel(area=0.048, lift_slope=2.2, cl0=0.32, incidence=0.08,
                   arm=0.24)
FIXED = {
    TandemConfig: {"front": _PANEL, "rear": _PANEL},
    PropellerTable: {"sheets": (RpmSheet(5000.0, (0.0, 0.5), (0.1, 0.05),
                                         (0.05, 0.04)),)},
}

non_finite = st.sampled_from((math.nan, -math.nan, math.inf, -math.inf))


@st.composite
def poisoned(draw, fields):
    """Valid keyword arguments with one non-finite float planted in them."""
    name = draw(st.sampled_from(sorted(fields)))
    bad = draw(non_finite)
    value = np.array(fields[name], dtype=float)
    if value.ndim == 0:
        return {name: bad}
    value.flat[draw(st.integers(0, value.size - 1))] = bad
    return {name: value if value.ndim > 1 else tuple(value.tolist())}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_non_finite_field_raises_config_error(cls, data):
    fields = {**FIXED.get(cls, {}), **FIELDS[cls]}
    cls(**fields)  # the unpoisoned call is valid
    kwargs = data.draw(poisoned(FIELDS[cls]))
    with pytest.raises(ConfigError):
        cls(**{**fields, **kwargs})


@settings(max_examples=60, deadline=None)
@given(count=st.floats(min_value=0.0, max_value=64.0).filter(
    lambda c: not c.is_integer()))
def test_fractional_blade_count_raises_config_error(count):
    with pytest.raises(ConfigError, match="whole number"):
        SplmParams(blade_count=count)
    with pytest.raises(ConfigError, match="whole number"):
        rotor_solidity(count, 0.03, 0.2)
    whole = float(math.ceil(count))
    if whole >= 1.0:
        assert SplmParams(blade_count=whole).blade_count == whole


def test_fields_cover_every_class_a_config_file_builds(monkeypatch):
    built = set()
    build = analysis._build

    def spy(path, keys, cls, **kwargs):
        built.add(cls)
        return build(path, keys, cls, **kwargs)

    monkeypatch.setattr(analysis, "_build", spy)
    analysis.load_scenario(CONFIGS / "transition.cfg")
    analysis.load_allocation_gains(CONFIGS / "gains.cfg")
    assert VehicleParams in built and AllocationGains in built
    assert built <= set(FIELDS)


_SIGN_RULES = {"check_positive": (0.0, -1.0), "check_non_negative": (-1.0,)}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_sign_checked_field_refuses_its_bad_values(cls, monkeypatch):
    """The fields a valid object's own __post_init__ hands to a sign rule
    are recorded; each must refuse the rule's bad values."""
    fields = {**FIXED.get(cls, {}), **FIELDS[cls]}
    obj = cls(**fields)
    bad = {}

    def spy_on(rule, values):
        def spy(**checked):
            bad.update(dict.fromkeys(checked, values))
            return rule(**checked)
        return spy

    for module in (aero, analysis, control, propulsion, rotor, vehicle):
        for rule, values in _SIGN_RULES.items():
            if hasattr(module, rule):
                monkeypatch.setattr(module, rule,
                                    spy_on(getattr(module, rule), values))
    obj.__post_init__()
    monkeypatch.undo()
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ConfigError, match=name):
                cls(**{**fields, name: value})
