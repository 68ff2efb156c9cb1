"""Property tests: every constructor refuses a non-finite float with ConfigError.

Each example puts one NaN or infinity into one float field (or one element
of a vector or matrix field) of an otherwise valid constructor call. The
call must raise ConfigError, never any other exception. Each field a
constructor checks as positive (non-negative) must refuse zero and a
negative value (a negative value).
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from coaxtail import aero, analysis, control, propulsion, rotor, vehicle
from coaxtail.aero import WingPanel
from coaxtail.analysis import TimeSeries
from coaxtail.control import AllocationGains
from coaxtail.errors import ConfigError
from coaxtail.propulsion import PropellerTable, RpmSheet
from coaxtail.rotor import SplmParams
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

# constructor -> {field: a valid value of the field's shape}
FIELDS = {
    SplmParams: {
        "downwash_angle": _SPLM.downwash_angle,
        "hinge_offset": _SPLM.hinge_offset,
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
    AllocationGains: {"c_t1": 0.008, "c_t2": 0.0065, "k_t1": 6.0e-5,
                      "k_t2": 4.0e-5, "c_m": 0.002, "k_ey": 0.6, "k_ez": 0.4},
    WingPanel: {"area": 0.048, "lift_slope": 2.2, "cl0": 0.32,
                "incidence": 0.08, "arm": 0.24},
    RpmSheet: {"rpm": 5000.0, "j": (0.0, 0.3, 0.6), "ct": (0.1, 0.08, 0.05),
               "cp": (0.05, 0.045, 0.04)},
    PropellerTable: {"diameter": 0.4064},
    TimeSeries: {"fs": 1000.0, "values": (0.0, 1.0, 0.5, -0.2)},
    VehicleParams: {"mass": 1.2, "inertia": (0.022, 0.025, 0.010),
                    "drag_cd": 1.0, "lateral_area": 0.0453,
                    "axial_area": 0.015, "aft_speed_per_count": 0.16},
}

# constructor -> its arguments that are not floats, passed unchanged
FIXED = {
    PropellerTable: {"sheets": (RpmSheet(5000.0, (0.0, 0.5), (0.1, 0.05),
                                         (0.05, 0.04)),)},
}

non_finite = st.sampled_from((math.nan, -math.nan, math.inf, -math.inf))


def planted(valid, bad, index):
    """A field's valid value with bad in place of it, or in place of its
    entry `index` if it is a vector or matrix, in the field's own form."""
    value = np.array(valid, dtype=float)
    if value.ndim == 0:
        return bad
    value.flat[index] = bad
    return value if value.ndim > 1 else tuple(value.tolist())


@st.composite
def poisoned(draw, fields):
    """Valid keyword arguments with one non-finite float planted in them."""
    name = draw(st.sampled_from(sorted(fields)))
    bad = draw(non_finite)
    index = draw(st.integers(0, np.size(fields[name]) - 1))
    return {name: planted(fields[name], bad, index)}


def is_float_valued(value):
    """A float, or a non-empty vector or matrix of floats."""
    if isinstance(value, float):
        return True
    if not isinstance(value, (tuple, list, np.ndarray)):
        return False
    array = np.asarray(value)
    return array.size > 0 and array.dtype.kind == "f"


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_name_every_float_field(cls):
    """FIELDS names each float-valued field of the classes it lists, and
    only those, so a float field added later cannot skip the checks
    below."""
    obj = cls(**FIXED.get(cls, {}), **FIELDS[cls])
    floats = {f.name for f in dataclasses.fields(cls)
              if is_float_valued(getattr(obj, f.name))}
    assert set(FIELDS[cls]) == floats


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_non_finite_field_raises_config_error(cls, data):
    fields = {**FIXED.get(cls, {}), **FIELDS[cls]}
    cls(**fields)  # the unpoisoned call is valid
    kwargs = data.draw(poisoned(FIELDS[cls]))
    with pytest.raises(ConfigError):
        cls(**{**fields, **kwargs})


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


# constructor -> {field: the sign rule its __post_init__ applies to it}
SIGN_CHECKED = {
    WindProfile: {"speed": "check_non_negative",
                  "ramp": "check_non_negative"},
    ScenarioSpec: {"duration": "check_positive"},
    AllocationGains: dict.fromkeys(("c_t1", "c_t2", "k_t1", "k_t2", "c_m"),
                                   "check_positive"),
    WingPanel: dict.fromkeys(("area", "lift_slope", "arm"), "check_positive"),
    PropellerTable: {"diameter": "check_positive"},
    TimeSeries: {"fs": "check_positive"},
    VehicleParams: dict.fromkeys(("mass", "inertia", "drag_cd",
                                  "lateral_area", "axial_area",
                                  "aft_speed_per_count"), "check_positive"),
}
_BAD_VALUES = {"check_positive": (0.0, -1.0), "check_non_negative": (-1.0,)}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_sign_checked_field_refuses_its_bad_values(cls, monkeypatch):
    """A valid object's own __post_init__ hands exactly the fields
    SIGN_CHECKED names to their sign rules, and each field refuses its
    rule's bad values, planted in each entry of a vector field in turn."""
    fields = {**FIXED.get(cls, {}), **FIELDS[cls]}
    obj = cls(**fields)
    seen = {}

    def spy_on(rule, name):
        def spy(**checked):
            seen.update(dict.fromkeys(checked, name))
            return rule(**checked)
        return spy

    for module in (aero, analysis, control, propulsion, rotor, vehicle):
        for name in _BAD_VALUES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    spy_on(getattr(module, name), name))
    obj.__post_init__()
    monkeypatch.undo()
    assert seen == SIGN_CHECKED.get(cls, {})
    for name, rule in seen.items():
        for value in _BAD_VALUES[rule]:
            for index in range(np.size(fields[name])):
                with pytest.raises(ConfigError, match=name):
                    cls(**{**fields, name: planted(fields[name], value,
                                                   index)})
