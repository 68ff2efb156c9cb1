"""The input rules in coaxtail.errors, and public functions that apply them.

Each rule refuses NaN and the infinities with a ConfigError that names
the field, key or file line at fault.
"""

import math

import numpy as np
import pytest

from coaxtail.aero import (TandemConfig, WingPanel, static_stability_check,
                           wing_force)
from coaxtail.analysis import PsdResult
from coaxtail.errors import (ConfigError, check_finite, check_non_negative,
                             check_positive, finite_number, read_number_rows,
                             whole_count)
from coaxtail.propulsion import (MissionPowerCurve, PropellerTable,
                                 advance_ratio, thrust_power)
from coaxtail.rotor import rotor_solidity
from coaxtail.vehicle import (VehicleParams, VehicleState, step_6dof,
                              transition_profile)

NON_FINITE = (math.nan, math.inf, -math.inf)


class TestNumberRules:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_every_rule_refuses_non_finite_and_names_the_field(self, bad):
        for rule in (check_finite, check_positive, check_non_negative):
            with pytest.raises(ConfigError, match="^speed must be "):
                rule(mass=1.0, speed=bad)

    def test_sign_rules(self):
        check_finite(zero=0.0, neg=-1.0, one=1.0)
        check_non_negative(zero=0.0, one=1.0)
        check_positive(one=1.0)
        with pytest.raises(ConfigError, match="^neg must be non-negative"):
            check_non_negative(zero=0.0, neg=-1.0)
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigError, match="^x must be positive"):
                check_positive(one=1.0, x=bad)

    def test_whole_count(self):
        assert whole_count("n", 3.0, 1) == 3
        assert whole_count("n", np.int64(4), 2) == 4
        for bad in (2.5, 0, *NON_FINITE):
            with pytest.raises(ConfigError, match="^n must be a whole number"):
                whole_count("n", bad, 1)

    def test_finite_number(self):
        assert finite_number(" 1e3 ", "k") == 1000.0
        for text in ("abc", "", "nan", "inf", "-infinity", "1e999"):
            with pytest.raises(ConfigError, match="^f.cfg: k must be a finite"):
                finite_number(text, "f.cfg: k")


class TestReadNumberRows:
    def test_rows_skip_blank_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(" J , CT,CP\n0,1,2\n\n , ,\n0.5,3,4\n")
        rows = read_number_rows(p, ("J", "CT", "CP"))
        assert rows.tolist() == [[0.0, 1.0, 2.0], [0.5, 3.0, 4.0]]
        assert read_number_rows(p, ("J", None, "CP")).shape == (2, 3)

    def test_header_must_match(self, tmp_path):
        p = tmp_path / "t.csv"
        for text in ("", "J,CT\n0,1\n", "J,CT,CP,X\n0,1,2,3\n", "J,CP,CT\n"):
            p.write_text(text)
            with pytest.raises(ConfigError, match="expected header J,CT,CP"):
                read_number_rows(p, ("J", "CT", "CP"))

    @pytest.mark.parametrize("body,line", [
        ("0,1\n1,x\n", 3), ("0,1\n\n1,nan\n", 4), ("0,1\n1,2,3\n", 3),
        ("0,1\n1\n", 3), ('0,1\n"1\n",2\n2,-inf\n', 5)])
    def test_bad_row_names_file_and_line(self, tmp_path, body, line):
        p = tmp_path / "t.csv"
        p.write_text("t,x\n" + body)
        with pytest.raises(ConfigError,
                           match=f"t.csv: line {line}: .* is not 2 finite"):
            read_number_rows(p, ("t", None))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            read_number_rows(tmp_path, ("t", None))
        p = tmp_path / "bytes.csv"
        p.write_bytes(b"t,x\n\xff,1\n")
        with pytest.raises(ConfigError, match="cannot read"):
            read_number_rows(p, ("t", None))


_PANELS = (WingPanel(area=0.048, lift_slope=2.2, cl0=0.32,
                     incidence=math.radians(4.5), arm=0.24),
           WingPanel(area=0.056, lift_slope=2.2, cl0=0.32,
                     incidence=math.radians(2.0), arm=0.30))
_TABLE = PropellerTable.single(0.2, (0.0, 0.5), (0.1, 0.05), (0.05, 0.04))

# each public function that let a NaN argument through, called with one
NAN_CALLS = {
    "rotor_solidity": lambda: rotor_solidity(2, math.nan, 0.2),
    "transition_profile": lambda: transition_profile(math.nan),
    "advance_ratio": lambda: advance_ratio(math.nan, 10.0, 0.2),
    "thrust_power": lambda: thrust_power(_TABLE, math.nan, 0.0, 50.0),
    "wing_force": lambda: wing_force(math.nan, 0.0, _PANELS[0], 1.225),
    "static_stability_check": lambda: static_stability_check(
        TandemConfig(*_PANELS), v=math.nan),
    "step_6dof": lambda: step_6dof(
        VehicleState.at_rest((0.0, 0.0, 1.0)), (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0), VehicleParams(), math.nan),
    "PsdResult_density": lambda: PsdResult([0.0, 1.0], [math.nan, 1.0]),
    "PsdResult_freq": lambda: PsdResult([0.0, math.nan], [1.0, 1.0]),
    "PsdResult_one_freq": lambda: PsdResult([math.nan], [1.0]),
    "MissionPowerCurve": lambda: MissionPowerCurve(r=[0.0, math.nan],
                                                   watts={}),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=list(NAN_CALLS))
def test_public_function_refuses_nan(call):
    with pytest.raises(ConfigError):
        call()
