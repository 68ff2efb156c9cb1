"""The input rules in coaxtail.errors, and public functions that apply them.

Each rule refuses NaN and the infinities with a ConfigError that names
the field, key or file line at fault.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from coaxtail.aero import TandemConfig, WingPanel, pitch_moment
from coaxtail.analysis import PsdResult
from coaxtail.errors import (ConfigError, check_finite, check_instance,
                             check_non_negative, check_positive,
                             finite_number, finite_vector3, float_array,
                             read_number_rows, whole_count)
from coaxtail.propulsion import (ConfigPower, PropellerTable, RpmSheet,
                                 advance_ratio, thrust_power)
from coaxtail.vehicle import (VehicleParams, pack_state, step_6dof,
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

    @pytest.mark.parametrize("bad", [True, False, np.True_, np.False_, "1.2",
                                     b"1", None, 1 + 2j, [1.0], {}])
    def test_every_rule_refuses_a_non_number_and_names_the_field(self, bad):
        """A bool is no number here (True would pass as 1), and text, None
        or a container is a ConfigError naming the field, not a raw
        TypeError from the comparison."""
        for rule in (check_finite, check_positive, check_non_negative):
            with pytest.raises(ConfigError, match="^speed must be "):
                rule(mass=1.0, speed=bad)

    def test_instance_rule_names_the_field_and_the_classes(self):
        check_instance(int, a=1, b=2)
        check_instance((type(None), str), a=None, b="x")
        with pytest.raises(ConfigError, match="^b must be str, got 1$"):
            check_instance(str, a="x", b=1)
        with pytest.raises(ConfigError, match="^t must be None or "
                                              "TandemConfig, got 'x'$"):
            check_instance((type(None), TandemConfig), t="x")

    def test_vector_rule_returns_a_tuple_of_python_floats(self):
        for given in ([1, 2, 3], np.array([1.0, 2.0, 3.0]),
                      (np.float32(1.0), 2, Fraction(3))):
            v = finite_vector3(given, "v")
            assert v == (1.0, 2.0, 3.0) and type(v) is tuple
            assert all(type(x) is float for x in v)
        for bad in ((1.0, 2.0, math.nan), (1.0, 2.0), np.eye(3), "abc",
                    (True, 1.0, 1.0)):
            with pytest.raises(ConfigError,
                               match="^v must be 3 finite numbers$"):
                finite_vector3(bad, "v")

    def test_number_rules_take_numpy_numbers(self):
        for value in (np.float64(2.0), np.float32(2.0), np.int64(2), 2,
                      Fraction(1, 2)):
            check_finite(x=value)
            check_positive(x=value)
            check_non_negative(x=value)

    def test_a_bool_or_text_field_is_refused_by_name(self):
        for bad in (True, np.True_, "1.2"):
            with pytest.raises(ConfigError, match="^mass must be positive"):
                VehicleParams(mass=bad)

    def test_whole_count(self):
        assert whole_count("n", 3.0, 1) == 3
        assert whole_count("n", np.int64(4), 2) == 4
        # an int past float's range is whole without a float conversion
        assert whole_count("n", 10**400, 1) == 10**400
        # True == 1, but it is not one blade or one sample
        for bad in (2.5, 0, True, np.True_, None, "3", -10**400,
                    *NON_FINITE):
            with pytest.raises(ConfigError, match="^n must be a whole number"):
                whole_count("n", bad, 1)

    def test_finite_number(self):
        assert finite_number(" 1e3 ", "k") == 1000.0
        for text in ("abc", "", "nan", "inf", "-infinity", "1e999"):
            with pytest.raises(ConfigError, match="^f.cfg: k must be a finite"):
                finite_number(text, "f.cfg: k")


def test_float_array_keeps_numbers_as_numpy_reads_them():
    """Numbers of any numeric type convert as np.array(value, dtype=float)
    converts them, NaN and inf included; text and booleans give None."""
    for value in ([1, 2.5, -0.0], np.arange(3, dtype=np.int32),
                  np.array([0.1, 0.2, 0.3], dtype=np.float32),
                  [np.float64(1.5), 2, math.nan], (math.inf, -1, 10**20)):
        got = float_array(value, (3,))
        want = np.array(value, dtype=float)
        assert got.dtype == float
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    for value in (["1", "2", "3"], [True, 2.0, 3.0], np.ones(3, dtype=bool),
                  [1.0, "2", 3.0], "123", {0: 1.0}, [[1.0], 2.0, 3.0]):
        assert float_array(value, (3,)) is None, value
    assert float_array([1.0, 2.0], (3,)) is None


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
_TABLE = PropellerTable(0.2, (RpmSheet(0.0, (0.0, 0.5), (0.1, 0.05),
                                        (0.05, 0.04)),))

# each public function that let a NaN argument through, called with one
NAN_CALLS = {
    "transition_profile": lambda: transition_profile(math.nan),
    "advance_ratio": lambda: advance_ratio(math.nan, 10.0, 0.2),
    "thrust_power": lambda: thrust_power(_TABLE, math.nan, 50.0),
    "pitch_moment": lambda: pitch_moment(TandemConfig(*_PANELS), math.nan,
                                         0.0),
    "step_6dof": lambda: step_6dof(
        pack_state((0.0, 0.0, 1.0)), (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0), VehicleParams(), math.nan),
    "PsdResult_density": lambda: PsdResult([0.0, 1.0], [math.nan, 1.0]),
    "PsdResult_freq": lambda: PsdResult([0.0, math.nan], [1.0, 1.0]),
    "PsdResult_one_freq": lambda: PsdResult([math.nan], [1.0]),
    "ConfigPower_hover": lambda: ConfigPower("HPC", math.nan, 61.0),
    "ConfigPower_cruise": lambda: ConfigPower("HPC", 138.3, math.nan),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=list(NAN_CALLS))
def test_public_function_refuses_nan(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("hover,cruise,field", [
    (0.0, 61.0, "hover_w"), (138.3, 0.0, "cruise_w"),
    (-5.0, 61.0, "hover_w"), (138.3, math.inf, "cruise_w")])
def test_config_power_refuses_watts_that_are_not_positive(hover, cruise,
                                                          field):
    with pytest.raises(ConfigError, match=f"^{field} must be positive"):
        ConfigPower("HPC", hover, cruise)
