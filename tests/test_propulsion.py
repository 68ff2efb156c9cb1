import inspect
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from coaxtail.errors import (
    ConfigError,
    InfeasibleError,
    NumericalDomainError,
    TableRangeError,
)
from coaxtail import propulsion
from coaxtail.analysis import table_config_powers
from coaxtail.propulsion import (
    PROP_DIAMETERS,
    STUDY_PAIRINGS,
    WATTAGE_FIXTURES,
    ConfigPower,
    PropellerTable,
    RpmSheet,
    advance_ratio,
    average_power,
    crossover_ratio,
    fixture_config_powers,
    load_propeller_table,
    shared_power,
    solve_rpm_for_thrust,
    study_powers,
    study_summary,
    thrust_power,
    write_power_curve_csv,
)

RHO = 1.225
PROPS_DIR = Path(__file__).resolve().parent.parent / "configs" / "props"


def constant_table(ct=0.10, cp=0.05, diameter=0.4064):
    return PropellerTable(diameter, (RpmSheet(0.0, [0.0], [ct], [cp]),))


def ramp_table(diameter=0.1778):
    # thrust falls off and power rises toward high advance ratio
    j = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    ct = np.array([0.12, 0.11, 0.095, 0.075, 0.05, 0.02])
    cp = np.array([0.045, 0.048, 0.05, 0.052, 0.05, 0.046])
    return PropellerTable(diameter, (RpmSheet(0.0, j, ct, cp),))


class TestAdvanceRatio:
    def test_static_is_zero(self):
        assert advance_ratio(0.0, 120.0, 0.4064) == 0.0

    def test_cruise_example(self):
        assert advance_ratio(16.0, 100.0, 0.1778) == pytest.approx(0.8999, abs=1e-4)

    def test_linear_in_speed(self):
        j1 = advance_ratio(4.0, 80.0, 0.2)
        j2 = advance_ratio(8.0, 80.0, 0.2)
        assert j2 == pytest.approx(2.0 * j1, rel=1e-12)

    def test_zero_speed_rejected(self):
        with pytest.raises(NumericalDomainError):
            advance_ratio(10.0, 0.0, 0.2)

    def test_bad_diameter(self):
        with pytest.raises(ConfigError):
            advance_ratio(10.0, 50.0, -0.2)


class TestTableValidation:
    def test_non_monotonic_j(self):
        with pytest.raises(ConfigError):
            RpmSheet(0.0, [0.0, 0.2, 0.2], [0.1, 0.1, 0.1], [0.05, 0.05, 0.05])

    def test_nonpositive_cp(self):
        with pytest.raises(ConfigError):
            RpmSheet(0.0, [0.0, 0.5], [0.1, 0.1], [0.05, 0.0])

    def test_bad_diameter(self):
        with pytest.raises(ConfigError):
            PropellerTable(0.0, (RpmSheet(0.0, [0.0], [0.1], [0.05]),))

    def test_unsorted_sheets(self):
        a = RpmSheet(5000.0, [0.0], [0.1], [0.05])
        b = RpmSheet(3000.0, [0.0], [0.1], [0.05])
        with pytest.raises(ConfigError):
            PropellerTable(0.2, (a, b))


class TestThrustPower:
    def test_static_thrust_example(self):
        t, _ = thrust_power(constant_table(), 0.0, 100.0)
        assert t == pytest.approx(33.41, abs=0.01)

    def test_closed_form_power(self):
        table = constant_table(cp=0.05, diameter=0.3)
        _, p = thrust_power(table, 0.0, 80.0)
        assert p == pytest.approx(0.05 * RHO * 80.0 ** 3 * 0.3 ** 5, rel=1e-12)

    def test_thrust_quadratic_in_speed_for_constant_ct(self):
        t1, _ = thrust_power(constant_table(), 0.0, 50.0)
        t2, _ = thrust_power(constant_table(), 0.0, 100.0)
        assert t2 == pytest.approx(4.0 * t1, rel=1e-12)

    def test_interpolation_hits_tabulated_rows(self):
        table = ramp_table()
        sheet = table.sheets[0]
        for j, ct, cp in zip(sheet.j[1:], sheet.ct[1:], sheet.cp[1:]):
            n = 5.0 / (j * table.diameter)
            t, p = thrust_power(table, 5.0, n)
            d = table.diameter
            assert t == pytest.approx(ct * RHO * n * n * d ** 4, rel=1e-12)
            assert p == pytest.approx(cp * RHO * n ** 3 * d ** 5, rel=1e-12)

    def test_interpolated_value_between_bracketing_rows(self):
        table = ramp_table()
        rng = np.random.default_rng(7)
        sheet = table.sheets[0]
        for _ in range(50):
            j = rng.uniform(0.0, 1.0)
            n = 8.0 / (j * table.diameter) if j > 0 else 100.0
            ct, cp = table.coefficients(j, n)
            k = np.searchsorted(sheet.j, j)
            if sheet.j[k] == j:
                continue
            assert min(sheet.ct[k - 1], sheet.ct[k]) <= ct <= max(
                sheet.ct[k - 1], sheet.ct[k])
            assert min(sheet.cp[k - 1], sheet.cp[k]) <= cp <= max(
                sheet.cp[k - 1], sheet.cp[k])

    def test_advance_ratio_outside_table_refused(self):
        with pytest.raises(TableRangeError):
            thrust_power(ramp_table(), 16.0, 10.0)


# the air density is stock.RHO, a stock prop's diameter is
# PROP_DIAMETERS[name] and the power-curve grid is POWER_CURVE_R: no
# function takes them
STOCK_FREE_ARGUMENTS = {
    thrust_power: ["table", "v", "n"],
    solve_rpm_for_thrust: ["table", "v", "t_req"],
    shared_power: ["tables", "v", "t_total_req"],
    load_propeller_table: ["directory", "name"],
    write_power_curve_csv: ["path", "powers"],
}


@pytest.mark.parametrize("func", list(STOCK_FREE_ARGUMENTS),
                         ids=lambda f: f.__name__)
def test_stock_values_are_not_arguments(func):
    assert list(inspect.signature(func).parameters) \
        == STOCK_FREE_ARGUMENTS[func]


class TestRpmSheets:
    def test_sheets_compare_and_hash_by_value(self):
        """Sheets are equal, with equal hashes, when their rpm and float
        rows j, ct and cp are, whatever form the rows were given in; so
        two loads of one table are equal, and so are VehicleParams that
        fly them. One entry apart makes sheets unequal. The rows are
        read-only copies, so that value cannot go stale."""
        given = np.array([0.0, 0.5])
        a = RpmSheet(3000.0, [0.0, 0.5], [0.10, 0.08], [0.05, 0.04])
        b = RpmSheet(3000, given, (0.10, 0.08), [0.05, 0.04])
        assert a == b and hash(a) == hash(b)
        given[1] = 0.7
        assert b.j[1] == 0.5 and b == a
        for row in (b.j, b.ct, b.cp):
            with pytest.raises(ValueError):
                row[0] = 1.0
        for other in (RpmSheet(3500.0, a.j, a.ct, a.cp),
                      RpmSheet(3000.0, [0.0, 0.6], a.ct, a.cp),
                      RpmSheet(3000.0, a.j, [0.10, 0.09], a.cp),
                      RpmSheet(3000.0, a.j, a.ct, [0.05, 0.045])):
            assert other != a
        assert a != (3000.0, a.j, a.ct, a.cp)
        from coaxtail.vehicle import VehicleParams
        t = load_propeller_table(PROPS_DIR, "7in")
        u = load_propeller_table(PROPS_DIR, "7in")
        assert t == u and hash(t) == hash(u)
        assert t != load_propeller_table(PROPS_DIR, "16in")
        p, q = VehicleParams(aft_table=t), VehicleParams(aft_table=u)
        assert p == q and hash(p) == hash(q)

    def two_sheet_table(self):
        lo = RpmSheet(3000.0, [0.0, 1.0], [0.10, 0.10], [0.050, 0.050])
        hi = RpmSheet(6000.0, [0.0, 1.0], [0.12, 0.12], [0.054, 0.054])
        return PropellerTable(0.2, (lo, hi))

    def test_midpoint_blend(self):
        ct, cp = self.two_sheet_table().coefficients(0.3, 75.0)  # 4500 rpm
        assert ct == pytest.approx(0.11, rel=1e-12)
        assert cp == pytest.approx(0.052, rel=1e-12)

    def test_clamped_below_and_above(self):
        table = self.two_sheet_table()
        assert table.coefficients(0.3, 10.0)[0] == pytest.approx(0.10)
        assert table.coefficients(0.3, 500.0)[0] == pytest.approx(0.12)


class TestSolveRpm:
    def test_matches_closed_form(self):
        table = constant_table(ct=0.09, diameter=0.3556)
        t_req = 6.0
        n = solve_rpm_for_thrust(table, 4.0, t_req)
        n_exact = math.sqrt(t_req / (0.09 * RHO * 0.3556 ** 4))
        assert n == pytest.approx(n_exact, rel=1e-6)
        t, _ = thrust_power(table, 4.0, n)
        assert abs(t - t_req) < 1e-6

    def test_zero_thrust_returns_lower_bound(self):
        n = solve_rpm_for_thrust(constant_table(), 0.0, 0.0)
        assert n == pytest.approx(1e-3)
        t, _ = thrust_power(constant_table(), 0.0, n)
        assert abs(t) < 1e-6

    def test_unreachable_thrust(self):
        small = constant_table(ct=0.1, diameter=0.1)
        with pytest.raises(InfeasibleError):
            solve_rpm_for_thrust(small, 0.0, 50.0)

    def test_unreachable_thrust_message_keeps_small_numbers(self):
        """A demand too small for the table's lowest J-feasible speed is
        named as given, not rounded to 0.000 N."""
        with pytest.raises(InfeasibleError, match=re.escape(
                "thrust 1e-12 N not reachable at 15.6 m/s within the table")):
            solve_rpm_for_thrust(load_propeller_table(PROPS_DIR, "7in"),
                                 15.6, 1e-12)

    def test_lowest_root_returned_on_tabulated_curve(self):
        table = ramp_table()
        n = solve_rpm_for_thrust(table, 8.0, 3.0)
        t, _ = thrust_power(table, 8.0, n)
        assert abs(t - 3.0) < 1e-6
        # no smaller feasible speed gives the same thrust
        lo = 8.0 / (1.0 * table.diameter)
        for frac in np.linspace(0.0, 0.999, 40):
            probe = lo + (n - lo) * frac
            if probe <= lo:
                continue
            t_probe, _ = thrust_power(table, 8.0, probe)
            assert t_probe < 3.0


class TestSharedPower:
    def test_two_props_split_equally(self):
        table = constant_table(ct=0.08, cp=0.04, diameter=0.3)
        total = shared_power((table, table), 0.0, 8.0)
        n_half = solve_rpm_for_thrust(table, 0.0, 4.0)
        _, p_half = thrust_power(table, 0.0, n_half)
        assert total == pytest.approx(2.0 * p_half, rel=1e-9)

    def test_single_prop_takes_full_load(self):
        table = constant_table(ct=0.08, cp=0.04, diameter=0.3)
        total = shared_power((table,), 10.0, 3.0)
        n = solve_rpm_for_thrust(table, 10.0, 3.0)
        _, p = thrust_power(table, 10.0, n)
        assert total == 0.0 + p

    def test_pair_is_twice_a_single_at_half_thrust(self):
        table = constant_table(ct=0.08, cp=0.04, diameter=0.3)
        total = shared_power((table, table), 10.0, 3.0)
        single = shared_power((table,), 10.0, 1.5)
        assert total == pytest.approx(2.0 * single, rel=1e-9)

    def test_sums_in_order_from_zero(self):
        """(0.0 + p_first) + p_second, each at its own shaft speed."""
        big, small = constant_table(diameter=0.4064), ramp_table()
        want = 0.0
        for table in (big, small):
            n = solve_rpm_for_thrust(table, 5.0, 1.5)
            want += thrust_power(table, 5.0, n)[1]
        got = shared_power((big, small), 5.0, 3.0)
        assert got.hex() == want.hex()


# The power study as it stood with a PropulsionConfig and a mode_power
# dispatched on the mode's name: the reference the single study loop,
# propulsion.study_powers, must match to the bit.
@dataclass(frozen=True)
class ReferencePropulsionConfig:
    name: str
    fore: PropellerTable
    aft: PropellerTable
    fixedwing_active: tuple = ("aft",)

    def table(self, which):
        return self.fore if which == "fore" else self.aft


def reference_mode_power(config, mode, v, t_total_req):
    active = (("fore", "aft") if mode == "multirotor"
              else config.fixedwing_active)
    share = t_total_req / len(active)
    total = 0.0
    for which in active:
        table = config.table(which)
        n = propulsion.solve_rpm_for_thrust(table, v, share)
        total += thrust_power(table, v, n)[1]
    return total


def reference_table_powers(tables_dir, mass=1.2, cruise_thrust=4.4,
                           cruise_speed=15.6):
    tables = {stem: load_propeller_table(tables_dir, stem)
              for stem in PROP_DIAMETERS}
    powers = []
    for name, fore, aft, fixedwing_active in STUDY_PAIRINGS:
        config = ReferencePropulsionConfig(name, tables[fore], tables[aft],
                                           fixedwing_active)
        powers.append(ConfigPower(
            name,
            reference_mode_power(config, "multirotor", 0.0, mass * 9.81),
            reference_mode_power(config, "fixedwing", cruise_speed,
                                 cruise_thrust)))
    return tuple(powers)


def hexes(powers):
    return [(p.name, p.hover_w.hex(), p.cruise_w.hex()) for p in powers]


class TestStudyPowers:
    def test_calls_watts_per_pairing_hover_then_cruise(self):
        calls = []

        def watts(stems, mode):
            calls.append((stems, mode))
            return float(len(calls))

        powers = study_powers(watts)
        assert calls == [
            (("16in", "7in"), "multirotor"), (("7in",), "fixedwing"),
            (("16in", "16in"), "multirotor"), (("16in", "16in"), "fixedwing"),
            (("7in", "7in"), "multirotor"), (("7in",), "fixedwing")]
        assert powers == (ConfigPower("HPC", 1.0, 2.0),
                          ConfigPower("HLC", 3.0, 4.0),
                          ConfigPower("HSC", 5.0, 6.0))

    def test_fixture_sums_the_active_wattages_in_order(self):
        w = WATTAGE_FIXTURES["paper-2025"]
        want = []
        for name, fore, aft, active in STUDY_PAIRINGS:
            stems = {"fore": fore, "aft": aft}
            want.append(ConfigPower(
                name, sum(w[stems[p]]["multirotor"] for p in ("fore", "aft")),
                sum(w[stems[p]]["fixedwing"] for p in active)))
        assert hexes(fixture_config_powers()) == hexes(want)

    def test_shipped_tables_match_the_reference_to_the_bit(self):
        assert hexes(table_config_powers(PROPS_DIR)) \
            == hexes(reference_table_powers(PROPS_DIR))

    def test_random_study_parameters_match_the_reference(self):
        """Random (mass, cruise thrust, cruise speed), each pairing's
        powers through shared_power: the same floats, bit for bit, or the
        same InfeasibleError message."""
        tables = {stem: load_propeller_table(PROPS_DIR, stem)
                  for stem in PROP_DIAMETERS}
        rng = np.random.default_rng(19)
        feasible = infeasible = 0
        for _ in range(32):
            study = {"mass": rng.uniform(0.3, 4.0),
                     "cruise_thrust": rng.uniform(0.5, 16.0),
                     "cruise_speed": rng.uniform(2.0, 30.0)}
            flight = {"multirotor": (0.0, study["mass"] * 9.81),
                      "fixedwing": (study["cruise_speed"],
                                    study["cruise_thrust"])}

            def powers():
                return study_powers(lambda stems, mode: shared_power(
                    [tables[s] for s in stems], *flight[mode]))

            try:
                want = hexes(reference_table_powers(PROPS_DIR, **study))
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError,
                                   match=f"^{re.escape(str(exc))}$"):
                    powers()
                infeasible += 1
                continue
            assert hexes(powers()) == want, study
            feasible += 1
        assert feasible >= 20 and infeasible >= 1

    def test_same_rpm_solves_as_the_reference(self, monkeypatch):
        """One solve per prop and mode, in the same order and with the same
        arguments."""
        seen = []
        solve = propulsion.solve_rpm_for_thrust

        def recording(table, v, t_req):
            seen.append((table.diameter, v, t_req))
            return solve(table, v, t_req)

        monkeypatch.setattr(propulsion, "solve_rpm_for_thrust", recording)
        reference_table_powers(PROPS_DIR)
        want, seen[:] = list(seen), []
        table_config_powers(PROPS_DIR)
        assert seen == want
        assert len(seen) == 10


class TestFixturePowers:
    def test_reference_wattages(self):
        powers = {p.name: p for p in fixture_config_powers()}
        assert powers["HPC"].hover_w == pytest.approx(138.3, rel=1e-12)
        assert powers["HPC"].cruise_w == pytest.approx(63.5, rel=1e-12)
        assert powers["HLC"].hover_w == pytest.approx(66.0, rel=1e-12)
        assert powers["HLC"].cruise_w == pytest.approx(122.0, rel=1e-12)
        assert powers["HSC"].hover_w == pytest.approx(210.6, rel=1e-12)
        assert powers["HSC"].cruise_w == pytest.approx(63.5, rel=1e-12)

    def test_unknown_fixture(self):
        with pytest.raises(ConfigError):
            fixture_config_powers("paper-1999")


class TestAveragePower:
    def test_endpoints_exact(self):
        p = ConfigPower("x", 138.3, 63.5)
        assert average_power(p, 0.0) == 63.5
        assert average_power(p, 1.0) == 138.3

    def test_midpoint_affine_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = ConfigPower("x", rng.uniform(10, 500), rng.uniform(10, 500))
            mid = average_power(p, 0.5)
            assert mid == (average_power(p, 0.0) + average_power(p, 1.0)) / 2.0

    def test_probe_values(self):
        powers = {p.name: p for p in fixture_config_powers()}
        assert average_power(powers["HPC"], 0.2) == pytest.approx(78.46, abs=5e-3)
        assert average_power(powers["HLC"], 0.2) == pytest.approx(110.8, abs=5e-2)
        assert average_power(powers["HSC"], 0.2) == pytest.approx(92.92, abs=5e-3)


class TestCrossover:
    def test_reference_crossover(self):
        powers = {p.name: p for p in fixture_config_powers()}
        r = crossover_ratio(powers["HPC"], powers["HLC"])
        assert r == pytest.approx(58.5 / 130.8, rel=1e-12)
        assert r == pytest.approx(0.4472, abs=1e-4)
        # symmetric in argument order
        assert crossover_ratio(powers["HLC"], powers["HPC"]) == pytest.approx(
            r, rel=1e-12)

    def test_no_crossing_inside_interval(self):
        a = ConfigPower("a", 100.0, 50.0)
        b = ConfigPower("b", 120.0, 70.0)  # strictly above, parallel
        assert crossover_ratio(a, b) is None

    def test_crossing_outside_interval(self):
        a = ConfigPower("a", 100.0, 50.0)
        b = ConfigPower("b", 90.0, 30.0)  # crosses at r = -2
        assert crossover_ratio(a, b) is None

    def test_identical_curves_degenerate(self):
        a = ConfigPower("a", 100.0, 50.0)
        with pytest.raises(ConfigError):
            crossover_ratio(a, ConfigPower("b", 100.0, 50.0))


class TestStudySummary:
    def test_headline_lines_present(self):
        lines = study_summary(fixture_config_powers())
        assert "crossover_HPC_HLC=0.447" in lines
        assert "reduction_at_r0.2_vs_HLC=29.2%" in lines
        assert "reduction_at_r0.2_vs_HSC=15.6%" in lines

    def test_mode_gaps(self):
        powers = {p.name: p for p in fixture_config_powers()}
        mr_gap = 100.0 * (powers["HSC"].hover_w - powers["HPC"].hover_w) \
            / powers["HSC"].hover_w
        fw_gap = 100.0 * (powers["HLC"].cruise_w - powers["HPC"].cruise_w) \
            / powers["HLC"].cruise_w
        assert mr_gap == pytest.approx(34.33, abs=5e-2)
        assert fw_gap == pytest.approx(47.95, abs=5e-2)
        lines = study_summary(fixture_config_powers())
        assert "multirotor_gap_vs_HSC=34.3%" in lines
        assert "fixedwing_gap_vs_HLC=48.0%" in lines


class TestCsvIO:
    def test_power_curve_roundtrip(self, tmp_path):
        path = tmp_path / "power_curve.csv"
        write_power_curve_csv(path, fixture_config_powers())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,HLC_W,HPC_W,HSC_W"
        assert [line.split(",")[0] for line in lines[1:]] \
            == [f"{r:.9g}" for r in np.linspace(0.0, 1.0, 101)]
        first, last = lines[1].split(","), lines[-1].split(",")
        assert (float(first[0]), float(first[1])) == (0.0, 122.0)  # HLC
        assert (float(last[0]), float(last[1])) == (1.0, 66.0)

    def test_load_sheets_sorted_and_interpolated(self, tmp_path):
        (tmp_path / "7in_6000.csv").write_text(
            "J,CT,CP\n0,0.12,0.054\n1,0.12,0.054\n")
        (tmp_path / "7in_3000.csv").write_text(
            "J,CT,CP\n0,0.10,0.050\n1,0.10,0.050\n")
        table = load_propeller_table(tmp_path, "7in")
        assert table.diameter == PROP_DIAMETERS["7in"]
        assert [s.rpm for s in table.sheets] == [3000.0, 6000.0]
        ct, _ = table.coefficients(0.5, 75.0)
        assert ct == pytest.approx(0.11, rel=1e-12)

    def test_load_rejects_bad_header(self, tmp_path):
        (tmp_path / "16in_1000.csv").write_text("J,CT\n0,0.1\n")
        with pytest.raises(ConfigError):
            load_propeller_table(tmp_path, "16in")

    def test_load_missing(self, tmp_path):
        with pytest.raises(ConfigError):
            load_propeller_table(tmp_path, "7in")
