"""Propeller thrust/power model and mission-average power studies.

Thrust and shaft power come from nondimensional coefficient tables; the
whole power study runs in sea-level air, rho = stock.RHO:

    J = V / (n D),   T = C_T(J) rho n^2 D^4,   P = C_P(J) rho n^3 D^5,

with C_T, C_P linearly interpolated in J inside the tabulated range and
never extrapolated (coefficient curves bend sharply toward windmilling,
so out-of-range queries are an error, not a guess). Tables may carry
several constant-RPM sheets; coefficients then interpolate linearly in
RPM as well, clamped to the outermost sheets.

The configuration study compares propeller pairings by average electrical
power P(r) = r*P_hover + (1-r)*P_cruise over the hover-time ratio r. A
bundled wattage fixture ("paper-2025") carries the reference per-propeller
powers for the stock 16-inch/7-inch pairing so the headline comparison
numbers are reproducible without third-party coefficient data.
"""

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, InfeasibleError, NumericalDomainError,
                     TableRangeError, check_positive, read_number_rows)
from .stock import RHO

_THRUST_TOL = 1e-6
_N_MAX = 350.0  # rev/s search ceiling for rpm solving


@dataclass(frozen=True)
class RpmSheet:
    """Coefficient rows measured at one shaft speed."""

    rpm: float
    j: np.ndarray
    ct: np.ndarray
    cp: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.j, dtype=float)
        ct = np.asarray(self.ct, dtype=float)
        cp = np.asarray(self.cp, dtype=float)
        if not (j.shape == ct.shape == cp.shape) or j.ndim != 1 or j.size == 0:
            raise ConfigError("sheet columns must be equal-length 1-D arrays")
        if not (math.isfinite(self.rpm) and np.isfinite(j).all()
                and np.isfinite(ct).all() and np.isfinite(cp).all()):
            raise ConfigError("rpm and sheet columns must be finite")
        if j.size > 1 and np.any(np.diff(j) <= 0.0):
            raise ConfigError("advance ratios must be strictly increasing")
        if np.any(cp <= 0.0):
            raise ConfigError("power coefficients must be positive")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "ct", ct)
        object.__setattr__(self, "cp", cp)

    def coefficients(self, j):
        """(C_T, C_P) at advance ratio j; single-row sheets are constant."""
        if self.j.size == 1:
            return float(self.ct[0]), float(self.cp[0])
        if not self.j[0] <= j <= self.j[-1]:
            raise TableRangeError(
                f"advance ratio {j:.4f} outside table range "
                f"[{self.j[0]:.4f}, {self.j[-1]:.4f}]"
            )
        return (float(np.interp(j, self.j, self.ct)),
                float(np.interp(j, self.j, self.cp)))


@dataclass(frozen=True)
class PropellerTable:
    """One propeller: diameter plus one or more constant-RPM sheets."""

    diameter: float
    sheets: tuple

    def __post_init__(self):
        check_positive(diameter=self.diameter)
        sheets = tuple(self.sheets)
        if not sheets:
            raise ConfigError("at least one coefficient sheet required")
        rpms = [s.rpm for s in sheets]
        if len(sheets) > 1 and any(b <= a for a, b in zip(rpms, rpms[1:])):
            raise ConfigError("sheets must be sorted by strictly increasing rpm")
        object.__setattr__(self, "sheets", sheets)

    @property
    def j_min(self):
        return max(s.j[0] for s in self.sheets)

    @property
    def j_max(self):
        return min(s.j[-1] for s in self.sheets)

    def coefficients(self, j, n):
        """(C_T, C_P) interpolated in J, then in rpm (clamped) across sheets."""
        if len(self.sheets) == 1:
            return self.sheets[0].coefficients(j)
        rpm = 60.0 * n
        rpms = np.array([s.rpm for s in self.sheets])
        if rpm <= rpms[0]:
            return self.sheets[0].coefficients(j)
        if rpm >= rpms[-1]:
            return self.sheets[-1].coefficients(j)
        hi = int(np.searchsorted(rpms, rpm))
        lo = hi - 1
        w = (rpm - rpms[lo]) / (rpms[hi] - rpms[lo])
        ct_lo, cp_lo = self.sheets[lo].coefficients(j)
        ct_hi, cp_hi = self.sheets[hi].coefficients(j)
        return ((1.0 - w) * ct_lo + w * ct_hi, (1.0 - w) * cp_lo + w * cp_hi)


def advance_ratio(v, n, d):
    """J = V/(n D)."""
    # flipped comparisons, so that NaN fails them: the rpm solve calls
    # this about 300 times
    if not n > 0.0:
        raise NumericalDomainError(f"shaft speed must be positive, got {n!r}")
    if not d > 0.0:
        raise ConfigError(f"diameter must be positive, got {d!r}")
    if not v >= 0.0:
        raise ConfigError(f"airspeed must be non-negative, got {v!r}")
    return v / (n * d)


def thrust_power(table, v, n):
    """(thrust N, shaft power W) at airspeed v and shaft speed n rev/s."""
    j = advance_ratio(v, n, table.diameter)
    ct, cp = table.coefficients(j, n)
    d = table.diameter
    thrust = ct * RHO * n * n * d ** 4
    power = cp * RHO * n ** 3 * d ** 5
    return thrust, power


def _feasible_speed_range(table, v):
    constant = len(table.sheets) == 1 and table.sheets[0].j.size == 1
    if v == 0.0 or constant:
        return 1e-3, _N_MAX
    # one ulp of margin so J(lo) cannot round past the table edge
    lo = v / (table.j_max * table.diameter) * (1.0 + 1e-12)
    hi = _N_MAX if table.j_min <= 0.0 else min(
        _N_MAX, v / (table.j_min * table.diameter) * (1.0 - 1e-12))
    return lo, hi


def solve_rpm_for_thrust(table, v, t_req):
    """Lowest shaft speed (rev/s) whose thrust matches t_req within 1e-6 N.

    Scans the J-feasible speed interval, up to _N_MAX, for the first sign
    change, then bisects. Thrust demands outside what the table can
    deliver raise InfeasibleError.
    """
    if not t_req >= 0.0:
        raise ConfigError(f"thrust demand must be non-negative, got {t_req!r}")
    lo, hi = _feasible_speed_range(table, v)
    if lo >= hi:
        raise InfeasibleError("no shaft speed keeps the advance ratio in range")

    def miss(n):
        return thrust_power(table, v, n)[0] - t_req

    grid = np.linspace(lo, hi, 256)
    prev_n, prev_m = grid[0], miss(grid[0])
    if abs(prev_m) < _THRUST_TOL:
        return float(prev_n)
    bracket = None
    for n in grid[1:]:
        m = miss(n)
        if abs(m) < _THRUST_TOL:
            return float(n)
        if (m < 0.0) != (prev_m < 0.0):
            bracket = (prev_n, n, prev_m)
            break
        prev_n, prev_m = n, m
    if bracket is None:
        raise InfeasibleError(
            f"thrust {t_req:.6g} N not reachable at {v:.6g} m/s within the "
            f"table")
    a, b, m_a = bracket
    for _ in range(200):
        mid = 0.5 * (a + b)
        m_mid = miss(mid)
        if abs(m_mid) < _THRUST_TOL:
            return float(mid)
        if (m_mid < 0.0) == (m_a < 0.0):
            a, m_a = mid, m_mid
        else:
            b = mid
    raise InfeasibleError("rpm bisection did not converge")


def shared_power(tables, v, t_total_req):
    """Total shaft power (W) of the propellers in `tables` sharing
    t_total_req equally at airspeed v."""
    share = t_total_req / len(tables)
    total = 0.0
    for table in tables:
        n = solve_rpm_for_thrust(table, v, share)
        total += thrust_power(table, v, n)[1]
    return total


@dataclass(frozen=True)
class ConfigPower:
    """Named hover/cruise electrical power pair, W."""

    name: str
    hover_w: float
    cruise_w: float

    def __post_init__(self):
        check_positive(hover_w=self.hover_w, cruise_w=self.cruise_w)


def average_power(power, r):
    """Mission-average power at hover-time ratio r (affine in r)."""
    return r * power.hover_w + (1.0 - r) * power.cruise_w


def crossover_ratio(power_a, power_b):
    """Hover-time ratio where two average-power curves intersect.

    Returns None when the curves do not cross inside [0, 1]; identical
    curves are rejected as degenerate.
    """
    d_cruise = power_a.cruise_w - power_b.cruise_w
    d_hover = power_a.hover_w - power_b.hover_w
    if d_cruise == 0.0 and d_hover == 0.0:
        raise ConfigError("power curves are identical; crossover undefined")
    denom = d_cruise - d_hover
    if denom == 0.0:
        return None  # parallel curves
    r = d_cruise / denom
    if not 0.0 <= r <= 1.0:
        return None
    return r


# The stock props by sheet-file stem with their diameters (m), and the
# study pairings: (name, fore stem, aft stem, props active in fixed-wing
# mode). HPC pairs the 16-inch lift prop with the 7-inch cruise prop.
PROP_DIAMETERS = {"16in": 0.4064, "7in": 0.1778}
STUDY_PAIRINGS = (
    ("HPC", "16in", "7in", ("aft",)),
    ("HLC", "16in", "16in", ("fore", "aft")),
    ("HSC", "7in", "7in", ("aft",)),
)

# Reference electrical wattages of each stock prop in multi-rotor and
# fixed-wing operation, keyed by the fixture name the CLI accepts.
WATTAGE_FIXTURES = {
    "paper-2025": {
        "16in": {"multirotor": 33.0, "fixedwing": 61.0},
        "7in": {"multirotor": 105.3, "fixedwing": 63.5},
    },
}


def study_powers(watts):
    """ConfigPower of each of STUDY_PAIRINGS, in order. watts(stems, mode)
    is the power of the props named by `stems` sharing the mode's thrust
    equally: the hover set is (fore, aft) in "multirotor", the cruise set
    is the active props in "fixedwing"."""
    powers = []
    for name, fore, aft, fixedwing_active in STUDY_PAIRINGS:
        stems = {"fore": fore, "aft": aft}
        powers.append(ConfigPower(
            name, watts((fore, aft), "multirotor"),
            watts(tuple(stems[p] for p in fixedwing_active), "fixedwing")))
    return tuple(powers)


def fixture_config_powers(fixture="paper-2025"):
    """STUDY_PAIRINGS from a wattage fixture: each mode's power is the sum
    of its active props' wattages."""
    try:
        w = WATTAGE_FIXTURES[fixture]
    except KeyError:
        raise ConfigError(f"unknown wattage fixture {fixture!r}") from None
    return study_powers(lambda stems, mode: sum(w[s][mode] for s in stems))


def study_summary(powers):
    """key=value summary lines for a configuration study; the reductions
    compare mission-average powers at a hover-time ratio of 0.2. powers
    holds every STUDY_PAIRINGS entry, as study_powers returns them."""
    by_name = {p.name: p for p in powers}
    hpc, hlc, hsc = by_name["HPC"], by_name["HLC"], by_name["HSC"]
    lines = []
    for p in powers:
        lines.append(f"{p.name}_hover_W={p.hover_w:.9g}")
        lines.append(f"{p.name}_cruise_W={p.cruise_w:.9g}")
    r_star = crossover_ratio(hpc, hlc)
    if r_star is not None:
        lines.append(f"crossover_HPC_HLC={r_star:.3f}")
    hpc_mean = average_power(hpc, 0.2)
    for other in (hlc, hsc):
        cut = 100.0 * (1.0 - hpc_mean / average_power(other, 0.2))
        lines.append(f"reduction_at_r0.2_vs_{other.name}={cut:.1f}%")
    gap = 100.0 * (hsc.hover_w - hpc.hover_w) / hsc.hover_w
    lines.append(f"multirotor_gap_vs_HSC={gap:.1f}%")
    gap = 100.0 * (hlc.cruise_w - hpc.cruise_w) / hlc.cruise_w
    lines.append(f"fixedwing_gap_vs_HLC={gap:.1f}%")
    return lines


# the hover-time ratios at which the power curve is written
POWER_CURVE_R = np.linspace(0.0, 1.0, 101)


def write_power_curve_csv(path, powers):
    """power_curve.csv: column r plus one <name>_W column per config, in
    name order, of the mission-average power at each of POWER_CURVE_R."""
    powers = sorted(powers, key=lambda p: p.name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r"] + [f"{p.name}_W" for p in powers])
        for ri in POWER_CURVE_R:
            writer.writerow([f"{ri:.9g}"]
                            + [f"{average_power(p, ri):.9g}" for p in powers])


_SHEET_NAME = re.compile(r"^(?P<name>.+)_(?P<rpm>\d+(?:\.\d+)?)\.csv$")


def load_propeller_table(directory, name):
    """Load `<name>_<rpm>.csv` sheets (header J,CT,CP) from a directory;
    the diameter is PROP_DIAMETERS[name]."""
    directory = Path(directory)
    found = []
    for path in sorted(directory.glob(f"{name}_*.csv")):
        m = _SHEET_NAME.match(path.name)
        if m is None or m.group("name") != name:
            continue
        data = read_number_rows(path, ("J", "CT", "CP"))
        if not data.size:
            raise ConfigError(f"{path}: no data rows")
        found.append(RpmSheet(float(m.group("rpm")), data[:, 0], data[:, 1],
                              data[:, 2]))
    if not found:
        raise ConfigError(f"no sheets matching {name}_<rpm>.csv in {directory}")
    found.sort(key=lambda s: s.rpm)
    return PropellerTable(PROP_DIAMETERS[name], tuple(found))
