"""Tandem-wing force law, pitch moment, and longitudinal static stability.

Both wings share one panel law, which the static-stability check and the
6-DOF simulator both use: the lift line Cl = k*alpha + Cl0 inside the
linear range [-5, +10] degrees, blended beyond it into the flat-plate
post-stall law Cn_max*sin(alpha) (panel_cn). The vehicle pitch moment
uses the nose-up-positive convention M = F_front*L_front -
F_rear*L_rear, so a statically stable layout (rear wing doing relatively
more work) gives dM/d(alpha) < 0: pitching up loads the rear wing harder
and the moment pushes the nose back down.

The retracted wing mode models the wings folded along the fuselage: they
stop producing lift (the simulator's panel force is then exactly zero).
Dynamic pressure is taken in sea-level air (stock.RHO).
"""

import enum
import math
from dataclasses import dataclass

from .errors import (ConfigError, LinearRangeError, check_finite,
                     check_instance, check_non_negative, check_positive)
from .stock import RHO

ALPHA_MIN = math.radians(-5.0)
ALPHA_MAX = math.radians(10.0)
_BLEND_BAND = math.radians(25.0)  # linear-to-post-stall crossfade width
_CN_MAX = 1.2  # flat-plate normal-force ceiling for a moderate-AR panel


@dataclass(frozen=True)
class WingPanel:
    """One lifting surface: geometry, linear airfoil, and moment arm."""

    area: float             # S, m^2
    lift_slope: float       # k, 1/rad
    cl0: float              # lift coefficient at zero airfoil AoA
    incidence: float        # mounting angle relative to vehicle axis, rad
    arm: float              # distance from CG to panel aero center, m

    def __post_init__(self):
        check_finite(cl0=self.cl0, incidence=self.incidence)
        check_positive(area=self.area, lift_slope=self.lift_slope,
                       arm=self.arm)


@dataclass(frozen=True)
class TandemConfig:
    front: WingPanel
    rear: WingPanel

    def __post_init__(self):
        check_instance(WingPanel, front=self.front, rear=self.rear)


class WingMode(enum.Enum):
    EXTENDED = "extended"
    RETRACTED = "retracted"


@dataclass(frozen=True)
class StabilityReport:
    trim_exists: bool
    stable: bool
    margin: float  # dM/d(delta_alpha) at the reference speed, N*m/rad


def panel_cn(panel, alpha):
    """Full-envelope normal-force coefficient for one panel.

    Exactly the linear lift line inside the panel's valid range, then a
    cosine crossfade into Cn_max*sin(alpha) over _BLEND_BAND beyond each
    edge. Continuous, and its slope never turns steeply negative, which
    keeps the heave/incidence coupling benign through the transition.
    """
    a = math.remainder(alpha, 2.0 * math.pi)
    if ALPHA_MIN <= a <= ALPHA_MAX:
        return panel.lift_slope * a + panel.cl0
    edge = ALPHA_MAX if a > ALPHA_MAX else ALPHA_MIN
    cn_edge = panel.lift_slope * edge + panel.cl0
    frac = min(1.0, abs(a - edge) / _BLEND_BAND)
    w = 0.5 * (1.0 + math.cos(math.pi * frac))
    return w * cn_edge + (1.0 - w) * _CN_MAX * math.sin(a)


def tandem_wrench(config, q, alpha):
    """(normal force, pitch moment) of both panels at dynamic pressure q
    and vehicle angle of attack alpha; N and N*m, nose-up positive."""
    f, r = config.front, config.rear
    f_front = q * f.area * panel_cn(f, alpha + f.incidence)
    f_rear = q * r.area * panel_cn(r, alpha + r.incidence)
    return f_front + f_rear, f_front * f.arm - f_rear * r.arm


def _require_identical_airfoils(config):
    f, r = config.front, config.rear
    if f.lift_slope != r.lift_slope or f.cl0 != r.cl0:
        raise ConfigError(
            "front and rear panels must share one airfoil "
            "(equal lift slope and Cl0)"
        )


def pitch_moment(config, v, delta_alpha):
    """Vehicle pitch moment about the CG at speed v, nose-up positive, N*m.

    delta_alpha is the common AoA deviation added to both incidences;
    each panel must stay inside the linear range.
    """
    check_non_negative(v=v)
    for panel in (config.front, config.rear):
        alpha = panel.incidence + delta_alpha
        if not ALPHA_MIN <= alpha <= ALPHA_MAX:
            raise LinearRangeError(f"airfoil angle {math.degrees(alpha):.2f} "
                                   "deg outside the linear range [-5, +10] deg")
    return tandem_wrench(config, 0.5 * RHO * v * v, delta_alpha)[1]


def _delta_alpha_interval(config):
    # both panels must stay inside the airfoil linear range; shrink by a
    # nanoradian so float rounding cannot push an endpoint out of range
    f, r = config.front, config.rear
    lo = max(ALPHA_MIN - f.incidence, ALPHA_MIN - r.incidence) + 1e-9
    hi = min(ALPHA_MAX - f.incidence, ALPHA_MAX - r.incidence) - 1e-9
    if lo > hi:
        raise ConfigError("incidence angles leave no common linear AoA range")
    return lo, hi


def stability_margin(config, v):
    """Analytic dM/d(delta_alpha) at speed v, N*m/rad."""
    _require_identical_airfoils(config)
    f, r = config.front, config.rear
    q = 0.5 * RHO * v * v
    return q * f.lift_slope * (f.area * f.arm - r.area * r.arm)


def static_stability_check(config):
    """Longitudinal static stability of the extended configuration.

    stable requires rear incidence strictly below front incidence and
    front area-arm product strictly below the rear one; margin is the
    analytic moment slope at the 1 m/s reference speed, where the trim
    search takes its moments too.
    """
    f, r = config.front, config.rear
    stable = (r.incidence < f.incidence) and (f.area * f.arm < r.area * r.arm)
    margin = stability_margin(config, 1.0)
    lo, hi = _delta_alpha_interval(config)
    m_lo = pitch_moment(config, 1.0, lo)
    m_hi = pitch_moment(config, 1.0, hi)
    trim_exists = m_lo == 0.0 or m_hi == 0.0 or (m_lo < 0.0) != (m_hi < 0.0)
    return StabilityReport(trim_exists=trim_exists, stable=stable, margin=margin)

