"""Swashplateless rotor (teetering hinge + lag-pitch coupling) dynamics.

The rotor head is modeled as a second-order system in three generalized
coordinates x = [theta, zeta, beta]: motor-angle deviation from uniform
rotation, blade lag angle, and blade pitch angle. The governing equation,

    M x'' + C x' + K(beta) x = [u_n / (a * sigma), 0, 0]^T,

is integrated in azimuth time: derivatives are taken with respect to the
rotor azimuth (rad), so the mass/damping/stiffness matrices are
dimensionless and the sinusoidal thrust modulation arrives at frequency
1 per revolution regardless of shaft speed. u_n is the modulation input
normalized by the full throttle scale.

The stiffness splits as K = K_c + K_beta, where K_c is the constant
head stiffness and K_beta a rank-one term acting on the lag coordinate:

    K_beta[:, 1] = (1/8) * [phi, -phi (1 - 4e/3), 4e/3 - 1] * g(beta),

with g(beta) = tan(beta + pi/4) for the hinge geometry that couples lag
into pitch ("coupled" variant) and g = 1 for the decoupled geometry.
g is evaluated as (1 + tan b)/(1 - tan b) so g(0) == 1.0 exactly and the
two variants coincide bit-for-bit at beta = 0.

Matrix defaults are an illustrative plausible set (tuned so the lag and
pitch modes sit near the once-per-rev drive, as hinge dynamics do); all
quantitative behavior is exercised relative to configuration, not against
absolute hardware numbers. The constant stiffness includes a small
motor-to-lag coupling (row 2, column 1), so holding a steady throttle
biases the head to a nonzero lag and pitch. The coupled geometry then
operates at g(beta_ss) > 1, which scales up every disturbance the lag
coordinate feeds back into the drive axis; the decoupled geometry stays
at g = 1. That operating-point difference, not the tiny parametric
stiffness ripple, is what the bench comparison measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, NumericalDomainError, SimulationFault,
                     check_finite, check_non_negative, check_positive,
                     whole_count)
from . import kernels

_BENCH_SUBSTEPS = 4  # integrator steps per bench output sample


def _default_inertia() -> np.ndarray:
    return np.array(
        [
            [1.00, 0.25, 0.00],
            [0.25, 0.14, 0.03],
            [0.00, 0.03, 0.06],
        ]
    )


def _default_damping() -> np.ndarray:
    return np.array(
        [
            [0.45, 0.04, 0.00],
            [0.04, 0.20, 0.01],
            [0.00, 0.01, 0.24],
        ]
    )


def _default_stiffness_const() -> np.ndarray:
    return np.array(
        [
            [2.000, 0.000, 0.000],
            [-0.045, 0.150, 0.010],
            [0.000, 0.010, 0.140],
        ]
    )


@dataclass(frozen=True)
class SplmParams:
    """Configuration of one swashplateless rotor head."""

    variant: str = "decoupled"
    inertia: np.ndarray = field(default_factory=_default_inertia)
    damping: np.ndarray = field(default_factory=_default_damping)
    stiffness_const: np.ndarray = field(default_factory=_default_stiffness_const)
    downwash_angle: float = 0.12        # phi_3/4, rad, blade pitch at 3/4 span
    hinge_offset: float = 0.20          # e, hinge location as fraction of radius
    lift_slope: float = 5.7             # a, per rad
    blade_count: int = 2
    chord: float = 0.03                 # m
    radius: float = 0.2032              # m
    torque_gain: float = 0.002          # C_m, N*m per throttle count
    torque_pickup: float = 20.0         # sensor weight on hinge-state feedback
    speed_per_throttle: float = 0.2793  # rad/s of shaft speed per throttle count
    throttle_scale: float = 2000.0      # throttle counts at full modulation depth
    hover_throttle: float = 900.0       # nominal operating throttle, counts

    def __post_init__(self):
        for name in ("inertia", "damping", "stiffness_const"):
            # a read-only copy: the rows unpacked below must not go stale
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != (3, 3):
                raise ConfigError(f"{name} must be a 3x3 matrix, got shape {m.shape}")
            if not np.isfinite(m).all():
                raise ConfigError(f"{name} must be finite")
            m.flags.writeable = False
            object.__setattr__(self, name, m)
        check_finite(downwash_angle=self.downwash_angle,
                     hinge_offset=self.hinge_offset)
        check_positive(lift_slope=self.lift_slope, chord=self.chord,
                       radius=self.radius, torque_gain=self.torque_gain,
                       speed_per_throttle=self.speed_per_throttle,
                       throttle_scale=self.throttle_scale,
                       hover_throttle=self.hover_throttle)
        check_non_negative(torque_pickup=self.torque_pickup)
        whole_count("blade_count", self.blade_count, 1)
        if abs(np.linalg.det(self.inertia)) < 1e-12:
            raise ConfigError("inertia matrix is singular")
        if self.variant not in ("coupled", "decoupled"):
            raise ConfigError(f"variant must be 'coupled' or 'decoupled', got {self.variant!r}")
        # the integrator's inputs, computed and unpacked to floats once
        object.__setattr__(self, "_inertia_inv_rows",
                           np.linalg.inv(self.inertia).tolist())
        object.__setattr__(self, "_damping_rows", self.damping.tolist())
        object.__setattr__(self, "_stiffness_rows",
                           self.stiffness_const.tolist())
        object.__setattr__(self, "_kbeta", _kbeta_column(self).tolist())
        object.__setattr__(self, "_u_scale", _input_scale(self))

    @property
    def coupled(self) -> bool:
        return self.variant == "coupled"

    @property
    def omega_hover(self) -> float:
        """Shaft speed at the nominal operating throttle, rad/s."""
        return self.speed_per_throttle * self.hover_throttle


def _check_count(name, value, least):
    """A step count must be an int (numpy's too), never a bool or a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ConfigError(f"{name} must be an int of at least {least}, "
                          f"got {value!r}")


def rotor_solidity(blade_count: int, chord: float, radius: float) -> float:
    """sigma = N c / (pi R)."""
    whole_count("blade_count", blade_count, 1)
    check_positive(chord=chord, radius=radius)
    return blade_count * chord / (math.pi * radius)


def _coupling_gain(beta, coupled):
    """g(beta) = tan(beta + pi/4) of a float or an array of pitch angles.

    Evaluated as (1 + tan b)/(1 - tan b) with numpy's tan, so g(0) == 1.0
    exactly; the decoupled geometry has g = 1. The rotor kernel's hot loop
    (kernels.splm_trajectory) keeps an inline copy of the same expression
    in each of its four written-out RK4 stages.
    """
    if not coupled:
        return 1.0
    # count_nonzero, not np.any: several times cheaper on a scalar, and
    # steady_state's root search calls this some 500 times
    if np.count_nonzero(abs(beta - kernels._QUARTER_PI)
                        < kernels._SINGULAR_GUARD):
        raise NumericalDomainError(
            "lag-pitch coupling singular: beta within 1e-6 rad of pi/4")
    tb = np.tan(beta)
    return (1.0 + tb) / (1.0 - tb)


def _kbeta_column(params: SplmParams) -> np.ndarray:
    phi = params.downwash_angle
    e = params.hinge_offset
    return np.array([phi, -phi * (1.0 - 4.0 * e / 3.0), 4.0 * e / 3.0 - 1.0])


def stiffness_matrix(params: SplmParams, beta: float = 0.0) -> np.ndarray:
    """Total stiffness K_c + K_beta at the given blade pitch angle."""
    g = _coupling_gain(beta, params.coupled)
    k = params.stiffness_const.copy()
    k[:, 1] += 0.125 * g * np.array(params._kbeta)
    return k


def _input_scale(params: SplmParams) -> float:
    """Throttle counts -> equation forcing units."""
    sigma = rotor_solidity(params.blade_count, params.chord, params.radius)
    return 1.0 / (params.throttle_scale * params.lift_slope * sigma)


def steady_state(params: SplmParams, u: float) -> np.ndarray:
    """Equilibrium x for a constant input u (throttle counts).

    Solves K(beta_ss) x = b. For the decoupled variant one linear solve is
    exact. The coupled variant closes a scalar consistency loop in beta
    (the stiffness depends on the pitch it produces); that root is found
    by bracketed bisection on the branch continuous from the decoupled
    solution.
    """
    check_finite(u=u)
    b = np.array([u * params._u_scale, 0.0, 0.0])
    x0 = np.linalg.solve(stiffness_matrix(params, 0.0), b)
    if not params.coupled:
        return x0

    def mismatch(beta: float) -> float:
        x = np.linalg.solve(stiffness_matrix(params, beta), b)
        return float(x[2]) - beta

    # grid search for the sign change nearest the decoupled pitch estimate,
    # staying clear of the tan singularity at pi/4
    lo, hi = -0.70, 0.70
    grid = np.linspace(lo, hi, 281)
    vals = np.array([mismatch(g) for g in grid])
    sign_flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(sign_flips) == 0:
        raise SimulationFault(
            f"no steady-state pitch solution in the admissible range for "
            f"the {params.variant} head at throttle {u:g} counts")
    centers = 0.5 * (grid[sign_flips] + grid[sign_flips + 1])
    i = sign_flips[np.argmin(np.abs(centers - x0[2]))]
    a, c = grid[i], grid[i + 1]
    fa = vals[i]
    for _ in range(200):
        m = 0.5 * (a + c)
        fm = mismatch(m)
        if fm == 0.0 or (c - a) < 1e-15:
            break
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            c = m
    beta = 0.5 * (a + c)
    return np.linalg.solve(stiffness_matrix(params, beta), b)


def integrate(params: SplmParams, y0: np.ndarray, psi_step: float, n_steps: int,
              u_half: np.ndarray) -> np.ndarray:
    """Integrate over n_steps azimuth steps with input given on the half grid.

    y0 holds the 6 states [theta, zeta, beta] and their derivatives;
    n_steps is an int >= 0. u_half must hold 2*n_steps + 1 samples
    (throttle counts). Returns the (n_steps+1) x 6 state trajectory.
    Mostly a building block for the bench and for frequency-response
    studies where the drive is known analytically.
    """
    _check_count("n_steps", n_steps, 0)
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (6,):
        raise ConfigError(f"y0 must hold 6 states, got shape {y0.shape}")
    u_half = np.asarray(u_half, dtype=float)
    if u_half.shape != (2 * n_steps + 1,):
        raise ConfigError(
            f"u_half must have {2 * n_steps + 1} samples for {n_steps} steps"
        )
    check_positive(psi_step=psi_step)
    if not (np.isfinite(y0).all() and np.isfinite(u_half).all()):
        raise ConfigError("y0 and u_half must be finite")
    traj = kernels.splm_trajectory(
        y0, n_steps, float(psi_step), params._inertia_inv_rows,
        params._damping_rows, params._stiffness_rows, params._kbeta,
        params.coupled, u_half * params._u_scale)
    if not np.all(np.isfinite(traj)):
        raise SimulationFault("rotor trajectory diverged to non-finite values")
    return traj


def torque_from_states(params: SplmParams, u: np.ndarray, traj: np.ndarray) -> np.ndarray:
    """Shaft torque seen by a bench sensor, N*m.

    C_m times the instantaneous throttle command, minus torque_pickup
    times the drive-axis component of the lag-pitch stiffness feedback
    (the blade loading change the hinge deflection causes), converted to
    the same throttle-count scale. The pickup opposes the command: extra
    blade pitch unloads the motor.
    """
    zeta = traj[:, 1]
    g = _coupling_gain(traj[:, 2], params.coupled)
    coupling_row0 = 0.125 * params.downwash_angle * g * zeta
    counts = u - params.torque_pickup * coupling_row0 / params._u_scale
    return params.torque_gain * counts


def modulation_signal(t_d1, m_d, theta):
    """Instantaneous fore-rotor command with once-per-rev modulation.

    The modulation phase is taken from the direction of m_d in the motor
    frame: phi = atan2(m_x, m_y), zero when the moment demand points
    along +y. Accepts scalar or array theta.
    """
    m_d = np.asarray(m_d, dtype=float)
    amp = math.hypot(float(m_d[0]), float(m_d[1]))
    phi = math.atan2(float(m_d[0]), float(m_d[1]))
    return t_d1 + amp * np.sin(np.asarray(theta, dtype=float) + phi)


def bench_torque_series(params: SplmParams, throttle: float, amplitude: float,
                        phase: float, duration: float,
                        fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Simulate a bench run: fixed throttle, once-per-rev sinusoidal modulation.

    The command is modulation_signal(throttle, m_d, psi) with psi the
    nominal shaft azimuth and m_d oriented so the modulation phase equals
    `phase`. amplitude may not exceed throttle, so the command never dips
    below zero counts, and throttle + amplitude may not exceed
    params.throttle_scale, so it never peaks past full throttle. The head
    starts at the steady state for the bare throttle, so amplitude = 0
    holds the fixed point exactly and the torque trace is flat up to
    integrator noise. Returns (t, torque) sampled at fs; the integrator
    runs _BENCH_SUBSTEPS internal steps per output sample.
    """
    check_positive(throttle=throttle, duration=duration, fs=fs)
    check_non_negative(amplitude=amplitude)
    check_finite(phase=phase)
    if amplitude > throttle:
        raise ConfigError(f"amplitude {amplitude:g} exceeds throttle "
                          f"{throttle:g}: the command would dip below zero "
                          f"counts")
    if throttle + amplitude > params.throttle_scale:
        raise ConfigError(f"throttle {throttle:g} + amplitude {amplitude:g} "
                          f"exceeds the throttle scale "
                          f"{params.throttle_scale:g}: the command would "
                          f"peak past full throttle")
    if not math.isfinite(duration * fs):
        raise ConfigError(f"duration={duration} s at fs={fs} Hz gives more "
                          "output samples than a float can count")
    n_out = int(round(duration * fs))
    if n_out < 1:
        raise ConfigError(f"duration={duration} s at fs={fs} Hz gives no "
                          "output sample")
    omega = params.speed_per_throttle * throttle
    if fs < 2.0 * omega / (2.0 * math.pi):
        raise ConfigError(
            f"fs={fs} Hz undersamples the {omega / (2 * math.pi):.1f} Hz rotation; "
            "need fs >= 2x rotation frequency"
        )
    n_steps = n_out * _BENCH_SUBSTEPS
    h = omega / (fs * _BENCH_SUBSTEPS)
    m_d = (amplitude * math.sin(phase), amplitude * math.cos(phase))
    try:
        psi_half = np.arange(2 * n_steps + 1) * (0.5 * h)
        u_half = modulation_signal(throttle, m_d, psi_half)
    except (ValueError, MemoryError) as exc:
        # numpy: ValueError past its shape limit, MemoryError past memory
        raise ConfigError(f"duration={duration} s at fs={fs} Hz is "
                          f"{n_out:.6g} output samples, too many to simulate"
                          ) from exc
    y0 = np.concatenate([steady_state(params, throttle), np.zeros(3)])
    traj = integrate(params, y0, h, n_steps, u_half)
    traj_out = traj[::_BENCH_SUBSTEPS]
    u_out = u_half[:: 2 * _BENCH_SUBSTEPS]
    t = np.arange(n_out + 1) / fs
    return t, torque_from_states(params, u_out, traj_out)
