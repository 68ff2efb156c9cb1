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
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, NumericalDomainError, SimulationFault,
                     check_finite, check_non_negative, check_positive,
                     finite_matrix3, whole_count)
from . import kernels
from .stock import FULL_THROTTLE

# the largest azimuth step (rad) the bench takes: its peak-to-peak is 7e-6
# from an 8x finer step's, and RK4 on the head diverges past about 0.57 rad
H_MAX = 0.13
_BENCH_BLOCK = 1024  # bench output samples integrated per integrate call


# The stock fore-rotor hardware. The paper flies one head; its studies vary
# only the hinge geometry and head dynamics, which SplmParams holds.
LIFT_SLOPE = 5.7             # a, per rad
BLADE_COUNT = 2
CHORD = 0.03                 # m
RADIUS = 0.2032              # m
TORQUE_GAIN = 0.002          # K_q, shaft torque, N*m per throttle count
TORQUE_PICKUP = 20.0         # sensor weight on hinge-state feedback
SPEED_PER_THROTTLE = 0.2793  # rad/s of shaft speed per throttle count
HOVER_THROTTLE = 900.0       # nominal operating throttle, counts
SOLIDITY = BLADE_COUNT * CHORD / (math.pi * RADIUS)  # sigma = N c / (pi R)
# throttle counts -> equation forcing units
_INPUT_SCALE = 1.0 / (FULL_THROTTLE * LIFT_SLOPE * SOLIDITY)


@dataclass(frozen=True)
class SplmParams:
    """Configuration of one swashplateless rotor head; the stock hardware
    around it (blades, torque sensor, throttle map) is module constants.
    The matrices may be given as any 3x3 array-like; each is held as a
    read-only float array."""

    variant: str = "decoupled"
    inertia: np.ndarray = ((1.00, 0.25, 0.00),
                           (0.25, 0.14, 0.03),
                           (0.00, 0.03, 0.06))
    damping: np.ndarray = ((0.45, 0.04, 0.00),
                           (0.04, 0.20, 0.01),
                           (0.00, 0.01, 0.24))
    stiffness_const: np.ndarray = ((2.000, 0.000, 0.000),
                                   (-0.045, 0.150, 0.010),
                                   (0.000, 0.010, 0.140))
    downwash_angle: float = 0.12  # phi_3/4, rad, blade pitch at 3/4 span
    hinge_offset: float = 0.20    # e, hinge location as fraction of radius

    def __post_init__(self):
        for name in ("inertia", "damping", "stiffness_const"):
            # a read-only copy: the rows unpacked below must not go stale
            object.__setattr__(self, name,
                               finite_matrix3(getattr(self, name), name))
        check_finite(downwash_angle=self.downwash_angle,
                     hinge_offset=self.hinge_offset)
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

    @property
    def coupled(self) -> bool:
        return self.variant == "coupled"


def _coupling_gain(beta, coupled):
    """g(beta) = tan(beta + pi/4) of a float or an array of pitch angles.

    Evaluated as (1 + tan b)/(1 - tan b), so g(0) == 1.0 exactly; the
    decoupled geometry has g = 1. tan is libm's (math.tan), element by
    element for an array, so an angle gives the same bits alone, in an
    array and in the rotor kernel's hot loop (kernels.splm_trajectory),
    which keeps an inline copy of the expression in each of its four
    written-out RK4 stages. np.tan would round differently on some
    angles at numpy's AVX-512 level. An infinite angle is a
    NumericalDomainError.
    """
    if not coupled:
        return 1.0
    # count_nonzero, not np.any: several times cheaper on a scalar, and
    # steady_state calls this some 47 times, mostly on one pitch
    if np.count_nonzero(abs(beta - kernels._QUARTER_PI)
                        < kernels._SINGULAR_GUARD):
        raise NumericalDomainError(
            "lag-pitch coupling singular: beta within 1e-6 rad of pi/4")
    try:
        if np.ndim(beta) == 0:
            tb = math.tan(beta)
        else:
            tb = np.fromiter(map(math.tan, beta.ravel().tolist()), float,
                             beta.size).reshape(beta.shape)
    except ValueError:
        raise NumericalDomainError(
            "lag-pitch coupling undefined: beta is infinite") from None
    return (1.0 + tb) / (1.0 - tb)


def _kbeta_column(params: SplmParams) -> np.ndarray:
    phi = params.downwash_angle
    e = params.hinge_offset
    return np.array([phi, -phi * (1.0 - 4.0 * e / 3.0), 4.0 * e / 3.0 - 1.0])


def stiffness_matrix(params: SplmParams, beta=0.0) -> np.ndarray:
    """Total stiffness K_c + K_beta at a blade pitch angle (a 3x3 matrix),
    or at an array of them (a stack of 3x3 matrices, one per angle)."""
    g = _coupling_gain(beta, params.coupled)
    k = np.empty(np.shape(beta) + (3, 3))
    k[...] = params.stiffness_const
    k[..., 1] += np.multiply.outer(0.125 * g, params._kbeta)
    return k


def _pitch_mismatch(params: SplmParams, b: np.ndarray, beta):
    """x[2] - beta for K(beta) x = b, at one pitch or at an array of them:
    b goes in as a column, which numpy 1.x and 2.x both solve against each
    matrix of a stack with the same LAPACK call."""
    return np.linalg.solve(stiffness_matrix(params, beta),
                           b[:, None])[..., 2, 0] - beta


def steady_state(params: SplmParams, u: float) -> np.ndarray:
    """Equilibrium x for a constant input u (throttle counts).

    Solves K(beta_ss) x = b. For the decoupled variant one linear solve is
    exact. The coupled variant closes a scalar consistency loop in beta
    (the stiffness depends on the pitch it produces); that root is found
    by bracketed bisection on the branch continuous from the decoupled
    solution, in a bracket from a 281-point pitch grid whose matrices are
    solved as one stack.
    """
    check_finite(u=u)
    b = np.array([u * _INPUT_SCALE, 0.0, 0.0])
    x0 = np.linalg.solve(stiffness_matrix(params, 0.0), b)
    if not params.coupled:
        return x0

    # grid search for the sign change nearest the decoupled pitch estimate,
    # staying clear of the tan singularity at pi/4
    lo, hi = -0.70, 0.70
    grid = np.linspace(lo, hi, 281)
    vals = _pitch_mismatch(params, b, grid)
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
        fm = _pitch_mismatch(params, b, m)
        if fm == 0.0 or (c - a) < 1e-15:
            break
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            c = m
    beta = 0.5 * (a + c)
    return np.linalg.solve(stiffness_matrix(params, beta), b)


def integrate(params: SplmParams, y0: np.ndarray, psi_step: float, n_steps: int,
              u_half: np.ndarray, *, first_step: int = 0,
              stride: int = 1) -> np.ndarray:
    """Integrate over n_steps azimuth steps with input given on the half grid.

    y0 holds the 6 states [theta, zeta, beta] and their derivatives;
    n_steps is a whole count >= 0. u_half must hold 2*n_steps + 1 samples
    (throttle counts). Returns the (n_steps // stride + 1) x 6 state
    trajectory: every stride-th row, for a whole stride >= 1 that
    divides n_steps. A singular-pitch NumericalDomainError counts steps
    from first_step.
    Mostly a building block for the bench and for frequency-response
    studies where the drive is known analytically.
    """
    n_steps = whole_count("n_steps", n_steps, 0)
    first_step = whole_count("first_step", first_step, 0)
    stride = whole_count("stride", stride, 1)
    if n_steps % stride:
        raise ConfigError(f"stride {stride} does not divide n_steps {n_steps}")
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
    try:
        traj = kernels.splm_trajectory(
            y0, n_steps, float(psi_step), params._inertia_inv_rows,
            params._damping_rows, params._stiffness_rows, params._kbeta,
            params.coupled, u_half * _INPUT_SCALE, first_step, stride)
    except ValueError:
        traj = None  # math.tan of a pitch that overflowed to infinity
    if traj is None or not np.all(np.isfinite(traj)):
        raise SimulationFault("rotor trajectory diverged to non-finite values")
    return traj


def torque_from_states(params: SplmParams, u: np.ndarray, traj: np.ndarray) -> np.ndarray:
    """Shaft torque seen by a bench sensor, N*m.

    K_q (TORQUE_GAIN) times the instantaneous throttle command, minus
    TORQUE_PICKUP times the drive-axis component of the lag-pitch
    stiffness feedback (the blade loading change the hinge deflection
    causes), converted to the same throttle-count scale. The pickup
    opposes the command: extra blade pitch unloads the motor.
    """
    zeta = traj[:, 1]
    g = _coupling_gain(traj[:, 2], params.coupled)
    coupling_row0 = 0.125 * params.downwash_angle * g * zeta
    counts = u - TORQUE_PICKUP * coupling_row0 / _INPUT_SCALE
    return TORQUE_GAIN * counts


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
    FULL_THROTTLE, so it never peaks past full throttle. The head
    starts at the steady state for the bare throttle, so amplitude = 0
    holds the fixed point exactly and the torque trace is flat up to
    integrator noise. Returns (t, torque) sampled at fs; the integrator
    takes as few equal steps per output sample as keep each azimuth step
    within H_MAX, _BENCH_BLOCK output samples at a time, and keeps only
    the rows it samples. A singular-pitch NumericalDomainError counts its
    step from the run's first, and a torque sample that is not finite is
    a SimulationFault naming it.
    """
    check_positive(throttle=throttle, duration=duration, fs=fs)
    check_non_negative(amplitude=amplitude)
    check_finite(phase=phase)
    if amplitude > throttle:
        raise ConfigError(f"amplitude {amplitude:g} exceeds throttle "
                          f"{throttle:g}: the command would dip below zero "
                          f"counts")
    if throttle + amplitude > FULL_THROTTLE:
        raise ConfigError(f"throttle {throttle:g} + amplitude {amplitude:g} "
                          f"exceeds the throttle scale "
                          f"{FULL_THROTTLE:g}: the command would "
                          f"peak past full throttle")
    if not math.isfinite(duration * fs):
        raise ConfigError(f"duration={duration} s at fs={fs} Hz gives more "
                          "output samples than a float can count")
    n_out = int(round(duration * fs))
    if n_out < 1:
        raise ConfigError(f"duration={duration} s at fs={fs} Hz gives no "
                          "output sample")
    omega = SPEED_PER_THROTTLE * throttle
    if fs < 2.0 * omega / (2.0 * math.pi):
        raise ConfigError(
            f"fs={fs} Hz undersamples the {omega / (2 * math.pi):.1f} Hz rotation; "
            "need fs >= 2x rotation frequency"
        )
    s = max(1, math.ceil(omega / (fs * H_MAX)))
    h = omega / (fs * s)
    if h == 0.0:
        raise ConfigError(f"throttle={throttle:g} at fs={fs:g} Hz gives an "
                          "azimuth step that underflows to zero")
    m_d = (amplitude * math.sin(phase), amplitude * math.cos(phase))
    try:
        t = np.arange(n_out + 1) / fs
        torque = np.empty(n_out + 1)
    except (ValueError, MemoryError) as exc:
        # numpy: ValueError past its shape limit, MemoryError past memory
        raise ConfigError(f"duration={duration} s at fs={fs} Hz is "
                          f"{n_out:.6g} output samples, too many to simulate"
                          ) from exc
    y = np.concatenate([steady_state(params, throttle), np.zeros(3)])
    # one block per call, so only t and torque grow with the duration; step
    # k's half-grid azimuths are (2k, 2k+1, 2k+2) * (h/2), as in one call
    for a in range(0, n_out, _BENCH_BLOCK):
        b = min(a + _BENCH_BLOCK, n_out)
        u_half = modulation_signal(
            throttle, m_d, np.arange(2 * s * a, 2 * s * b + 1) * (0.5 * h))
        traj = integrate(params, y, h, s * (b - a), u_half, first_step=s * a,
                         stride=s)
        y = traj[-1]
        # a block's end row starts the next block, which checks its pitch
        n = b - a + (b == n_out)
        # a finite state can still overflow the readout; checked below
        with np.errstate(all="ignore"):
            torque[a:a + n] = torque_from_states(
                params, u_half[:2 * s * n:2 * s], traj[:n])
    bad = np.flatnonzero(~np.isfinite(torque))
    if bad.size:
        raise SimulationFault(f"bench torque sample {bad[0]} (t={t[bad[0]]:g} "
                              f"s) is not finite: {torque[bad[0]]}")
    return t, torque
