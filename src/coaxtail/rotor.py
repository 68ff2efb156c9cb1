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

from .errors import ConfigError, NumericalDomainError, SimulationFault
from .control import modulation_signal
from . import kernels

_MAX_STEP_S = 2e-3


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


def _default_beta_delay() -> np.ndarray:
    # columns: shaft speed (rad/s), phase lag (rad); identity-zero default
    return np.array([[0.0, 0.0]])


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
    beta_delay: np.ndarray = field(default_factory=_default_beta_delay)

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
        for name in ("downwash_angle", "hinge_offset", "lift_slope",
                     "blade_count", "chord", "radius", "torque_gain",
                     "torque_pickup", "speed_per_throttle", "throttle_scale",
                     "hover_throttle"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if abs(np.linalg.det(self.inertia)) < 1e-12:
            raise ConfigError("inertia matrix is singular")
        if self.variant not in ("coupled", "decoupled"):
            raise ConfigError(f"variant must be 'coupled' or 'decoupled', got {self.variant!r}")
        for name in ("lift_slope", "chord", "radius", "torque_gain",
                     "speed_per_throttle", "throttle_scale", "hover_throttle"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.blade_count < 1:
            raise ConfigError("blade_count must be at least 1")
        if self.torque_pickup < 0.0:
            raise ConfigError("torque_pickup must be non-negative")
        tbl = np.atleast_2d(np.asarray(self.beta_delay, dtype=float))
        if tbl.shape[1] != 2:
            raise ConfigError("beta_delay table needs two columns: speed, lag")
        if not np.isfinite(tbl).all():
            raise ConfigError("beta_delay must be finite")
        if tbl.shape[0] > 1 and np.any(np.diff(tbl[:, 0]) <= 0.0):
            raise ConfigError("beta_delay speeds must be strictly increasing")
        object.__setattr__(self, "beta_delay", tbl)
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

    def delay_at(self, omega: float) -> float:
        """Phase lag between commanded and realized modulation at shaft speed omega."""
        tbl = self.beta_delay
        return float(np.interp(omega, tbl[:, 0], tbl[:, 1]))


@dataclass
class RotorState:
    """Rotor head state: generalized coordinates and azimuth-derivatives."""

    x: np.ndarray = field(default_factory=lambda: np.zeros(3))
    x_dot: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(3)
        self.x_dot = np.asarray(self.x_dot, dtype=float).reshape(3)

    def as_vector(self) -> np.ndarray:
        out = np.empty(6)
        out[:3] = self.x
        out[3:] = self.x_dot
        return out

    @property
    def wrapped_angle(self) -> float:
        """Motor-angle coordinate wrapped to [0, 2*pi) for reporting."""
        return float(np.mod(self.x[0], 2.0 * math.pi))


def rotor_solidity(blade_count: int, chord: float, radius: float) -> float:
    """sigma = N c / (pi R)."""
    if blade_count < 1:
        raise ConfigError("blade_count must be at least 1")
    if chord <= 0.0 or radius <= 0.0:
        raise ConfigError("chord and radius must be positive")
    return blade_count * chord / (math.pi * radius)


def _coupling_gain(beta: float, coupled: bool) -> float:
    if not coupled:
        return 1.0
    if abs(beta - 0.25 * math.pi) < 1e-6:
        raise NumericalDomainError(
            f"lag-pitch coupling singular: beta={beta:.8f} rad is within 1e-6 of pi/4"
        )
    tb = math.tan(beta)
    return (1.0 + tb) / (1.0 - tb)


def _kbeta_column(params: SplmParams) -> np.ndarray:
    phi = params.downwash_angle
    e = params.hinge_offset
    return np.array([phi, -phi * (1.0 - 4.0 * e / 3.0), 4.0 * e / 3.0 - 1.0])


def stiffness_matrix(params: SplmParams, beta: float = 0.0) -> np.ndarray:
    """Total stiffness K_c + K_beta at the given blade pitch angle."""
    g = _coupling_gain(beta, params.coupled)
    k = params.stiffness_const.copy()
    k[:, 1] += 0.125 * g * _kbeta_column(params)
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
    b = np.array([u * _input_scale(params), 0.0, 0.0])
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
        raise SimulationFault("no steady-state pitch solution in the admissible range")
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


def _run_kernel(y0, n_steps, h, params, u_half):
    traj, status = kernels.splm_trajectory(
        y0, n_steps, h, params._inertia_inv_rows, params._damping_rows,
        params._stiffness_rows, params._kbeta, params.coupled, u_half)
    if status == kernels.STATUS_SINGULAR:
        raise NumericalDomainError(
            "trajectory reached the lag-pitch coupling singularity (beta ~ pi/4)"
        )
    if not np.all(np.isfinite(traj)):
        raise SimulationFault("rotor trajectory diverged to non-finite values")
    return traj


def splm_step(state: RotorState, u: float, params: SplmParams, dt: float,
              omega: float | None = None) -> RotorState:
    """Advance the rotor state by one RK4 step of dt seconds.

    u is the modulation input in throttle counts, held constant over the
    step. omega is the shaft speed used to convert wall time to azimuth;
    defaults to the speed at the nominal operating throttle.
    """
    if not 0.0 < dt <= _MAX_STEP_S:
        raise ConfigError(f"dt must be in (0, {_MAX_STEP_S}] s, got {dt}")
    if omega is None:
        omega = params.omega_hover
    if omega <= 0.0:
        raise ConfigError("shaft speed must be positive")
    h = omega * dt
    u_half = np.full(3, float(u) * params._u_scale)
    traj = _run_kernel(state.as_vector(), 1, h, params, u_half)
    return RotorState(traj[-1, :3].copy(), traj[-1, 3:].copy())


def integrate(params: SplmParams, y0: np.ndarray, psi_step: float, n_steps: int,
              u_half: np.ndarray) -> np.ndarray:
    """Integrate over n_steps azimuth steps with input given on the half grid.

    u_half must hold 2*n_steps + 1 samples (throttle counts). Returns the
    (n_steps+1) x 6 state trajectory. Mostly a building block for the bench
    and for frequency-response studies where the drive is known analytically.
    """
    u_half = np.asarray(u_half, dtype=float)
    if u_half.shape != (2 * n_steps + 1,):
        raise ConfigError(
            f"u_half must have {2 * n_steps + 1} samples for {n_steps} steps"
        )
    y0 = np.asarray(y0, dtype=float)
    if not (math.isfinite(psi_step) and np.isfinite(y0).all()
            and np.isfinite(u_half).all()):
        raise ConfigError("psi_step, y0 and u_half must be finite")
    scaled = u_half * params._u_scale
    return _run_kernel(y0, n_steps, float(psi_step), params, scaled)


def torque_from_states(params: SplmParams, u: np.ndarray, traj: np.ndarray) -> np.ndarray:
    """Shaft torque seen by a bench sensor, N*m.

    C_m times the instantaneous throttle command, minus torque_pickup
    times the drive-axis component of the lag-pitch stiffness feedback
    (the blade loading change the hinge deflection causes), converted to
    the same throttle-count scale. The pickup opposes the command: extra
    blade pitch unloads the motor.
    """
    zeta = traj[:, 1]
    beta = traj[:, 2]
    if params.coupled:
        if np.any(np.abs(beta - 0.25 * math.pi) < 1e-6):
            raise NumericalDomainError(
                "torque model singular: trajectory contains beta within 1e-6 of pi/4"
            )
        tb = np.tan(beta)
        g = (1.0 + tb) / (1.0 - tb)
    else:
        g = np.ones_like(beta)
    coupling_row0 = 0.125 * params.downwash_angle * g * zeta
    counts = u - params.torque_pickup * coupling_row0 / params._u_scale
    return params.torque_gain * counts


def bench_torque_series(params: SplmParams, throttle: float, amplitude: float,
                        phase: float, duration: float, fs: float,
                        substeps: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Simulate a bench run: fixed throttle, once-per-rev sinusoidal modulation.

    The command is modulation_signal(throttle, m_d, psi, delay(omega))
    with psi the nominal shaft azimuth and m_d oriented so the modulation
    phase equals `phase`. The head starts at the steady state for the bare
    throttle, so amplitude = 0 holds the fixed point exactly and the
    torque trace is flat up to integrator noise. Returns (t, torque)
    sampled at fs; the integrator runs `substeps` internal steps per
    output sample.
    """
    if not all(map(math.isfinite, (throttle, amplitude, phase))):
        raise ConfigError("throttle, amplitude and phase must be finite")
    if throttle <= 0.0:
        raise ConfigError("throttle must be positive")
    if amplitude < 0.0:
        raise ConfigError("amplitude must be non-negative")
    if not (math.isfinite(duration) and duration > 0.0
            and math.isfinite(fs) and fs > 0.0):
        raise ConfigError("duration and fs must be positive and finite")
    if substeps < 1:
        raise ConfigError("substeps must be at least 1")
    omega = params.speed_per_throttle * throttle
    if fs < 2.0 * omega / (2.0 * math.pi):
        raise ConfigError(
            f"fs={fs} Hz undersamples the {omega / (2 * math.pi):.1f} Hz rotation; "
            "need fs >= 2x rotation frequency"
        )
    n_out = int(round(duration * fs))
    n_steps = n_out * substeps
    h = omega / (fs * substeps)
    psi_half = np.arange(2 * n_steps + 1) * (0.5 * h)
    m_d = (amplitude * math.sin(phase), amplitude * math.cos(phase))
    u_half = modulation_signal(throttle, m_d, psi_half, params.delay_at(omega))
    y0 = np.concatenate([steady_state(params, throttle), np.zeros(3)])
    traj = integrate(params, y0, h, n_steps, u_half)
    traj_out = traj[::substeps]
    u_out = u_half[:: 2 * substeps]
    t = np.arange(n_out + 1) / fs
    return t, torque_from_states(params, u_out, traj_out)
