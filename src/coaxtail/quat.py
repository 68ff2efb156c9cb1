"""Minimal quaternion helpers (scalar-first convention, [w, x, y, z]).

Unit quaternions map body-frame vectors into the world frame via
``rotate(q, v_body) -> v_world``. Nothing here is vectorized over
batches; the simulator works one state at a time.
"""

from __future__ import annotations

import numpy as np


def conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by unit quaternion q (body -> world for attitude quats).

    Scalar arithmetic on Python floats; q and v may be arrays or sequences.
    """
    w, x, y, z = components(q)
    vx, vy, vz = components(v)
    # q * [0, v] * conj(q), expanded
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return np.array([
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    ])


def components(a):
    """Python floats of a small vector given as an array or a sequence.

    Scalar arithmetic on these is several times cheaper than on numpy
    scalars and gives the same IEEE results.
    """
    if isinstance(a, np.ndarray):
        return a.astype(float, copy=False).tolist()
    return [float(c) for c in a]


def from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    half = 0.5 * angle
    s = np.sin(half) / n
    return np.array([np.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def error_rotation_vector(q: np.ndarray, q_sp: np.ndarray) -> np.ndarray:
    """Body-frame rotation vector taking attitude q to setpoint q_sp.

    Always the shortest rotation: the sign of the quaternion error is
    canonicalized before converting to a rotation vector.
    """
    qe = multiply(conjugate(q), q_sp)
    if qe[0] < 0.0:
        qe = -qe
    vec = qe[1:4]
    s = np.linalg.norm(vec)
    if s < 1e-12:
        return 2.0 * vec  # small-angle limit
    angle = 2.0 * np.arctan2(s, qe[0])
    return vec * (angle / s)
