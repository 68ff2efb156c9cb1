"""Minimal quaternion helpers (scalar-first convention, [w, x, y, z]).

Unit quaternions map body-frame vectors into the world frame via
``rotate(q, v_body) -> v_world``. Nothing here is vectorized over
batches; the simulator works one state at a time.

The arithmetic runs on Python floats in the operation order of the
numpy array form, so results are the same to the bit. Three numpy calls
stay because they need not round like their Python counterparts: the
3-element dot inside ``norm`` (numpy's sum order), and np.sin, np.cos and
np.arctan2 (numpy's own transcendental loops need not round like libm).
``norm`` is ``sqrt(v·v)``, which is exactly what np.linalg.norm computes
for a 1-D vector. Apart from ``rotate``, which returns an array, the
helpers return tuples of floats; inputs may be arrays or sequences.
"""

from __future__ import annotations

import math

import numpy as np


def components(a):
    """Python floats of a small vector given as an array or a sequence.

    Scalar arithmetic on these is several times cheaper than on numpy
    scalars and gives the same IEEE results.
    """
    if isinstance(a, np.ndarray):
        return a.astype(float, copy=False).tolist()
    return [float(c) for c in a]


def floats(a):
    """Python floats of a vector or matrix: an array converts once; a
    (nested) sequence, such as the rows VehicleParams and SplmParams
    unpack once or the simulator's float state, is used as it is and
    must already hold floats. The cheap form of components for values
    that are floats on the hot path and may be arrays elsewhere."""
    return a.tolist() if isinstance(a, np.ndarray) else a


def norm(v) -> float:
    """Euclidean norm of a vector, rounded as np.linalg.norm rounds it."""
    a = np.array(v, dtype=float)
    return math.sqrt(a.dot(a))


def conjugate(q) -> tuple:
    w, x, y, z = components(q)
    return (w, -x, -y, -z)


def multiply(a, b) -> tuple:
    """Hamilton product a*b."""
    w1, x1, y1, z1 = components(a)
    w2, x2, y2, z2 = components(b)
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def rotate_floats(q, v) -> tuple:
    """rotate on Python floats: q and v are sequences of floats (numpy
    scalars give the same result, only slower); returns a tuple."""
    w, x, y, z = q
    vx, vy, vz = v
    # q * [0, v] * conj(q), expanded
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def rotate(q, v) -> np.ndarray:
    """Rotate vector v by unit quaternion q (body -> world for attitude quats).

    q and v may be arrays or sequences; the result is an array.
    """
    return np.array(rotate_floats(components(q), components(v)))


def from_axis_angle(axis, angle: float) -> tuple:
    ax, ay, az = components(axis)
    n = norm((ax, ay, az))
    if n == 0.0:
        return (1.0, 0.0, 0.0, 0.0)
    half = 0.5 * angle
    s = float(np.sin(half)) / n
    return (float(np.cos(half)), ax * s, ay * s, az * s)


def error_rotation_vector(q, q_sp) -> tuple:
    """Body-frame rotation vector taking attitude q to setpoint q_sp.

    Always the shortest rotation: the sign of the quaternion error is
    canonicalized before converting to a rotation vector.
    """
    w, x, y, z = multiply(conjugate(q), q_sp)
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = norm((x, y, z))
    if s < 1e-12:
        return (2.0 * x, 2.0 * y, 2.0 * z)  # small-angle limit
    k = 2.0 * float(np.arctan2(s, w)) / s
    return (x * k, y * k, z * k)
