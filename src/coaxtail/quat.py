"""Minimal quaternion helpers (scalar-first convention, [w, x, y, z]).

Unit quaternions map body-frame vectors into the world frame via
``rotate(q, v_body) -> v_world``. Nothing here is vectorized over
batches; the simulator works one state at a time.

Vectors and quaternions are tuples of Python floats: the helpers unpack
their inputs (``w, x, y, z = q``) and return tuples. An array or a list
works as an input too; numpy scalars round the same, only more slowly.
The arithmetic runs in the operation order of the numpy array form, so
results are the same to the bit.

``dot`` and ``norm`` sum left to right from +0.0: ``dot(a, b)`` is
``((0.0 + a0*b0) + a1*b1) + a2*b2`` and ``norm(v)`` is the ``math.sqrt``
of that sum of squares. That is what np.dot and np.linalg.norm return
under OpenBLAS's Haswell kernel, but not under every BLAS kernel (the
SkylakeX one chains fused multiply-adds), so the results here do not
depend on which kernel a machine's BLAS picks. Sines, cosines and
arctangents are libm's, through the math module: numpy's np.arctan2
rounds differently on some inputs at its AVX-512 level, so the results
here do not depend on numpy's dispatch level either. They do depend on
the libm variant glibc picks by CPU. Nothing here imports numpy.
"""

from __future__ import annotations

import math


def dot(a, b) -> float:
    """Dot product of two 3-vectors, summed left to right from +0.0."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return 0.0 + a0 * b0 + a1 * b1 + a2 * b2


def norm(v) -> float:
    """Euclidean norm of a 3-vector: the square root of its sum of
    squares, summed left to right from +0.0."""
    x, y, z = v
    return math.sqrt(0.0 + x * x + y * y + z * z)


def conjugate(q) -> tuple:
    w, x, y, z = q
    return (w, -x, -y, -z)


def multiply(a, b) -> tuple:
    """Hamilton product a*b."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def rotate(q, v) -> tuple:
    """Rotate vector v by unit quaternion q (body -> world for attitude quats)."""
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


def from_axis_angle(axis, angle: float) -> tuple:
    ax, ay, az = axis
    n = norm(axis)
    if n == 0.0:
        return (1.0, 0.0, 0.0, 0.0)
    half = 0.5 * angle
    s = math.sin(half) / n
    return (math.cos(half), ax * s, ay * s, az * s)


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
    k = 2.0 * math.atan2(s, w) / s
    return (x * k, y * k, z * k)
