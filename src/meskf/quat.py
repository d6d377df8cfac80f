"""Hamilton quaternions, scalar-first, passive body-to-world, on floats.

Attitude errors are body-frame: R = R_hat Exp(dtheta), so an error
composes on the right, q ⊗ Exp(dtheta) (Sola, "Quaternion kinematics
for the error-state Kalman filter", arXiv:1711.02508). ``sensors3d``,
``baseline`` and the sensor synthesis all compose rotations here.

Every function takes any sequence of numbers (a tuple, a list or an
ndarray) and returns plain Python floats: a quaternion (w, x, y, z) or
a vector as a tuple, a matrix as a tuple of row tuples. These are
single-rotation operations in the filters' inner loops, where numpy's
per-call dispatch on a 4-vector costs several times the arithmetic.
Only the ``_many`` functions work on arrays, over stacks of N.
"""

import math

import numpy as np

# An ndarray is read through tolist(): its entries would be numpy scalars,
# which are slower than floats and would make the results numpy scalars.
# The exact type test costs a fraction of isinstance's.
_ndarray = np.ndarray


def normalize(q):
    """q / |q|, first scaled by its largest magnitude where the sum of
    squares is not normal; zero is a ValueError, a NaN or inf gives NaNs."""
    w, x, y, z = q.tolist() if type(q) is _ndarray else q
    s = w * w + x * x + y * y + z * z
    if not 2.2250738585072014e-308 <= s <= 1.7976931348623157e308:
        m = max(abs(w), abs(x), abs(y), abs(z)) if s == s else s  # NaN
        if m == 0.0:
            raise ValueError("quaternion has zero norm")
        w, x, y, z = w / m, x / m, y / m, z / m
        s = w * w + x * x + y * y + z * z
    n = math.sqrt(s)
    return (w / n, x / n, y / n, z / n)


def canonicalize(q):
    """Flip sign so the scalar part is non-negative."""
    w, x, y, z = q.tolist() if type(q) is _ndarray else q
    return (-w, -x, -y, -z) if w < 0 else (w, x, y, z)


def multiply(a, b):
    """Hamilton product a ⊗ b."""
    w1, x1, y1, z1 = a.tolist() if type(a) is _ndarray else a
    w2, x2, y2, z2 = b.tolist() if type(b) is _ndarray else b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def conjugate(q):
    w, x, y, z = q.tolist() if type(q) is _ndarray else q
    return (w, -x, -y, -z)


def from_axis_angle(axis, angle: float):
    ax, ay, az = axis.tolist() if type(axis) is _ndarray else axis
    half = 0.5 * angle
    s = math.sin(half)
    return (math.cos(half), s * ax, s * ay, s * az)


def from_rotvec(v):
    """Exponential map: rotation vector -> quaternion."""
    x, y, z = v.tolist() if type(v) is _ndarray else v
    angle = math.sqrt(x * x + y * y + z * z)
    if angle < 1e-12:
        return normalize((1.0, 0.5 * x, 0.5 * y, 0.5 * z))
    return from_axis_angle((x / angle, y / angle, z / angle), angle)


def to_rotvec(q):
    """Logarithmic map: quaternion -> rotation vector (angle in [0, pi])."""
    w, x, y, z = canonicalize(normalize(q))
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-12:
        return (2.0 * x, 2.0 * y, 2.0 * z)
    k = 2.0 * math.atan2(s, w) / s
    return (x * k, y * k, z * k)


def z_rotation(angle: float):
    return (math.cos(0.5 * angle), 0.0, 0.0, math.sin(0.5 * angle))


def to_matrix(q):
    """Rotation matrix of q / |q|, as three row tuples."""
    w, x, y, z = normalize(q)
    return ((1 - 2 * (y * y + z * z), 2 * (x * y - w * z),
             2 * (x * z + w * y)),
            (2 * (x * y + w * z), 1 - 2 * (x * x + z * z),
             2 * (y * z - w * x)),
            (2 * (x * z - w * y), 2 * (y * z + w * x),
             1 - 2 * (x * x + y * y)))


def to_matrix_many(q: np.ndarray):
    """Rotation matrices of the (N, 4) quaternions q / |q|, as three row
    tuples of (N,) arrays: ``to_matrix``'s arithmetic in its order, so
    row by row its bits."""
    w, x, y, z = q.T
    n = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return ((1 - 2 * (y * y + z * z), 2 * (x * y - w * z),
             2 * (x * z + w * y)),
            (2 * (x * y + w * z), 1 - 2 * (x * x + z * z),
             2 * (y * z - w * x)),
            (2 * (x * z - w * y), 2 * (y * z + w * x),
             1 - 2 * (x * x + y * y)))


def from_matrix(r):
    """Rotation matrix -> canonical unit quaternion (``from_matrix_many``
    on one matrix)."""
    return tuple(from_matrix_many(np.asarray(r, dtype=float)[None])[0]
                 .tolist())


def from_matrix_many(r: np.ndarray) -> np.ndarray:
    """(N, 3, 3) rotation matrices -> (N, 4) canonical unit quaternions.

    Shepperd's method with the numerically largest pivot per matrix.
    """
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    q = np.empty((n, 4))
    tr = r[:, 0, 0] + r[:, 1, 1] + r[:, 2, 2]
    cand = np.stack([tr, r[:, 0, 0], r[:, 1, 1], r[:, 2, 2]], axis=1)
    which = np.argmax(cand, axis=1)
    for case in range(4):
        idx = np.nonzero(which == case)[0]
        if idx.size == 0:
            continue
        m = r[idx]
        if case == 0:
            s = np.sqrt(1.0 + tr[idx]) * 2.0
            q[idx, 0] = 0.25 * s
            q[idx, 1] = (m[:, 2, 1] - m[:, 1, 2]) / s
            q[idx, 2] = (m[:, 0, 2] - m[:, 2, 0]) / s
            q[idx, 3] = (m[:, 1, 0] - m[:, 0, 1]) / s
        else:
            i = case - 1
            j, k = (i + 1) % 3, (i + 2) % 3
            s = np.sqrt(1.0 + m[:, i, i] - m[:, j, j] - m[:, k, k]) * 2.0
            q[idx, 0] = (m[:, k, j] - m[:, j, k]) / s
            q[idx, 1 + i] = 0.25 * s
            q[idx, 1 + j] = (m[:, j, i] + m[:, i, j]) / s
            q[idx, 1 + k] = (m[:, k, i] + m[:, i, k]) / s
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[q[:, 0] < 0] *= -1.0
    return q


def small_angle(q_err):
    """Small-angle vector 2*vec(q) of an error quaternion, sign-safe."""
    w, x, y, z = canonicalize(q_err)
    return (2.0 * x, 2.0 * y, 2.0 * z)


def from_tait_bryan(roll: float, pitch: float, yaw: float):
    """Intrinsic z-y-x (yaw, pitch, roll) Tait-Bryan angles -> quaternion."""
    return multiply(multiply(z_rotation(yaw),
                             from_axis_angle((0.0, 1.0, 0.0), pitch)),
                    from_axis_angle((1.0, 0.0, 0.0), roll))
