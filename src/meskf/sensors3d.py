"""Pose and range measurement models in world coordinates.

The one loosely-coupled pose (position + quaternion) model and the one
tightly-coupled range model of every filter. ``pose_residual`` and
``range_residual`` take the sensor kinematics: the world position p,
its Jacobian J in the n error-state columns, the world-from-sensor
orientation q and the n body-frame rates of the sensor, d q / d x_k =
q ⊗ (0, w_k) / 2 (Sola, "Quaternion kinematics for the error-state
Kalman filter", arXiv:1711.02508). ``_sensor_model`` gives them for the
chart state (dt_R, dgamma_R), n = 3, in closed form from one
single-point surface evaluation (S, its gradient and its Hessian): the
frame angles alpha = arctan(S_v) and beta = -arctan(S_u cos alpha) are
differentiated through the Hessian (``surface.frame_rates``).
``baseline._sensor_model_3d`` gives them for the 6-dof state, n = 6.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quat
from .core import (FilterState, RobotExtrinsics, correct, correct_row,
                   correct_rows)
from .errors import DegenerateGeometryError
from .surface import (BSplineSurface, frame_cos_sin, frame_matrix,
                      frame_rates)


def _require_finite(values, field):
    """A ValueError naming ``field`` unless every float of ``values`` is
    finite. An ordering check alone lets a NaN through: every comparison
    with it is False."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{field} must be finite, not {values!r}")


@dataclass
class PoseMeasurement:
    """A measured sensor pose: z_p and z_q must be finite, z_q non-zero.
    P_m is not checked here; a non-finite one is refused where it is
    used, by the check of the update's innovation covariance or of the
    projection's P_M, and the trial ends as diverged."""
    z_p: tuple               # measured position (3,), m, any sequence
    z_q: tuple               # measured orientation, wxyz unit quaternion
    P_m: np.ndarray          # 6x6 covariance, (position, small-angle rot)

    def __post_init__(self):
        _require_finite(self.z_p, "PoseMeasurement.z_p")
        self.z_q = quat.normalize(self.z_q)
        _require_finite(self.z_q, "PoseMeasurement.z_q")
        self.P_m = np.asarray(self.P_m, dtype=float)


@dataclass
class RangeMeasurement:
    r_A: tuple               # anchor position in world (3,), m, any sequence
    z_d: float               # measured distance, m
    R_d: float               # range variance, m^2

    def __post_init__(self):
        _require_finite(self.r_A, "RangeMeasurement.r_A")
        if not 0.0 <= self.z_d < math.inf:
            raise ValueError("RangeMeasurement.z_d must be finite and "
                             f"non-negative, not {self.z_d!r}")
        if not 0.0 < self.R_d < math.inf:
            raise ValueError("RangeMeasurement.R_d must be finite and "
                             f"positive, not {self.R_d!r}")


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _sensor_model(surface: BSplineSurface, state: FilterState,
                  ext: RobotExtrinsics, rotation: bool = True,
                  lift: bool | None = True):
    """Sensor position and its error-state Jacobian at one state.

    Returns (p, J, q, W) as plain floats: p the world position (3,), J
    its 3x3 Jacobian as rows, q the world-from-sensor quaternion
    q_x(alpha) ⊗ q_y(beta) ⊗ q_z(gamma) ⊗ q_RS, and W the sensor-frame
    rotation rates per unit change of (u, v, gamma), three 3-vectors.
    q and W are None unless ``rotation`` is set; with ``lift`` False, p
    and J are the lever arm R_WR r_RS's alone, and None with ``lift`` None.
    """
    u, v, g = state.u, state.v, state.gamma_R
    s, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(u, v)
    ca, sa, cb, sb = frame_cos_sin(s_u, s_v)
    cg, sg = math.cos(g), math.sin(g)
    r = ext.r_RS
    lever = lift is not None and r != (0.0, 0.0, 0.0)
    c = 1.0 if lift else 0.0          # the chart lift (u, v, S) or none
    J = [[c, 0.0, 0.0], [0.0, c, 0.0], [c * s_u, c * s_v, 0.0]]
    p = [c * u, c * v, c * s]
    if lever or rotation:
        # robot-frame rotation rates: the frame's turn, seen through
        # R_z(gamma)
        (u0, u1, u2), (v0, v1, v2) = frame_rates(s_u, s_uu, s_uv, s_vv,
                                                 ca, sa, cb, sb)
        rates = [(cg * u0 + sg * u1, cg * u1 - sg * u0, u2),
                 (cg * v0 + sg * v1, cg * v1 - sg * v0, v2),
                 (0.0, 0.0, 1.0)]
    if lever:
        (f00, _, f02), (f10, f11, f12), (f20, f21, f22) = frame_matrix(
            ca, sa, cb, sb)
        R = ((f00 * cg, -f00 * sg, f02),
             (f10 * cg + f11 * sg, f11 * cg - f10 * sg, f12),
             (f20 * cg + f21 * sg, f21 * cg - f20 * sg, f22))
        for i in range(3):
            p[i] += R[i][0] * r[0] + R[i][1] * r[1] + R[i][2] * r[2]
        # d(R_WR r)/dx_k = R_WR (w_k x r)
        for k in range(3):
            c = _cross(rates[k], r)
            for i in range(3):
                J[i][k] += R[i][0] * c[0] + R[i][1] * c[1] + R[i][2] * c[2]
    if not rotation:
        return p, J, None, None

    # q_x(alpha) ⊗ q_y(beta) written out, as frame_matrix writes out
    # R_x(alpha) R_y(beta), from the half-angle cos/sin (alpha and beta
    # lie in (-pi/2, pi/2)). A product of unit quaternions, q is unit up
    # to rounding, which is all its users need.
    ha = math.sqrt(0.5 * (1.0 + ca))
    hb = math.sqrt(0.5 * (1.0 + cb))
    xa, yb = 0.5 * sa / ha, 0.5 * sb / hb
    q = quat.multiply((ha * hb, xa * hb, ha * yb, xa * yb),
                      quat.z_rotation(g))
    q_rs = ext.q_RS
    if q_rs != (1.0, 0.0, 0.0, 0.0):
        q = quat.multiply(q, q_rs)
        # sensor-frame rates R_RS^T w = w0 R_RS[0] + w1 R_RS[1] + w2 R_RS[2]
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = quat.to_matrix(
            q_rs)
        rates = [(r00 * w0 + r10 * w1 + r20 * w2,
                  r01 * w0 + r11 * w1 + r21 * w2,
                  r02 * w0 + r12 * w1 + r22 * w2) for w0, w1, w2 in rates]
    return (None, None, q, rates) if lift is None else (p, J, q, rates)


def predict_pose(surface: BSplineSurface, state: FilterState,
                 extrinsics: RobotExtrinsics):
    """Predicted sensor position and orientation in the world frame."""
    p, _, q, _ = _sensor_model(surface, state, extrinsics)
    return np.array(p), np.array(quat.canonicalize(q))


def pose_residual(p, J, q, rates, meas: PoseMeasurement):
    """(y0, H) of the six-row pose model from the sensor kinematics.

    p, J, q and rates are those of ``_sensor_model``, or of any state
    with n error-state columns: J as three rows of n and n body-frame
    rates. y0 = [z_p - p; 2 vec(q_e)] with the error quaternion
    q_e = q* ⊗ z_q sign-flipped to a non-negative scalar part, and
    H = -dy0/dx. A body-frame rate w_k moves the residual by
    d vec(q_e) = -(0, w_k) ⊗ q_e / 2, so the rotation rows of column k
    are w_e w_k + w_k x vec(q_e) (``_rotation_rows``).
    """
    y_rot, H_rot = _rotation_rows(q, rates, meas.z_q)
    zp = meas.z_p
    y0 = np.array([zp[0] - p[0], zp[1] - p[1], zp[2] - p[2], *y_rot])
    # built flat: np.array on nested lists costs twice as much
    H = np.array(J[0] + J[1] + J[2]
                 + [h for row in H_rot for h in row]).reshape(6, -1)
    return y0, H


def _rotation_rows(q, rates, z_q):
    """The three rotation rows of ``pose_residual`` on floats: the
    residual 2 vec(q_e) and the rows of H, each over the n rates."""
    ew, ex, ey, ez = quat.canonicalize(
        quat.multiply(quat.conjugate(q), z_q))
    # column k of the rotation rows, for the rate w_k
    cols = [(ew * w0 + (w1 * ez - w2 * ey), ew * w1 + (w2 * ex - w0 * ez),
             ew * w2 + (w0 * ey - w1 * ex)) for w0, w1, w2 in rates]
    return (2.0 * ex, 2.0 * ey, 2.0 * ez), list(zip(*cols))


def pose_update(state: FilterState, surface: BSplineSurface,
                extrinsics: RobotExtrinsics,
                meas: PoseMeasurement) -> FilterState:
    """Six-row pose correction with analytic Jacobian."""
    y0, H = pose_residual(*_sensor_model(surface, state, extrinsics), meas)
    return correct(state, y0, H, meas.P_m)


def predict_range(surface: BSplineSurface, state: FilterState,
                  extrinsics: RobotExtrinsics, anchor: np.ndarray) -> float:
    p, _, _, _ = _sensor_model(surface, state, extrinsics, rotation=False)
    return math.dist(p, anchor)


def range_residual(p, J, meas: RangeMeasurement):
    """(innovation, h) of the range model on floats, from the sensor
    position p and its Jacobian J, three rows of n error-state columns:
    h is the one row of H, n floats.

    d = ||p - r_A|| and h = (p - r_A)^T J / d. Raises
    DegenerateGeometryError when the anchor sits at the sensor.
    """
    a = meas.r_A
    diff = (p[0] - a[0], p[1] - a[1], p[2] - a[2])
    d0 = math.dist(p, a)
    if d0 < 1e-6:
        raise DegenerateGeometryError("anchor coincides with sensor")
    h = [(diff[0] * j0 + diff[1] * j1 + diff[2] * j2) / d0
         for j0, j1, j2 in zip(*J)]
    return meas.z_d - d0, h


def range_update(state: FilterState, surface: BSplineSurface,
                 extrinsics: RobotExtrinsics,
                 meas: RangeMeasurement) -> FilterState:
    """Scalar range correction with analytic Jacobian."""
    p, J, _, _ = _sensor_model(surface, state, extrinsics, rotation=False)
    innovation, h = range_residual(p, J, meas)
    return correct_row(state, innovation, *h, meas.R_d)


def orientation_update(state: FilterState, surface: BSplineSurface,
                       extrinsics: RobotExtrinsics,
                       meas: PoseMeasurement) -> FilterState:
    """Rotation-only correction using the quaternion part of a pose.

    Used by the chart-projected filter variant, which replaces the
    position rows with projected chart measurements but still needs the
    orientation rows to keep the heading observable. Three rows on
    floats, through ``core.correct_rows``, with no lever-arm terms.
    """
    _, _, q, rates = _sensor_model(surface, state, extrinsics, lift=None)
    y, H = _rotation_rows(q, rates, meas.z_q)
    return correct_rows(state, y, H, meas.P_m[3:6, 3:6].tolist())
