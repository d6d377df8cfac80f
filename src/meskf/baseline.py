"""Constrained full-3D error-state EKF used as the comparison filter.

Tracks position and attitude on SE(3) with a 6-dof error state
(dp, dtheta) and keeps the estimate near the surface with
pseudo-measurements fixing elevation, roll, and pitch at tuned noise
levels. The planar odometry input is lifted to 3-D body velocity
(v, 0) and body rate (0, 0, omega). Every Jacobian is analytic, with
body-frame attitude errors R = R_hat Exp(dtheta) (Sola, arXiv:1711.02508).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quat
from .core import OdometryInput, RobotExtrinsics, joseph_update
from .errors import DegenerateGeometryError, SingularUpdateError
from .sensors3d import PoseMeasurement, RangeMeasurement
from .surface import (BSplineSurface, frame_angle_derivatives,
                      frame_cos_sin, frame_matrix)


def _skew(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


@dataclass
class FullPoseState:
    p: np.ndarray            # world position (3,)
    q: np.ndarray            # body-to-world unit quaternion, wxyz
    P: np.ndarray            # 6x6 covariance over (dp, dtheta)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float).copy()
        self.q = quat.normalize(self.q)
        self.P = np.asarray(self.P, dtype=float).copy()

    def copy(self) -> "FullPoseState":
        return FullPoseState(self.p, self.q, self.P)


@dataclass
class PseudoMeasurementConfig:
    sigma_z: float = 0.01    # elevation pseudo-noise std, m
    sigma_rp: float = 0.01   # roll/pitch pseudo-noise std, rad
    rate: float = 20.0       # application frequency, Hz

    def __post_init__(self):
        if self.sigma_z <= 0 or self.sigma_rp <= 0 or self.rate <= 0:
            raise ValueError("pseudo-measurement parameters must be > 0")


def propagate_3d(state: FullPoseState, odom: OdometryInput,
                 dt: float) -> FullPoseState:
    """Lifted planar odometry step with analytic 6x6 error propagation.

    Attitude error is body-frame (local) perturbation: R = R_hat Exp(dtheta).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    R = quat.to_matrix(state.q)
    v = np.array([odom.v_m[0], odom.v_m[1], 0.0])
    w = np.array([0.0, 0.0, odom.omega_m])
    p_new = state.p + R @ v * dt
    q_new = quat.normalize(quat.multiply(state.q, quat.from_rotvec(w * dt)))

    F = np.eye(6)
    F[0:3, 3:6] = -R @ _skew(v) * dt
    F[3:6, 3:6] = quat.to_matrix(quat.from_rotvec(-w * dt))
    G = np.zeros((6, 3))
    G[0:3, 0:2] = -R[:, 0:2] * dt
    G[3:6, 2] = np.array([0.0, 0.0, -dt])
    Q = np.zeros((3, 3))
    Q[0:2, 0:2] = odom.sigma_v
    Q[2, 2] = odom.sigma_omega
    P = F @ state.P @ F.T + G @ Q @ G.T
    return FullPoseState(p_new, q_new, 0.5 * (P + P.T))


def _correct_3d(state: FullPoseState, innovation, H, R) -> FullPoseState:
    innovation = np.atleast_1d(np.asarray(innovation, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    ok, dx, P_new = joseph_update(state.P, H, R, innovation)
    if not ok:
        raise SingularUpdateError("innovation covariance is singular")
    q_new = quat.normalize(quat.multiply(state.q, quat.from_rotvec(dx[3:6])))
    return FullPoseState(state.p + dx[0:3], q_new, P_new)


def _align_jacobian(a0, a1, a2):
    """Roll/pitch residual (-a1, a0) atan2(s, a2) / s, s = |(a0, a1)|,
    and its 2x3 derivative in a = R^T n, as rows.

    The residual is the x/y part of the body-frame rotation vector that
    turns the body z-axis onto the normal. It is smooth at s = 0 when
    a2 > 0, where g = atan2(s, a2) / s and dg/ds use their series.
    """
    s2 = a0 * a0 + a1 * a1
    s = math.sqrt(s2)
    r2 = s2 + a2 * a2
    if s < 1e-4 and a2 > 0.0:
        t2 = s2 / (a2 * a2)
        g = (1.0 - t2 / 3.0 + 0.2 * t2 * t2) / a2
        h = (-2.0 / 3.0 + 0.8 * t2) / (a2 * a2 * a2)
    elif s < 1e-12:
        raise DegenerateGeometryError("body z-axis opposite the normal")
    else:
        theta = math.atan2(s, a2)
        g = theta / s
        h = (a2 * s / r2 - theta) / (s2 * s)
    # dg/da_i = h a_i for i = 0, 1 and dg/da2 = -1 / r2
    return (-a1 * g, a0 * g), np.array(
        [[-a1 * h * a0, -g - a1 * h * a1, a1 / r2],
         [g + a0 * h * a0, a0 * h * a1, -a0 / r2]])


def _pseudo_residual_jacobian(state: FullPoseState,
                              surface: BSplineSurface):
    """(y0, H) of the elevation + roll/pitch pseudo-measurement.

    H = -dy0/dx on one ``eval_point``: the unit normal n = m / |m|,
    m = (-S_u, -S_v, 1), moves with the chart position as dn =
    (I - n n^T) dm / |m|, and a = R^T n with the attitude as [a]_x.
    """
    x, y, pz = state.p.tolist()
    s, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(x, y)
    k = 1.0 / math.sqrt(1.0 + s_u * s_u + s_v * s_v)
    n0, n1, n2 = -s_u * k, -s_v * k, k
    vecs = [(n0, n1, n2)]
    for m0, m1 in ((-s_uu, -s_uv), (-s_uv, -s_vv)):     # dm/du, dm/dv
        nm = n0 * m0 + n1 * m1
        vecs.append((k * (m0 - n0 * nm), k * (m1 - n1 * nm), -k * n2 * nm))
    A = np.dot(vecs, quat.to_matrix(state.q))   # rows a, da/du, da/dv
    rp, D = _align_jacobian(*A[0].tolist())
    H = np.zeros((3, 6))
    H[0, 0:3] = (-s_u, -s_v, 1.0)
    H[1:3, 0:2] = -D.dot(A[1:3].T)
    H[1:3, 3:6] = -D.dot(_skew(A[0]))
    return np.array([s - pz, rp[0], rp[1]]), H


def pseudo_update(state: FullPoseState, surface: BSplineSurface,
                  config: PseudoMeasurementConfig) -> FullPoseState:
    """Joint elevation + roll/pitch pseudo-measurement.

    Elevation residual S(x, y) - p_z; roll/pitch residual is the
    small-rotation vector aligning the body z-axis with the surface
    normal, heading untouched. Its Jacobian is analytic.
    """
    y0, H = _pseudo_residual_jacobian(state, surface)
    R = np.diag([config.sigma_z ** 2,
                 config.sigma_rp ** 2, config.sigma_rp ** 2])
    return _correct_3d(state, y0, H, R)


def _sensor_pose(state: FullPoseState, ext: RobotExtrinsics):
    R = quat.to_matrix(state.q)
    pos = state.p + R @ ext.r_RS
    q = quat.canonicalize(quat.multiply(state.q, ext.q_RS))
    return pos, q


def pose_update_3d(state: FullPoseState, extrinsics: RobotExtrinsics,
                   meas: PoseMeasurement) -> FullPoseState:
    """Standard loosely-coupled pose update with analytic Jacobian."""
    pos, q_pred = _sensor_pose(state, extrinsics)
    rot_res = quat.small_angle(
        quat.multiply(quat.conjugate(q_pred), meas.z_q))
    y = np.concatenate([meas.z_p - pos, rot_res])
    R_wb = quat.to_matrix(state.q)
    R_bs = quat.to_matrix(extrinsics.q_RS)
    H = np.zeros((6, 6))
    H[0:3, 0:3] = np.eye(3)
    H[0:3, 3:6] = -R_wb @ _skew(extrinsics.r_RS)
    H[3:6, 3:6] = R_bs.T
    return _correct_3d(state, y, H, meas.P_m)


def range_update_3d(state: FullPoseState, extrinsics: RobotExtrinsics,
                    meas: RangeMeasurement) -> FullPoseState:
    """Standard tightly-coupled range update with analytic Jacobian."""
    R = quat.to_matrix(state.q)
    pos = state.p + R @ extrinsics.r_RS
    d = pos - meas.r_A
    dist = np.linalg.norm(d)
    if dist < 1e-6:
        raise DegenerateGeometryError("anchor coincides with sensor")
    u = d / dist
    H = np.zeros((1, 6))
    H[0, 0:3] = u
    H[0, 3:6] = -u @ R @ _skew(extrinsics.r_RS)
    return _correct_3d(state, np.array([meas.z_d - dist]), H,
                       np.array([[meas.R_d]]))


def chart_errors(state: FullPoseState, surface: BSplineSurface):
    """Map a 3-D pose estimate to (chart position, heading) for comparison.

    Heading gamma = atan2(c_1, c_0) with c = F^T R e_1, the body x-axis
    in the tangent frame F. The covariance is pushed through the map by
    its analytic Jacobian, so all filters are scored in the same space:
    F turns with the chart position at the frame-angle rates w, so
    dc = c x w, and the attitude error moves c by -F^T R [e_1]_x dtheta.
    """
    x, y = state.p.tolist()[0:2]
    _, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(x, y)
    ca, sa, cb, sb = frame_cos_sin(s_u, s_v)
    M = np.transpose(frame_matrix(ca, sa, cb, sb)).dot(
        quat.to_matrix(state.q))
    (c0, m01, m02), (c1, m11, m12), (c2, _, _) = M.tolist()
    inv = 1.0 / (c0 * c0 + c1 * c1)
    row = []
    for da, db in frame_angle_derivatives(s_u, s_uu, s_uv, s_vv,
                                          ca, sa, cb):
        w0, w1, w2 = cb * da, db, sb * da
        row.append((c0 * (c2 * w0 - c0 * w2) - c1 * (c1 * w2 - c2 * w1))
                   * inv)
    # attitude columns: dc/dtheta = (0, -M e_3, M e_2)
    row += [0.0, 0.0, (c1 * m02 - c0 * m12) * inv,
            (c0 * m11 - c1 * m01) * inv]
    J = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], row])
    P_eval = J.dot(state.P).dot(J.T)
    x0 = np.array([x, y, math.atan2(c1, c0)])
    return x0, 0.5 * (P_eval + P_eval.T)
