"""Constrained full-3D error-state EKF used as the comparison filter.

Tracks position and attitude on SE(3) with a 6-dof error state
(dp, dtheta) and keeps the estimate near the surface with
pseudo-measurements fixing elevation, roll, and pitch at tuned noise
levels. The planar odometry input is lifted to 3-D body velocity
(v, 0) and body rate (0, 0, omega). Pose and range corrections use the
models of ``sensors3d``, which serve both state types; this module
supplies only the 6-dof sensor kinematics that feed them, the
propagation, the pseudo-measurement and the chart map that scores the
estimate. Every Jacobian is analytic, with body-frame attitude errors
R = R_hat Exp(dtheta) (Sola, arXiv:1711.02508).
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import quat
from .core import OdometryInput, RobotExtrinsics, joseph_update
from .errors import DegenerateGeometryError, number_fields
from .sensors3d import (PoseMeasurement, RangeMeasurement, _cross,
                        pose_residual, range_residual)
from .surface import (BSplineSurface, frame_cos_sin, frame_matrix,
                      frame_rates)


@dataclass
class FullPoseState:
    p: np.ndarray            # world position (3,)
    q: np.ndarray            # body-to-world unit quaternion, wxyz
    P: np.ndarray            # 6x6 covariance over (dp, dtheta)

    def __post_init__(self):
        # copies: the state never shares its arrays with the caller
        self.p = np.array(self.p, dtype=float)
        self.q = np.array(quat.normalize(self.q))
        self.P = np.array(self.P, dtype=float)

    @classmethod
    def _adopt(cls, p: np.ndarray, q: np.ndarray,
               P: np.ndarray) -> "FullPoseState":
        """State over float arrays that the filter has just built and
        hands over, q already unit; they need no second, defensive copy
        and no second normalisation."""
        state = cls.__new__(cls)
        state.p, state.q, state.P = p, q, P
        return state


@dataclass
class PseudoMeasurementConfig:
    sigma_z: float = 0.01    # elevation pseudo-noise std, m
    sigma_rp: float = 0.01   # roll/pitch pseudo-noise std, rad

    def __post_init__(self):
        number_fields(self, "pseudo", float, ("sigma_z", "sigma_rp"), gt=0)


def propagate_3d(state: FullPoseState, odom: OdometryInput,
                 dt: float) -> FullPoseState:
    """Lifted planar odometry step with analytic 6x6 error propagation.

    Attitude error is body-frame (local) perturbation: R = R_hat Exp(dtheta).
    With body velocity v = (v_x, v_y, 0) and the turn
    dq = Exp((0, 0, omega dt)), p' = p + R v dt and q' = q ⊗ dq. The
    error Jacobian is F = [[I, A], [0, B]] with A = -R [v]_x dt and
    B = R_z(-omega dt), and the noise enters through
    G = [[-R_2 dt, 0], [0, -dt e_3]], R_2 the first two columns of R.
    P' = F P F^T + G Q G^T, symmetrised.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    q = state.q.tolist()
    R = quat.to_matrix(q)
    vx, vy = odom.v_m
    p_new = [p + (r0 * vx + r1 * vy) * dt
             for p, (r0, r1, _) in zip(state.p.tolist(), R)]
    dq = quat.z_rotation(odom.omega_m * dt)
    q_new = quat.normalize(quat.multiply(q, dq))
    # B = R(dq)^T = [[c, s, 0], [-s, c, 0], [0, 0, 1]]
    c = 1.0 - 2.0 * dq[3] * dq[3]
    s = 2.0 * dq[0] * dq[3]
    # rows of A; G is built without its factor -dt, and Q with its square
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = [
        (r2 * vy * dt, -r2 * vx * dt, (r1 * vx - r0 * vy) * dt)
        for r0, r1, r2 in R]
    (q00, q01), (q10, q11) = odom.sigma_v
    F = np.array([1.0, 0.0, 0.0, a0, a1, a2,
                  0.0, 1.0, 0.0, a3, a4, a5,
                  0.0, 0.0, 1.0, a6, a7, a8,
                  0.0, 0.0, 0.0, c, s, 0.0,
                  0.0, 0.0, 0.0, -s, c, 0.0,
                  0.0, 0.0, 0.0, 0.0, 0.0, 1.0]).reshape(6, 6)
    G = np.array([*R[0][0:2], 0.0, *R[1][0:2], 0.0, *R[2][0:2], 0.0,
                  0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]).reshape(6, 3)
    Q = np.array([q00, q01, 0.0, q10, q11, 0.0, 0.0, 0.0,
                  odom.sigma_omega]).reshape(3, 3) * (dt * dt)
    P = F.dot(state.P).dot(F.T) + G.dot(Q).dot(G.T)
    return FullPoseState._adopt(np.array(p_new), np.array(q_new),
                                0.5 * (P + P.T))


def _correct_3d(state: FullPoseState, innovation: np.ndarray,
                H: np.ndarray, R: np.ndarray) -> FullPoseState:
    """Joseph-form correction of the 6-dof state on the innovation (m,),
    H (m, 6) and R (m, m), all float arrays; the attitude error is
    injected on the right, q ⊗ Exp(dtheta)."""
    dx, P_new = joseph_update(state.P, H, R, innovation)
    d = dx.tolist()
    q_new = quat.normalize(quat.multiply(state.q.tolist(),
                                         quat.from_rotvec(d[3:6])))
    return FullPoseState._adopt(
        np.array([p + dp for p, dp in zip(state.p.tolist(), d)]),
        np.array(q_new), P_new)


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
    return (-a1 * g, a0 * g), (
        (-a1 * h * a0, -g - a1 * h * a1, a1 / r2),
        (g + a0 * h * a0, a0 * h * a1, -a0 / r2))


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _pseudo_residual_jacobian(state: FullPoseState,
                              surface: BSplineSurface):
    """(y0, H) of the elevation + roll/pitch pseudo-measurement.

    H = -dy0/dx on one ``eval_point``: the unit normal n is the third
    column N' of the tangent frame F = [B1' | B2' | N'], and it moves
    with the chart position as F turns, dn/dx_k = F (w_k x e_3) =
    w_k1 B1' - w_k0 B2' with w_k the frame's turn (``frame_rates``).
    a = R^T n moves with the attitude as [a]_x, so that a row d of the
    residual's derivative in a contributes -d [a]_x = a x d to H.
    """
    x, y, pz = state.p.tolist()
    s, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(x, y)
    ca, sa, cb, sb = frame_cos_sin(s_u, s_v)
    (b0, _, n0), (b1, c1, n1), (b2, c2, n2) = frame_matrix(ca, sa, cb, sb)
    (u0, u1, _), (v0, v1, _) = frame_rates(s_u, s_uu, s_uv, s_vv,
                                           ca, sa, cb, sb)
    # n, dn/du and dn/dv, with B1' = (b0, b1, b2) and B2' = (0, c1, c2)
    vecs = ((n0, n1, n2), (u1 * b0, u1 * b1 - u0 * c1, u1 * b2 - u0 * c2),
            (v1 * b0, v1 * b1 - v0 * c1, v1 * b2 - v0 * c2))
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = quat.to_matrix(
        state.q)
    # R^T n, R^T dn/du and R^T dn/dv
    a, a_u, a_v = [(e0 * r00 + e1 * r10 + e2 * r20,
                    e0 * r01 + e1 * r11 + e2 * r21,
                    e0 * r02 + e1 * r12 + e2 * r22) for e0, e1, e2 in vecs]
    (rp0, rp1), D = _align_jacobian(*a)
    rows = [-s_u, -s_v, 1.0, 0.0, 0.0, 0.0]
    for d in D:
        rows += [-_dot(d, a_u), -_dot(d, a_v), 0.0, *_cross(a, d)]
    return (np.array([s - pz, rp0, rp1]),
            np.array(rows).reshape(3, 6))


def pseudo_update(state: FullPoseState, surface: BSplineSurface,
                  config: PseudoMeasurementConfig) -> FullPoseState:
    """Joint elevation + roll/pitch pseudo-measurement.

    Elevation residual S(x, y) - p_z; roll/pitch residual is the
    small-rotation vector aligning the body z-axis with the surface
    normal, heading untouched. Its Jacobian is analytic.
    """
    y0, H = _pseudo_residual_jacobian(state, surface)
    vz, vrp = config.sigma_z ** 2, config.sigma_rp ** 2
    R = np.array([vz, 0.0, 0.0, 0.0, vrp, 0.0, 0.0, 0.0, vrp]).reshape(3, 3)
    return _correct_3d(state, y0, H, R)


def _sensor_model_3d(state: FullPoseState, ext: RobotExtrinsics):
    """Sensor kinematics of the 6-dof state for ``sensors3d``'s models.

    Returns (p, J, q, W) as plain floats: the sensor position
    p + R r_RS, its Jacobian [I, -R [r_RS]_x] in (dp, dtheta) as rows,
    where a row w of R gives the row -w [r_RS]_x = r_RS x w, the sensor
    orientation q ⊗ q_RS, and the six sensor-frame rates: none from the
    position, R_RS^T e_k from the attitude error dtheta_k.
    """
    R = quat.to_matrix(state.q)
    r = ext.r_RS
    p = [x + _dot(row, r) for x, row in zip(state.p.tolist(), R)]
    J = [[*e, *_cross(r, row)]
         for e, row in zip(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                            (0.0, 0.0, 1.0)), R)]
    rates = [(0.0, 0.0, 0.0)] * 3 + list(quat.to_matrix(ext.q_RS))
    return p, J, quat.multiply(state.q, ext.q_RS), rates


def pose_update_3d(state: FullPoseState, extrinsics: RobotExtrinsics,
                   meas: PoseMeasurement) -> FullPoseState:
    """Loosely-coupled pose update on ``sensors3d.pose_residual``."""
    y0, H = pose_residual(*_sensor_model_3d(state, extrinsics), meas)
    return _correct_3d(state, y0, H, meas.P_m)


def range_update_3d(state: FullPoseState, extrinsics: RobotExtrinsics,
                    meas: RangeMeasurement) -> FullPoseState:
    """Tightly-coupled range update on ``sensors3d.range_residual``."""
    p, J, _, _ = _sensor_model_3d(state, extrinsics)
    innovation, h = range_residual(p, J, meas)
    return _correct_3d(state, np.array([innovation]), np.array([h]),
                       np.array([[meas.R_d]]))


# What the chart map reads of a 6-dof state, one row per state: x, y,
# the quaternion, and the entries of P on the rows and columns
# (dp_x, dp_y, dtheta_y, dtheta_z) that its Jacobian reads, row by row.
_CHART_P = np.array([6 * i + j for i in (0, 1, 4, 5) for j in (0, 1, 4, 5)])
CHART_ROW = 6 + len(_CHART_P)
# Rows that the chart map takes at a time: its temporaries, some 40
# columns, then hold ~100 KB for a trial of any length, where a 60 s
# trial's 1201 rows at once raised a campaign's peak RSS by ~0.3 MB.
_CHART_BLOCK = 256


def chart_row(state: FullPoseState, surface: BSplineSurface,
              row: np.ndarray):
    """Store what ``chart_errors`` reads of ``state`` into ``row``, of
    ``CHART_ROW`` floats, and return the chart position (x, y) as floats.

    The map reads the surface under the position, so a position off the
    chart raises OutOfChartError here, as ``eval_point`` would there,
    and nothing is stored.
    """
    x, y, _ = state.p.tolist()
    surface._check_box(x, x, y, y)
    row[0:2] = state.p[0:2]
    row[2:6] = state.q
    row[6:] = state.P.take(_CHART_P)
    return x, y


def _frame_terms(surface: BSplineSurface, x: list, y: list):
    """Per chart point, S's first and second derivatives and the frame
    angles' cos/sin: five and four floats, one point after another."""
    for u, v in zip(x, y):
        _, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(u, v)
        yield s_u, s_v, s_uu, s_uv, s_vv
        yield frame_cos_sin(s_u, s_v)


def chart_errors(rows: np.ndarray, surface: BSplineSurface):
    """Map 3-D pose estimates to (chart position, heading) for comparison.

    ``rows`` holds one state per row, as ``chart_row`` stores it; one
    state is a batch of one. Returns the (N, 3) chart positions and
    headings and their (N, 3, 3) covariances.

    Heading gamma = atan2(c_1, c_0) with c = F^T R e_1, the body x-axis
    in the tangent frame F. The covariance is pushed through the map by
    its analytic Jacobian, so all filters are scored in the same space:
    F turns with the chart position by w_k (``frame_rates``), so
    dc/dx_k = c x w_k, and the attitude error moves c by
    -F^T R [e_1]_x dtheta.
    The Jacobian's rows are e_1, e_2 and one heading row j that is zero
    in p_z and dtheta_x, so J P J^T is written out on those entries.

    ``eval_point``, ``frame_cos_sin`` and the heading's ``math.atan2``
    run per state, on floats: numpy's SIMD ``power`` and ``arctan2`` may
    differ from libm in the last bit. Everything else runs on columns,
    in the order of the float arithmetic, so each row has the bits that
    the map of that one state on floats gives. The columns are taken
    ``_CHART_BLOCK`` rows at a time.
    """
    n = len(rows)
    x, P_eval = np.empty((n, 3)), np.empty((n, 9))
    for lo in range(0, n, _CHART_BLOCK):
        block = slice(lo, lo + _CHART_BLOCK)
        x[block], P_eval[block] = _chart_block(rows[block], surface)
    return x, P_eval.reshape(n, 3, 3)


def _chart_block(rows: np.ndarray, surface: BSplineSurface):
    """``chart_errors`` on a block of rows, as (n, 3) and (n, 9) arrays."""
    n = len(rows)
    cols = rows.T
    x, y = cols[0:2]
    terms = np.fromiter(chain.from_iterable(
        _frame_terms(surface, x.tolist(), y.tolist())), float, 9 * n)
    s_u, s_v, s_uu, s_uv, s_vv, ca, sa, cb, sb = terms.reshape(n, 9).T
    # M = F^T R from the rows f_i of F^T and the body axes, R's columns
    f0, f1, f2 = zip(*frame_matrix(ca, sa, cb, sb))
    bx, by, bz = zip(*quat.to_matrix_many(rows[:, 2:6]))
    c0, c1, c2 = _dot(f0, bx), _dot(f1, bx), _dot(f2, bx)
    m01, m02 = _dot(f0, by), _dot(f0, bz)
    m11, m12 = _dot(f1, by), _dot(f1, bz)
    inv = 1.0 / (c0 * c0 + c1 * c1)
    (u0, u1, u2), (v0, v1, v2) = frame_rates(s_u, s_uu, s_uv, s_vv,
                                             ca, sa, cb, sb)
    j0 = (c0 * (c2 * u0 - c0 * u2) - c1 * (c1 * u2 - c2 * u1)) * inv
    j1 = (c0 * (c2 * v0 - c0 * v2) - c1 * (c1 * v2 - c2 * v1)) * inv
    # attitude columns: dc/dtheta = (0, -M e_3, M e_2)
    j4 = (c1 * m02 - c0 * m12) * inv
    j5 = (c0 * m11 - c1 * m01) * inv
    # P j on the rows that J reads, each row P_i0, P_i1, P_i4, P_i5
    P = cols[6:].reshape(4, 4, n)
    a0, a1, a4, a5 = [p0 * j0 + p1 * j1 + p4 * j4 + p5 * j5
                      for p0, p1, p4, p5 in P]
    jpj = j0 * a0 + j1 * a1 + j4 * a4 + j5 * a5
    heading = np.fromiter(map(math.atan2, c1.tolist(), c0.tolist()),
                          float, n)
    (p00, p01, _, _), (_, p11, _, _) = P[0:2]
    return (np.stack([x, y, heading], axis=1),
            np.stack([p00, p01, a0, p01, p11, a1, a0, a1, jpj], axis=1))
