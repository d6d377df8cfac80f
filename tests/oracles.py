"""Reference implementations that the tests compare the package with.

``chart_map`` is the C-ESEKF's chart map of one 6-dof state on floats:
the batched scoring map ``baseline.chart_errors`` must have its bits.

``reference_step`` is one slow textbook filter event in numpy matrices,
on the chart state (u, v, gamma) of the M-ESEKF and MP-ESEKF and the
6-dof state (p, q) of the C-ESEKF. F, G and every H are central
differences of the package's nominal propagation (``core.propagate``,
``baseline.propagate_3d``) and measurement predictions (``predict_pose``,
the pseudo-measurement's residual, and the 6-dof sensor pose and the
rotation residual written with scipy's ``Rotation``);
the MP-ESEKF's projections come from the package, with its fallback.
Every update is K = P H^T (H P H^T + R)^-1 and
P' = (I - K H) P (I - K H)^T + K R K^T.
"""
import math

import numpy as np
from scipy.spatial.transform import Rotation

from meskf import baseline, core, projection, quat
from meskf.baseline import CHART_ROW, FullPoseState, chart_row
from meskf.core import FilterState, OdometryInput
from meskf.errors import (DegenerateGeometryError, DegenerateSamplingError,
                          NoIntersectionError, NumericalFailureError)
from meskf.sensors3d import predict_pose
from meskf.surface import frame_cos_sin, frame_matrix, frame_rates


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def chart_map(state, surface):
    """The C-ESEKF's chart map of one 6-dof state, on floats: (chart
    position, heading) as a (3,) array and their 3x3 covariance.

    The reference for ``baseline.chart_errors``, which maps a batch of
    states on columns: heading gamma = atan2(c_1, c_0) with c = F^T R e_1,
    and the covariance J P J^T by the map's analytic Jacobian J, whose
    rows are e_1, e_2 and one heading row j that is zero in p_z and
    dtheta_x.
    """
    x, y = state.p.tolist()[0:2]
    _, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(x, y)
    ca, sa, cb, sb = frame_cos_sin(s_u, s_v)
    f0, f1, f2 = zip(*frame_matrix(ca, sa, cb, sb))
    bx, by, bz = zip(*quat.to_matrix(state.q))
    c0, c1, c2 = _dot(f0, bx), _dot(f1, bx), _dot(f2, bx)
    m01, m02 = _dot(f0, by), _dot(f0, bz)
    m11, m12 = _dot(f1, by), _dot(f1, bz)
    inv = 1.0 / (c0 * c0 + c1 * c1)
    (u0, u1, u2), (v0, v1, v2) = frame_rates(s_u, s_uu, s_uv, s_vv,
                                             ca, sa, cb, sb)
    j0 = (c0 * (c2 * u0 - c0 * u2) - c1 * (c1 * u2 - c2 * u1)) * inv
    j1 = (c0 * (c2 * v0 - c0 * v2) - c1 * (c1 * v2 - c2 * v1)) * inv
    j4 = (c1 * m02 - c0 * m12) * inv
    j5 = (c0 * m11 - c1 * m01) * inv
    P = state.P.tolist()
    a0, a1, a4, a5 = [P[i][0] * j0 + P[i][1] * j1 + P[i][4] * j4
                      + P[i][5] * j5 for i in (0, 1, 4, 5)]
    jpj = j0 * a0 + j1 * a1 + j4 * a4 + j5 * a5
    P_eval = np.array([P[0][0], P[0][1], a0,
                       P[0][1], P[1][1], a1,
                       a0, a1, jpj]).reshape(3, 3)
    return np.array([x, y, math.atan2(c1, c0)]), P_eval


def chart_rows(states, surface):
    """The rows that ``chart_errors`` maps, one per state."""
    rows = np.empty((len(states), CHART_ROW))
    for state, row in zip(states, rows):
        chart_row(state, surface, row)
    return rows


# the central differences' step in every error and input coordinate (m,
# rad, m/s, rad/s): a power of two, so that x +- STEP is exact
STEP = 2.0 ** -14
# what makes the MP-ESEKF's range fall back to the 3-D range update
FALLBACK = (NoIntersectionError, DegenerateSamplingError,
            DegenerateGeometryError, NumericalFailureError)


def _rotation(q):
    return Rotation.from_quat(q, scalar_first=True)


def plus(state, d, P=None):
    """``state`` moved by the error d, (du, dv, dgamma) or (dp, dtheta)
    with q (x) Exp(dtheta), and given the covariance P if there is one."""
    if isinstance(state, FullPoseState):
        q = _rotation(state.q) * Rotation.from_rotvec(d[3:6])
        return FullPoseState(state.p + d[0:3], q.as_quat(scalar_first=True),
                             state.P if P is None else P)
    return FilterState((state.u + d[0], state.v + d[1]), state.gamma_R + d[2],
                       state.P_x if P is None else P)


def minus(a, b):
    """The error that moves the state b to a."""
    if isinstance(a, FullPoseState):
        turn = _rotation(b.q).inv() * _rotation(a.q)
        return np.concatenate([a.p - b.p, turn.as_rotvec()])
    return np.array([a.u - b.u, a.v - b.v,
                     math.remainder(a.gamma_R - b.gamma_R, 2 * math.pi)])


def covariance(state):
    return state.P if isinstance(state, FullPoseState) else state.P_x


def floats(state):
    """Every float of a state, its position first."""
    if isinstance(state, FullPoseState):
        return np.concatenate([state.p, state.q, state.P.ravel()])
    return np.array([state.u, state.v, state.gamma_R, *state.P_upper])


def _jacobian(f, n):
    """Columns (f(STEP e_k) - f(-STEP e_k)) / (2 STEP), k < n, of a
    vector function f of an n-vector."""
    cols = []
    for k in range(n):
        d = np.zeros(n)
        d[k] = STEP
        cols.append((f(d) - f(-d)) / (2.0 * STEP))
    return np.column_stack(cols)


def _propagate(filt, state, odom):
    """P' = F P F^T + G Q G^T about the package's nominal step: F over
    the state's error, G over the odometry's velocity and rate, whose
    per-sample noise covariance is Q."""
    def mean(s, o):
        if isinstance(s, FullPoseState):
            return baseline.propagate_3d(s, o, filt.dt)
        return core.propagate(filt.surface, s, o, filt.dt)

    m, P, (vx, vy) = mean(state, odom), covariance(state), odom.v_m
    F = _jacobian(lambda d: minus(mean(plus(state, d), odom), m), len(P))
    G = _jacobian(lambda d: minus(mean(state, OdometryInput(
        (vx + d[0], vy + d[1]), odom.omega_m + d[2], odom.sigma_v,
        odom.sigma_omega)), m), 3)
    Q = np.diag([0.0, 0.0, odom.sigma_omega])
    Q[0:2, 0:2] = odom.sigma_v
    return (plus(m, np.zeros(len(P)), F @ P @ F.T + G @ Q @ G.T),
            {"P": P, "F": F, "G": G, "Q": Q})


def _update(state, residual, R):
    """The Kalman update on the residual y = z - h(x), a function of the
    state, with the noise covariance R, and H = dh/dx = -dy/dx."""
    y = residual(state)
    P = covariance(state)
    H = -_jacobian(lambda d: residual(plus(state, d)), len(P))
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    I_KH = np.eye(len(P)) - K @ H
    P_new = I_KH @ P @ I_KH.T + K @ R @ K.T
    return (plus(state, K @ y, P_new),
            {"P": P, "H": H, "R": R, "y": y, "K": K, "S": S})


def reference_step(filt, event, state, meas=None):
    """One event of ``run_trial`` with the filter ``filt``, from the
    package's state before it: (state after, its linearization's matrices
    and, for a correction, under ``"event"`` the one applied).

    ``event`` is ``"propagate"`` (``meas`` the odometry sample) or a
    correction label of the filter; the MP-ESEKF's pose event is
    ``"projected_position"``, then ``"orientation"`` from the state between
    them. Its ``"projected_range"`` falls back to the 3-D ``"range"`` where
    ``project_range`` refuses it.
    """
    surface, ext = filt.surface, filt.extrinsics
    if event == "propagate":
        return _propagate(filt, state, meas)
    if event == "projected_range":
        try:
            proj = projection.project_range(surface, meas.z_d, meas.R_d,
                                            meas.r_A, ext, state,
                                            filt.sampling)
        except FALLBACK:
            event = "range"
        else:
            R = [[proj.R_dU]]
    elif event == "projected_position":
        proj = projection.project_position(surface, meas.z_p,
                                           meas.P_m[0:3, 0:3], ext, state)
        R = proj.P_t
    if event == "range":
        R = [[meas.R_d]]
    elif event == "pseudo":
        vz, vrp = filt.pseudo.sigma_z ** 2, filt.pseudo.sigma_rp ** 2
        R = np.diag([vz, vrp, vrp])
    elif event in ("pose", "orientation"):
        R = meas.P_m if event == "pose" else meas.P_m[3:6, 3:6]

    def sensor(s):
        # world position and orientation; of a 6-dof state p + R r_RS and
        # q (x) q_RS
        if isinstance(s, FilterState):
            return predict_pose(surface, s, ext)
        body = _rotation(s.q)
        return (s.p + body.apply(ext.r_RS),
                (body * _rotation(ext.q_RS)).as_quat(scalar_first=True))

    def residual(s):
        """The event's y = z - h(x) at the state s."""
        if event == "pseudo":
            return baseline._pseudo_residual_jacobian(s, surface)[0]
        if event == "projected_position":
            return np.subtract(proj.z_t, (s.u, s.v))
        if event == "projected_range":
            return np.array([proj.z_dU - math.dist(proj.t_A_prime,
                                                   (s.u, s.v))])
        if event == "range":
            return np.array([meas.z_d
                             - np.linalg.norm(sensor(s)[0] - meas.r_A)])
        # 2 vec(q_e), q_e = q^-1 z_q with a non-negative scalar part
        q_e = _rotation(sensor(s)[1]).inv() * _rotation(meas.z_q)
        rotation = q_e.as_quat(canonical=True)[0:3] * 2.0
        if event == "orientation":
            return rotation
        return np.concatenate([np.subtract(meas.z_p, sensor(s)[0]), rotation])

    new, matrices = _update(state, residual, np.array(R))
    return new, {**matrices, "event": event}
