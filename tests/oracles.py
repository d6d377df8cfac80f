"""Reference implementations that the package's faster paths must match
bit for bit."""
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from meskf import core, quat, sensors3d
from meskf.baseline import CHART_ROW, chart_row
from meskf.core import wrap_angle
from meskf.errors import SingularUpdateError
from meskf.surface import (frame_angle_derivatives, frame_cos_sin,
                           frame_matrix, frame_rates)


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


# The M-ESEKF's step on arrays: a state of numpy arrays, its propagation,
# its correction and the one-row Joseph update, as the package had them
# before ``core.FilterState`` held its floats. The float step must have
# their bits.


@dataclass
class ArrayState:
    t_R: np.ndarray          # chart position (2,), m
    gamma_R: float           # heading, rad, wrapped to (-pi, pi]
    P_x: np.ndarray          # 3x3 error covariance

    def __post_init__(self):
        # copies: the state never shares its arrays with the caller
        self.t_R = np.array(self.t_R, dtype=float)
        self.gamma_R = wrap_angle(float(self.gamma_R))
        self.P_x = np.array(self.P_x, dtype=float)

    @classmethod
    def _adopt(cls, t_R: np.ndarray, gamma_R: float,
               P_x: np.ndarray) -> "ArrayState":
        """State over float arrays that the filter has just built and
        hands over; they need no second, defensive copy."""
        state = cls.__new__(cls)
        state.t_R, state.P_x = t_R, P_x
        state.gamma_R = wrap_angle(float(gamma_R))
        return state


def _motion_model(surface, state, odom, dt):
    u, v = state.t_R.tolist()
    g = float(state.gamma_R)
    _, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(u, v)
    ca, sa, cb, sb = frame_cos_sin(s_u, s_v)
    c, s = math.cos(g), math.sin(g)
    vx, vy = odom.v_m
    wx, wy = c * vx - s * vy, s * vx + c * vy          # R_z(gamma) v_m
    t10 = sa * sb
    (da_u, db_u), (da_v, db_v) = frame_angle_derivatives(
        s_u, s_uu, s_uv, s_vv, ca, sa, cb)
    # dT = [[-sin b db, 0], [cos a sin b da + sin a cos b db, -sin a da]]
    F = (1.0 - dt * sb * db_u * wx, -dt * sb * db_v * wx, -dt * cb * wy,
         dt * ((ca * sb * da_u + sa * cb * db_u) * wx - sa * da_u * wy),
         1.0 + dt * ((ca * sb * da_v + sa * cb * db_v) * wx
                     - sa * da_v * wy),
         dt * (ca * wx - t10 * wy))
    # G: minus T R_z(gamma) dt on the velocity noise
    G = (-dt * cb * c, dt * cb * s,
         -dt * (t10 * c + ca * s), dt * (t10 * s - ca * c))
    disp = (dt * cb * wx, dt * (t10 * wx + ca * wy))
    return disp, F, G, (cb, 0.0, t10, ca)


def propagate(surface, state, odom, dt):
    if dt <= 0:
        raise ValueError("dt must be positive")
    (du, dv), (f00, f01, f02, f10, f11, f12), (g00, g01, g10, g11), _ = \
        _motion_model(surface, state, odom, dt)
    u, v = state.t_R.tolist()
    u, v = u + du, v + dv
    surface._check_box(u, u, v, v)
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P_x.tolist()
    (q00, q01), (_, q11) = odom.sigma_v
    # rows of F P, then of G_v Q_v; noise covariances are per-sample and
    # G already carries dt
    a00 = f00 * p00 + f01 * p01 + f02 * p02
    a01 = f00 * p01 + f01 * p11 + f02 * p12
    a02 = f00 * p02 + f01 * p12 + f02 * p22
    a10 = f10 * p00 + f11 * p01 + f12 * p02
    a11 = f10 * p01 + f11 * p11 + f12 * p12
    a12 = f10 * p02 + f11 * p12 + f12 * p22
    b00, b01 = g00 * q00 + g01 * q01, g00 * q01 + g01 * q11
    b10, b11 = g10 * q00 + g11 * q01, g10 * q01 + g11 * q11
    n00 = a00 * f00 + a01 * f01 + a02 * f02 + b00 * g00 + b01 * g01
    n01 = a00 * f10 + a01 * f11 + a02 * f12 + b00 * g10 + b01 * g11
    n11 = a10 * f10 + a11 * f11 + a12 * f12 + b10 * g10 + b11 * g11
    n22 = p22 + dt * dt * odom.sigma_omega
    P = np.array([n00, n01, a02, n01, n11, a12, a02, a12, n22]).reshape(3, 3)
    return ArrayState._adopt(np.array([u, v]),
                             state.gamma_R + odom.omega_m * dt, P)


def correct(state, innovation, H, R):
    dx, P_new = joseph_update(state.P_x, H, R, innovation)
    u, v = state.t_R.tolist()
    du, dv, dg = dx.tolist()
    return ArrayState._adopt(np.array([u + du, v + dv]),
                             state.gamma_R + dg, P_new)


def joseph_update(P, H, R, innovation):
    """The one-row update below for one row on three states, otherwise
    ``core.joseph_update``, whose numpy path is unchanged."""
    if H.shape[0] == 1 and P.shape[0] == 3:
        return _joseph_row3(P, H, R, innovation)
    return core.joseph_update(P, H, R, innovation)


def _joseph_row3(P, H, R, innovation):
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = P.tolist()
    h0, h1, h2 = H[0].tolist()
    a0 = p00 * h0 + p01 * h1 + p02 * h2
    a1 = p01 * h0 + p11 * h1 + p12 * h2
    a2 = p02 * h0 + p12 * h1 + p22 * h2
    s = h0 * a0 + h1 * a1 + h2 * a2 + float(R[0, 0])
    if not 0.0 < s < math.inf:
        raise SingularUpdateError("innovation variance is not positive "
                                  "and finite")
    k0, k1, k2 = a0 / s, a1 / s, a2 / s
    y = float(innovation[0])
    n00 = p00 - 2.0 * k0 * a0 + s * k0 * k0
    n01 = p01 - (k0 * a1 + a0 * k1) + s * k0 * k1
    n02 = p02 - (k0 * a2 + a0 * k2) + s * k0 * k2
    n11 = p11 - 2.0 * k1 * a1 + s * k1 * k1
    n12 = p12 - (k1 * a2 + a1 * k2) + s * k1 * k2
    n22 = p22 - 2.0 * k2 * a2 + s * k2 * k2
    return (np.array([k0 * y, k1 * y, k2 * y]),
            np.array([n00, n01, n02, n01, n11, n12,
                      n02, n12, n22]).reshape(3, 3))


def _sensor_model(surface, state, ext, rotation=True):
    """``sensors3d._sensor_model`` at an array state, which it reads as
    the floats u, v and gamma_R (as they are: a second wrap of the
    heading may move its last bit)."""
    u, v = state.t_R.tolist()
    return sensors3d._sensor_model(
        surface, SimpleNamespace(u=u, v=v, gamma_R=state.gamma_R), ext,
        rotation)


def pose_update(state, surface, extrinsics, meas):
    y0, H = sensors3d.pose_residual(
        *_sensor_model(surface, state, extrinsics), meas)
    return correct(state, y0, H, meas.P_m)


def range_update(state, surface, extrinsics, meas):
    p, J, _, _ = _sensor_model(surface, state, extrinsics, rotation=False)
    innovation, h = sensors3d.range_residual(p, J, meas)
    return correct(state, np.array([innovation]), np.array([h]),
                   np.array([[meas.R_d]]))
