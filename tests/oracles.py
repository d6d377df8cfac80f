"""Reference implementations that the package's faster paths must match
bit for bit."""
import math

import numpy as np

from meskf import quat
from meskf.baseline import CHART_ROW, chart_row
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
