"""The three filters, one object each, and their registry ``FILTERS``.

A filter holds only its configuration, so one object serves every trial
of a campaign. ``start`` offsets the true chart pose by the stds of
``InitialUncertainty`` times a trial's six standard-normal draws; a
filter with a ``periodic_label`` applies ``correct_periodic`` after every
propagation step; ``*_label`` names each correction in timings.

Scoring is in two parts. At every step ``record`` stores the
``row_width`` floats that scoring reads of a state into that step's row
and returns the chart position; once the trial ends, one ``score`` call
maps all its rows to the scoring space (chart position, heading, their
covariance).
"""

from dataclasses import dataclass

import numpy as np

from . import baseline as bl
from . import projection as prj
from . import quat
from . import sensors3d as s3d
from .core import FilterState, RobotExtrinsics, propagate
from .errors import (DegenerateGeometryError, DegenerateSamplingError,
                     NoIntersectionError, NumericalFailureError, number_fields)
from .surface import BSplineSurface


@dataclass
class InitialUncertainty:
    """Standard deviations used to seed the initial estimate and P0."""
    pos_std: float = 0.05     # chart position, m
    head_std: float = 0.02    # heading, rad
    z_std: float = 0.05       # baseline elevation, m
    rp_std: float = 0.02      # baseline roll/pitch, rad

    def __post_init__(self):
        # a zero std makes P0 singular, and with it every NEES
        number_fields(self, "init", float,
                      ("pos_std", "head_std", "z_std", "rp_std"), gt=0)


@dataclass
class MESEKF:
    """Chart-space ESEKF with the analytic 3-D pose and range updates."""
    surface: BSplineSurface
    dt: float
    extrinsics: RobotExtrinsics
    pose_label, range_label, periodic_label = "pose", "range", None
    row_width = 12            # u, v, gamma and P_x, row by row

    def start(self, t, gamma, init: InitialUncertainty, noise):
        u, v = t.tolist()
        n0, n1, n2 = noise[0:3].tolist()
        pos, head = init.pos_std ** 2, init.head_std ** 2
        return FilterState.from_floats(
            u + init.pos_std * n0, v + init.pos_std * n1,
            gamma + init.head_std * n2, (pos, 0.0, 0.0, pos, 0.0, head))

    def propagate(self, state, odom):
        return propagate(self.surface, state, odom, self.dt)

    def correct_pose(self, state, meas):
        return s3d.pose_update(state, self.surface, self.extrinsics, meas)

    def correct_range(self, state, meas):
        return s3d.range_update(state, self.surface, self.extrinsics, meas)

    def record(self, state, row):
        u, v = state.u, state.v
        p00, p01, p02, p11, p12, p22 = state.P_upper
        row[:] = (u, v, state.gamma_R,
                  p00, p01, p02, p01, p11, p12, p02, p12, p22)
        return u, v

    def score(self, rows):
        return rows[:, 0:2], rows[:, 2], rows[:, 3:].reshape(-1, 3, 3)


@dataclass
class MPESEKF(MESEKF):
    """The M-ESEKF with chart-projected corrections. A range with no
    projection (no shell points, degenerate samples or geometry, an
    anchor whose closest point does not converge) falls back to the
    M-ESEKF's 3-D range update, under the same label."""
    sampling: prj.SamplingConfig
    pose_label, range_label = "projected_position", "projected_range"

    def correct_pose(self, state, meas):
        p = prj.project_position(self.surface, meas.z_p, meas.P_m[0:3, 0:3],
                                 self.extrinsics, state)
        state = prj.projected_position_update(state, p)
        return s3d.orientation_update(state, self.surface, self.extrinsics,
                                      meas)

    def correct_range(self, state, meas):
        try:
            pr = prj.project_range(self.surface, meas.z_d, meas.R_d,
                                   meas.r_A, self.extrinsics, state,
                                   self.sampling)
            return prj.projected_range_update(state, pr)
        except (NoIntersectionError, DegenerateSamplingError,
                DegenerateGeometryError, NumericalFailureError):
            return super().correct_range(state, meas)


class CESEKF:
    """Constrained 6-dof ESEKF: 3-D position and attitude, held to the
    surface by a pseudo-measurement after every propagation step."""
    pose_label, range_label, periodic_label = "pose", "range", "pseudo"
    row_width = bl.CHART_ROW

    def __init__(self, surface, dt, extrinsics, pseudo):
        self.surface, self.dt, self.extrinsics = surface, dt, extrinsics
        self.pseudo = pseudo

    def start(self, t, gamma, init: InitialUncertainty, noise):
        p0, q_true = s3d.predict_pose(
            self.surface, FilterState(t, gamma, np.eye(3)),
            RobotExtrinsics.identity())
        n = noise.tolist()
        p0 = p0 + np.array([init.pos_std * n[0], init.pos_std * n[1],
                            init.z_std * n[3]])
        dq = quat.from_rotvec((init.rp_std * n[4], init.rp_std * n[5],
                               init.head_std * n[2]))
        P0 = np.diag([init.pos_std ** 2, init.pos_std ** 2, init.z_std ** 2,
                      init.rp_std ** 2, init.rp_std ** 2,
                      init.head_std ** 2])
        return bl.FullPoseState(p0, quat.multiply(q_true, dq), P0)

    def propagate(self, state, odom):
        return bl.propagate_3d(state, odom, self.dt)

    def correct_pose(self, state, meas):
        return bl.pose_update_3d(state, self.extrinsics, meas)

    def correct_range(self, state, meas):
        return bl.range_update_3d(state, self.extrinsics, meas)

    def correct_periodic(self, state):
        return bl.pseudo_update(state, self.surface, self.pseudo)

    def record(self, state, row):
        return bl.chart_row(state, self.surface, row)

    def score(self, rows):
        x, P_eval = bl.chart_errors(rows, self.surface)
        return x[:, 0:2], x[:, 2], P_eval


FILTERS = {"M-ESEKF": MESEKF, "MP-ESEKF": MPESEKF, "C-ESEKF": CESEKF}
FILTER_KINDS = tuple(FILTERS)


def make_filter(kind: str, surface, dt, extrinsics, sampling, pseudo):
    """The filter ``kind`` of ``FILTERS``, given the tuning it takes:
    ``sampling`` for the MP-ESEKF, ``pseudo`` for the C-ESEKF."""
    tuning = {"MP-ESEKF": (sampling,), "C-ESEKF": (pseudo,)}.get(kind, ())
    return FILTERS[kind](surface, dt, extrinsics, *tuning)
