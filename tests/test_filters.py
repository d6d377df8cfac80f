"""The filter objects: the MP-ESEKF's range fallback and what it reads of
P_m, the registry, and the library's independence from ``meskf.sim``."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meskf
from meskf import (CESEKF, FILTER_KINDS, FILTERS, MESEKF, MPESEKF,
                   DegenerateGeometryError,
                   DegenerateSamplingError, NoIntersectionError,
                   NumericalFailureError, PoseMeasurement,
                   PseudoMeasurementConfig, RangeMeasurement,
                   RobotExtrinsics, SamplingConfig, make_filter,
                   predict_pose, predict_range, project_range,
                   projected_range_update, quat, range_update)
from meskf import projection

LEVER = RobotExtrinsics([0.1, -0.05, 0.2], [1.0, 0.0, 0.0, 0.0])
ANCHOR = np.array([6.0, 2.0, 1.5])


def assert_same_state(a, b):
    np.testing.assert_array_equal(a.t_R, b.t_R)
    assert a.gamma_R == b.gamma_R
    np.testing.assert_array_equal(a.P_x, b.P_x)


def range_meas(surface, state, offset=0.01):
    d = predict_range(surface, state, LEVER, ANCHOR) + offset
    return RangeMeasurement(ANCHOR, d, 0.05 ** 2)


@pytest.mark.parametrize("error", [NoIntersectionError,
                                   DegenerateSamplingError,
                                   DegenerateGeometryError,
                                   NumericalFailureError])
def test_mp_range_falls_back_to_3d_update(curved, state, monkeypatch,
                                          error):
    def no_projection(*args):
        raise error("no projection")

    monkeypatch.setattr(projection, "project_range", no_projection)
    meas = range_meas(curved, state)
    mp = MPESEKF(curved, 0.05, LEVER, SamplingConfig())
    assert_same_state(mp.correct_range(state, meas),
                      range_update(state, curved, LEVER, meas))


def test_mp_range_is_projected_when_it_can_be(curved, state):
    sampling = SamplingConfig()
    meas = range_meas(curved, state)
    pr = project_range(curved, meas.z_d, meas.R_d, meas.r_A, LEVER, state,
                       sampling)
    mp = MPESEKF(curved, 0.05, LEVER, sampling)
    assert_same_state(mp.correct_range(state, meas),
                      projected_range_update(state, pr))


def test_mp_pose_reads_only_the_diagonal_blocks_of_P_m(curved, state):
    # the M-ESEKF updates on the whole 6x6 P_m; the MP-ESEKF projects the
    # position with P_m[0:3, 0:3] and updates the orientation with
    # P_m[3:6, 3:6], so a position-rotation cross block moves only the
    # M-ESEKF's update
    p, q = predict_pose(curved, state, LEVER)
    z_q = quat.multiply(q, quat.from_rotvec((0.01, -0.02, 0.015)))
    P_m = np.diag([1e-3] * 3 + [1e-4] * 3)
    crossed = P_m.copy()
    crossed[0:3, 3:6] = [[1e-4, 5e-5, 0.0], [0.0, 1e-4, 3e-5],
                         [2e-5, 0.0, 1e-4]]
    crossed[3:6, 0:3] = crossed[0:3, 3:6].T
    assert np.linalg.eigvalsh(crossed)[0] > 0.0
    z_p = p + (0.02, -0.01, 0.03)
    plain, cross = (PoseMeasurement(z_p, z_q, P) for P in (P_m, crossed))
    mp = MPESEKF(curved, 0.05, LEVER, SamplingConfig())
    assert_same_state(mp.correct_pose(state, plain),
                      mp.correct_pose(state, cross))
    m = MESEKF(curved, 0.05, LEVER)
    a, b = m.correct_pose(state, plain), m.correct_pose(state, cross)
    assert not np.array_equal(a.t_R, b.t_R)
    assert not np.array_equal(a.P_x, b.P_x)


def test_registry_builds_each_kind_with_its_tuning(curved):
    sampling, pseudo = SamplingConfig(), PseudoMeasurementConfig()
    assert FILTER_KINDS == tuple(FILTERS) == ("M-ESEKF", "MP-ESEKF",
                                              "C-ESEKF")
    filters = [make_filter(kind, curved, 0.05, LEVER, sampling, pseudo)
               for kind in FILTER_KINDS]
    assert [type(f) for f in filters] == [MESEKF, MPESEKF, CESEKF]
    assert filters[1].sampling is sampling and filters[2].pseudo is pseudo


_LIBRARY_ONLY = """
import sys
import numpy as np
import meskf
surface = meskf.flat_surface(extent=10.0)
ext = meskf.RobotExtrinsics.identity()
odom = meskf.OdometryInput([1.0, 0.0], 0.1, np.eye(2) * 1e-4, 1e-6)
pose = meskf.PoseMeasurement([0.05, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                             np.eye(6) * 1e-3)
rng = meskf.RangeMeasurement([5.0, 1.0, 0.5], 5.0, 0.01)
for kind in meskf.FILTER_KINDS:
    f = meskf.make_filter(kind, surface, 0.05, ext, meskf.SamplingConfig(),
                          meskf.PseudoMeasurementConfig())
    st = f.start(np.zeros(2), 0.0, meskf.InitialUncertainty(), np.zeros(6))
    st = f.correct_range(f.correct_pose(f.propagate(st, odom), pose), rng)
    rows = np.zeros((1, f.row_width))
    f.record(st, rows[0])
    t, gamma, P = f.score(rows)
    assert np.all(np.isfinite(t)) and np.all(np.isfinite(P)), kind
loaded = sorted(m for m in sys.modules if m.startswith("meskf.sim"))
assert not loaded, loaded
"""


def test_filters_run_without_the_simulator():
    # the filters are library objects: building and driving each one
    # imports nothing of meskf.sim
    src = str(Path(meskf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _LIBRARY_ONLY],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
