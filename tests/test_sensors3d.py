"""3-D pose/range measurement models for the chart-space filter."""
import numpy as np
import pytest

from meskf import (DegenerateGeometryError, FilterState, PoseMeasurement,
                   RangeMeasurement, RobotExtrinsics, pose_update,
                   predict_pose, predict_range, range_update)
from meskf import quat, sensors3d
from meskf.sensors3d import (_sensor_model, orientation_update,
                             pose_residual, range_residual)

from conftest import make_random_surface

IDENT = RobotExtrinsics.identity()
# lever arm plus a sensor rotation away from the identity
EXT = RobotExtrinsics(np.array([0.2, -0.1, 0.05]),
                      quat.from_rotvec(np.array([0.05, 0.02, -0.6])))


def pose_y0_H(s, surface, ext, meas):
    return pose_residual(*_sensor_model(surface, s, ext), meas)


def range_y0_H(s, surface, ext, meas):
    y, h = range_residual(*_sensor_model(surface, s, ext)[0:2], meas)
    return np.array([y]), np.array([h])


def pose_meas(pos, q, std_p=0.05, std_r=0.01):
    P = np.diag([std_p ** 2] * 3 + [std_r ** 2] * 3)
    return PoseMeasurement(np.asarray(pos, dtype=float), q, P)


def test_predict_pose_flat(flat):
    s = FilterState(np.array([2.0, -1.0]), 0.8, np.eye(3))
    pos, q = predict_pose(flat, s, IDENT)
    np.testing.assert_allclose(pos, [2.0, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(quat.canonicalize(q), quat.z_rotation(0.8),
                               atol=1e-12)


def test_predict_pose_lever_arm_flat(flat):
    r_RS = np.array([0.3, 0.1, 0.2])
    ext = RobotExtrinsics(r_RS, quat.z_rotation(0.0))
    g = 0.6
    s = FilterState(np.array([1.0, 1.0]), g, np.eye(3))
    pos, _ = predict_pose(flat, s, ext)
    Rz = quat.to_matrix(quat.z_rotation(g))
    np.testing.assert_allclose(pos, np.array([1.0, 1.0, 0.0]) + Rz @ r_RS,
                               atol=1e-12)


@pytest.mark.parametrize("ext", [
    IDENT, RobotExtrinsics([-0.0, 0.0, 0.0], [1, 0, 0, 0]),
    RobotExtrinsics(np.zeros(3), np.array([2.0, 0.0, 0.0, 0.0]))],
    ids=["identity", "signed-zero", "scaled"])
def test_identity_extrinsics_skip_lever_and_rotation_terms(curved, ext,
                                                           monkeypatch):
    # no lever arm builds no frame matrix for R_WR r_RS, and no sensor
    # rotation builds no R_RS; the extrinsics' float tuples must compare
    # equal to the zero lever and the identity quaternion
    def refuse(*args):
        raise AssertionError("built a term that the extrinsics skip")

    monkeypatch.setattr(sensors3d, "frame_matrix", refuse)
    monkeypatch.setattr(quat, "to_matrix", refuse)
    s = FilterState(np.array([1.0, -2.0]), 0.4, np.eye(3))
    for rotation in (True, False):
        p = _sensor_model(curved, s, ext, rotation)[0]
        np.testing.assert_array_equal(p, curved.chart_to_world(s.t_R))


def test_predict_pose_on_curved_surface(curved):
    s = FilterState(np.array([1.5, -2.0]), 0.0, np.eye(3))
    pos, q = predict_pose(curved, s, IDENT)
    np.testing.assert_allclose(pos[2], curved.eval_point(*s.t_R)[0],
                               atol=1e-12)
    R = quat.to_matrix(q)
    np.testing.assert_allclose(R, curved.tangent_frame(s.t_R), atol=1e-9)


def test_pose_jacobian_flat_analytic(flat):
    # flat, no extrinsics: position block is the identity on the chart,
    # heading row picks up the z rotation error
    s = FilterState(np.array([0.5, 0.5]), 0.3, np.eye(3) * 0.01)
    pos, q = predict_pose(flat, s, IDENT)
    meas = pose_meas(pos, q)
    y0, H = pose_y0_H(s, flat, IDENT, meas)
    np.testing.assert_allclose(y0, np.zeros(6), atol=1e-9)
    np.testing.assert_allclose(H[0:2, 0:2], np.eye(2), atol=1e-5)
    np.testing.assert_allclose(H[0:3, 2], np.zeros(3), atol=1e-5)
    np.testing.assert_allclose(H[5, 2], 1.0, atol=1e-5)
    np.testing.assert_allclose(H[3:5, :], np.zeros((2, 3)), atol=1e-5)


def test_pose_jacobian_matches_residual_differences(curved):
    # directional FD check of H against the actual residual function
    rng = np.random.default_rng(21)
    ext = RobotExtrinsics(np.array([0.2, -0.1, 0.05]),
                          quat.from_rotvec(np.array([0.05, 0.02, -0.6])))
    for _ in range(10):
        t = rng.uniform(-5, 5, size=2)
        g = rng.uniform(-np.pi, np.pi)
        s = FilterState(t, g, np.eye(3) * 0.01)
        pos, q = predict_pose(curved, s, ext)
        meas = pose_meas(pos + rng.normal(0, 0.02, 3),
                         quat.canonicalize(quat.multiply(
                             q, quat.from_rotvec(rng.normal(0, 0.01, 3)))))
        y0, H = pose_y0_H(s, curved, ext, meas)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        h = 1e-5
        sp = FilterState(t + h * d[0:2], g + h * d[2], s.P_x)
        yp, _ = pose_y0_H(sp, curved, ext, meas)
        np.testing.assert_allclose((y0 - yp) / h, H @ d, atol=5e-4)


def central_difference_jacobian(residual, s, h=1e-6):
    """-dy/dx of a residual function of the state, by central differences."""
    cols = []
    for k in range(3):
        d = np.zeros(3)
        d[k] = h
        yp = residual(FilterState(s.t_R + d[0:2], s.gamma_R + d[2], s.P_x))
        ym = residual(FilterState(s.t_R - d[0:2], s.gamma_R - d[2], s.P_x))
        cols.append(-(yp - ym) / (2 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_pose_jacobian_matches_central_differences(degree):
    surface = make_random_surface(300 + degree, degree=degree,
                                  amplitude=0.8)
    rng = np.random.default_rng(degree)
    for _ in range(10):
        s = FilterState(rng.uniform(-8, 8, size=2),
                        rng.uniform(-np.pi, np.pi), np.eye(3) * 0.01)
        pos, q = predict_pose(surface, s, EXT)
        meas = pose_meas(pos + rng.normal(0, 0.02, 3),
                         quat.multiply(
                             q, quat.from_rotvec(rng.normal(0, 0.05, 3))))
        _, H = pose_y0_H(s, surface, EXT, meas)
        H_fd = central_difference_jacobian(
            lambda x: pose_y0_H(x, surface, EXT, meas)[0], s)
        np.testing.assert_allclose(H, H_fd, atol=1e-7)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_range_jacobian_matches_central_differences(degree):
    surface = make_random_surface(400 + degree, degree=degree,
                                  amplitude=0.8)
    rng = np.random.default_rng(degree)
    for _ in range(10):
        s = FilterState(rng.uniform(-8, 8, size=2),
                        rng.uniform(-np.pi, np.pi), np.eye(3) * 0.01)
        meas = RangeMeasurement(rng.uniform(-9, 9, size=3), 4.0, 1e-4)
        _, H = range_y0_H(s, surface, EXT, meas)
        H_fd = central_difference_jacobian(
            lambda x: range_y0_H(x, surface, EXT, meas)[0], s)
        np.testing.assert_allclose(H, H_fd, atol=1e-7)


def test_pose_update_zero_noise_converges(curved):
    truth = FilterState(np.array([1.0, -1.0]), 0.4, np.eye(3))
    pos, q = predict_pose(curved, truth, IDENT)
    meas = pose_meas(pos, q, std_p=0.01, std_r=0.01)
    s = FilterState(truth.t_R + [0.05, -0.04], truth.gamma_R + 0.03,
                    np.eye(3) * 0.01)
    for _ in range(20):
        s = pose_update(s, curved, IDENT, meas)
        s = FilterState(s.t_R, s.gamma_R, np.eye(3) * 0.01)  # keep gain high
    np.testing.assert_allclose(s.t_R, truth.t_R, atol=1e-6)
    np.testing.assert_allclose(s.gamma_R, truth.gamma_R, atol=1e-6)


def test_orientation_update_moves_heading_only_flat(flat):
    truth_g = 0.9
    s = FilterState(np.array([0.0, 0.0]), 0.7, np.eye(3) * 0.01)
    _, q = predict_pose(flat, FilterState(s.t_R, truth_g, s.P_x), IDENT)
    meas = pose_meas([0, 0, 0], q, std_r=1e-3)
    s2 = orientation_update(s, flat, IDENT, meas)
    np.testing.assert_allclose(s2.t_R, s.t_R, atol=1e-9)
    assert abs(s2.gamma_R - truth_g) < abs(s.gamma_R - truth_g)


def test_predict_range_pythagorean(flat):
    s = FilterState(np.array([0.0, 0.0]), 0.0, np.eye(3))
    d = predict_range(flat, s, IDENT, np.array([3.0, 4.0, 0.0]))
    np.testing.assert_allclose(d, 5.0, atol=1e-12)
    d = predict_range(flat, s, IDENT, np.array([0.0, 3.0, 4.0]))
    np.testing.assert_allclose(d, 5.0, atol=1e-12)


def test_range_update_pulls_toward_anchor_sphere(flat):
    anchor = np.array([5.0, 0.0, 0.0])
    truth = FilterState(np.array([1.0, 0.0]), 0.0, np.eye(3))
    d_true = predict_range(flat, truth, IDENT, anchor)
    meas = RangeMeasurement(anchor, d_true, 1e-6)
    s = FilterState(np.array([1.3, 0.0]), 0.0, np.eye(3) * 0.04)
    s2 = range_update(s, flat, IDENT, meas)
    # moves along the anchor direction, heading untouched
    err_before = abs(np.linalg.norm(s.t_R - anchor[0:2]) - d_true)
    err_after = abs(np.linalg.norm(s2.t_R - anchor[0:2]) - d_true)
    assert err_after < err_before
    np.testing.assert_allclose(s2.gamma_R, s.gamma_R, atol=1e-9)


def test_range_update_degenerate_anchor(flat):
    s = FilterState(np.array([1.0, 1.0]), 0.0, np.eye(3) * 0.01)
    anchor = flat.chart_to_world(s.t_R)
    with pytest.raises(DegenerateGeometryError):
        range_update(s, flat, IDENT, RangeMeasurement(anchor, 0.0, 1e-4))


def test_measurement_validation():
    # quaternion is normalized on construction
    m = PoseMeasurement(np.zeros(3), np.array([2.0, 0, 0, 0]), np.eye(6))
    np.testing.assert_allclose(np.linalg.norm(m.z_q), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        RangeMeasurement(np.zeros(3), -1.0, 1e-4)
    with pytest.raises(ValueError):
        RangeMeasurement(np.zeros(3), 1.0, 0.0)


NAN, INF = float("nan"), float("inf")
POSE = {"z_p": (1.0, 2.0, 0.5), "z_q": (1.0, 0.0, 0.0, 0.0),
        "P_m": np.eye(6) * 1e-4}
RANGE = {"r_A": (9.5, -1.0, 0.1), "z_d": 4.0, "R_d": 0.0025}


@pytest.mark.parametrize("cls, fields, field, bad", [
    (PoseMeasurement, POSE, "z_p", (1.0, NAN, 0.5)),
    (PoseMeasurement, POSE, "z_p", [INF, 2.0, 0.5]),
    (PoseMeasurement, POSE, "z_q", (NAN, 0.0, 0.0, 0.0)),
    (PoseMeasurement, POSE, "z_q", (1.0, -INF, 0.0, 0.0)),
    (RangeMeasurement, RANGE, "r_A", np.array([9.5, NAN, 0.1])),
    (RangeMeasurement, RANGE, "z_d", NAN),
    (RangeMeasurement, RANGE, "z_d", INF),
    (RangeMeasurement, RANGE, "R_d", NAN),
    (RangeMeasurement, RANGE, "R_d", INF),
    (RangeMeasurement, RANGE, "R_d", -INF),
])
def test_measurements_refuse_non_finite_fields(cls, fields, field, bad):
    # a NaN fails every comparison, so only a finiteness check refuses
    # it. Taken in, it ends a trial a step late, falls back silently or,
    # projected, raises closest_point's bare ValueError out of a campaign
    cls(**fields)
    with pytest.raises(ValueError, match=f"{cls.__name__}.{field} must be"):
        cls(**{**fields, field: bad})
