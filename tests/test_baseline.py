"""Constrained 6-dof baseline filter."""
import numpy as np
import pytest

from meskf import (DegenerateGeometryError, FilterState, FullPoseState,
                   OdometryInput, PoseMeasurement, PseudoMeasurementConfig,
                   RangeMeasurement, RobotExtrinsics, predict_pose,
                   wrap_angle)
from meskf import quat
from meskf.baseline import (_align_jacobian, _pseudo_residual_jacobian,
                            _sensor_model_3d, chart_errors, pose_update_3d,
                            propagate_3d, pseudo_update, range_update_3d)
from meskf.sensors3d import _sensor_model, pose_residual, range_residual
from oracles import chart_rows

IDENT = RobotExtrinsics.identity()


def odom(vx=1.0, vy=0.0, w=0.0):
    return OdometryInput(np.array([vx, vy]), w, np.eye(2) * 1e-4, 1e-5)


def fresh_state(p=(0, 0, 0), yaw=0.0, var=0.01):
    return FullPoseState(np.asarray(p, dtype=float), quat.z_rotation(yaw),
                         np.eye(6) * var)


def test_propagate_straight_line():
    s = fresh_state()
    for _ in range(10):
        s = propagate_3d(s, odom(vx=1.0), 0.1)
    np.testing.assert_allclose(s.p, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(s.q, [1, 0, 0, 0], atol=1e-12)


def test_propagate_turns_in_plane():
    s = fresh_state()
    dt = 0.01
    # quarter circle: v = 1, omega = 1, for pi/2 seconds
    n = int(round(np.pi / 2 / dt))
    for _ in range(n):
        s = propagate_3d(s, odom(vx=1.0, w=1.0), dt)
    # discrete-time unicycle converges to the circle of radius 1
    np.testing.assert_allclose(s.p[0:2], [1.0, 1.0], atol=0.02)
    np.testing.assert_allclose(quat.to_rotvec(s.q)[2], np.pi / 2, atol=0.02)


def test_propagate_grows_covariance():
    s = fresh_state(var=1e-6)
    s2 = propagate_3d(s, odom(), 0.05)
    assert np.trace(s2.P) > np.trace(s.P)
    assert np.linalg.eigvalsh(s2.P)[0] >= -1e-12
    np.testing.assert_allclose(np.linalg.norm(s2.q), 1.0, atol=1e-12)


def test_pseudo_update_pulls_to_surface(curved):
    t = np.array([0.5, -0.5])
    z_true = curved.eval_point(*t)[0]
    s = FullPoseState(np.array([t[0], t[1], z_true + 0.3]),
                      quat.z_rotation(0.2), np.eye(6) * 0.04)
    cfg = PseudoMeasurementConfig(sigma_z=0.001, sigma_rp=0.001)
    for _ in range(10):
        s = pseudo_update(s, curved, cfg)
    assert abs(s.p[2] - curved.eval_point(*s.p[0:2])[0]) < 1e-3
    # body z-axis aligned with the surface normal
    n = curved.tangent_frame(s.p[0:2])[:, 2]
    R = np.array(quat.to_matrix(s.q))
    assert R[:, 2] @ n > 1 - 1e-4


def test_pseudo_update_keeps_heading_flat(flat):
    s = FullPoseState(np.array([1.0, 1.0, 0.5]), quat.z_rotation(0.7),
                      np.eye(6) * 0.01)
    s2 = pseudo_update(s, flat, PseudoMeasurementConfig())
    np.testing.assert_allclose(quat.to_rotvec(s2.q)[2], 0.7, atol=1e-9)
    np.testing.assert_allclose(s2.p[0:2], s.p[0:2], atol=1e-9)
    assert abs(s2.p[2]) < 0.5


def test_pose_update_3d_zero_residual_keeps_mean():
    s = fresh_state(p=(1, 2, 0.5), yaw=0.3)
    meas = PoseMeasurement(s.p.copy(), s.q.copy(), np.eye(6) * 1e-4)
    s2 = pose_update_3d(s, IDENT, meas)
    np.testing.assert_allclose(s2.p, s.p, atol=1e-12)
    np.testing.assert_allclose(quat.canonicalize(s2.q),
                               quat.canonicalize(s.q), atol=1e-12)
    assert np.trace(s2.P) < np.trace(s.P)


def test_pose_update_3d_reduces_error():
    truth = fresh_state(p=(1, 2, 0.0), yaw=0.4)
    meas = PoseMeasurement(truth.p.copy(), truth.q.copy(), np.eye(6) * 1e-6)
    s = fresh_state(p=(1.1, 1.9, 0.05), yaw=0.3)
    s2 = pose_update_3d(s, IDENT, meas)
    assert np.linalg.norm(s2.p - truth.p) < np.linalg.norm(s.p - truth.p)
    dq = quat.multiply(quat.conjugate(truth.q), s2.q)
    dq0 = quat.multiply(quat.conjugate(truth.q), s.q)
    assert np.linalg.norm(quat.to_rotvec(dq)) < np.linalg.norm(
        quat.to_rotvec(dq0))


def test_range_update_3d_moves_along_anchor_direction():
    s = fresh_state(p=(1.0, 0.0, 0.0))
    anchor = np.array([5.0, 0.0, 0.0])
    meas = RangeMeasurement(anchor, 3.8, 1e-6)
    s2 = range_update_3d(s, IDENT, meas)
    assert abs(np.linalg.norm(s2.p - anchor) - 3.8) < abs(
        np.linalg.norm(s.p - anchor) - 3.8)
    np.testing.assert_allclose(s2.p[1:], s.p[1:], atol=1e-9)


def one_state(state, surface):
    """``chart_errors`` on the batch of the one state ``state``: its chart
    position and heading (3,) and their covariance."""
    x, P = chart_errors(chart_rows([state], surface), surface)
    assert x.shape == (1, 3) and P.shape == (1, 3, 3)
    return x[0], P[0]


def test_chart_errors_flat_identity(flat):
    s = FullPoseState(np.array([1.5, -2.0, 0.0]), quat.z_rotation(0.6),
                      np.diag([0.01, 0.02, 0.03, 0.04, 0.05, 0.06]))
    x, P = one_state(s, flat)
    np.testing.assert_allclose(x, [1.5, -2.0, 0.6], atol=1e-9)
    # flat surface: chart position and heading map straight through
    np.testing.assert_allclose(np.diag(P), [0.01, 0.02, 0.06], atol=1e-6)
    np.testing.assert_allclose(P, P.T, atol=1e-15)


def test_chart_errors_heading_consistent_with_manifold(curved):
    # lifting a chart state to 3-D and mapping back is the identity
    from meskf import FilterState, predict_pose
    t = np.array([1.0, 2.0])
    g = 0.8
    p, q = predict_pose(curved, FilterState(t, g, np.eye(3)), IDENT)
    s3 = FullPoseState(p, q, np.eye(6) * 0.01)
    x, _ = one_state(s3, curved)
    np.testing.assert_allclose(x[0:2], t, atol=1e-12)
    np.testing.assert_allclose(x[2], g, atol=1e-9)


def test_pseudo_config_validation():
    # NaN and inf used to pass the "<= 0" checks
    for bad in ({"sigma_z": 0.0}, {"sigma_rp": -0.01},
                {"sigma_z": float("nan")}, {"sigma_rp": float("inf")}):
        with pytest.raises(ValueError):
            PseudoMeasurementConfig(**bad)


def perturbed(s, dx):
    """s moved by the error (dp, dtheta), attitude R = R_hat Exp(dtheta)."""
    return FullPoseState(s.p + dx[0:3],
                         quat.multiply(s.q, quat.from_rotvec(dx[3:6])), s.P)


def central_difference_jacobian(fn, s, h=1e-6):
    """d fn / d(dp, dtheta) by central differences."""
    cols = []
    for k in range(6):
        d = np.zeros(6)
        d[k] = h
        cols.append((fn(perturbed(s, d)) - fn(perturbed(s, -d))) / (2 * h))
    return np.column_stack(cols)


def check_baseline_jacobians(surface, s):
    """Pseudo-measurement H and chart-map J against central differences."""
    y0, H = _pseudo_residual_jacobian(s, surface)
    H_fd = -central_difference_jacobian(
        lambda x: _pseudo_residual_jacobian(x, surface)[0], s)
    np.testing.assert_allclose(H, H_fd, atol=1e-7)
    # the roll/pitch residual turns the body z-axis onto the normal
    rp = np.array(quat.to_matrix(quat.from_rotvec([y0[1], y0[2], 0.0])))
    np.testing.assert_allclose(quat.to_matrix(s.q) @ rp[:, 2],
                               surface.tangent_frame(s.p[0:2])[:, 2],
                               atol=1e-12)

    x0, P = one_state(s, surface)

    def chart_map(x):
        out = one_state(x, surface)[0] - x0
        out[2] = wrap_angle(float(out[2]))
        return out
    J_fd = central_difference_jacobian(chart_map, s)
    np.testing.assert_allclose(P, J_fd @ s.P @ J_fd.T, atol=1e-7)
    return H


def random_pose_state(rng, surface, tilt):
    t = rng.uniform(-8, 8, size=2)
    z = surface.eval_point(*t)[0] + rng.normal(0, 0.2)
    p = np.array([t[0], t[1], z])
    q = quat.multiply(quat.z_rotation(rng.uniform(-np.pi, np.pi)),
                      quat.from_rotvec(rng.normal(0, tilt, 3)))
    A = rng.standard_normal((6, 6))
    return FullPoseState(p, q, A @ A.T * 0.01 + np.eye(6) * 1e-3)


def test_baseline_jacobians_curved_random_attitudes(curved):
    rng = np.random.default_rng(11)
    for _ in range(20):
        check_baseline_jacobians(curved, random_pose_state(rng, curved, 0.6))


def test_baseline_jacobians_near_level(curved, flat):
    # body z-axis within 1e-7 rad of the normal: the series branch
    rng = np.random.default_rng(12)
    for _ in range(10):
        s = random_pose_state(rng, curved, 0.0)
        frame = quat.from_matrix(curved.tangent_frame(s.p[0:2]))
        q = quat.multiply(quat.multiply(frame, s.q),
                          quat.from_rotvec(np.r_[rng.normal(0, 1e-7, 2), 0]))
        s = FullPoseState(s.p, q, s.P)
        n = curved.tangent_frame(s.p[0:2])[:, 2]
        a = np.array(quat.to_matrix(s.q)).T @ n
        assert np.hypot(a[0], a[1]) < 1e-4
        check_baseline_jacobians(curved, s)
    # exactly level: s = |(a0, a1)| = 0
    s = FullPoseState(np.array([1.0, -2.0, 0.3]), quat.z_rotation(2.5),
                      np.diag([0.01, 0.02, 0.03, 0.04, 0.05, 0.06]))
    H = check_baseline_jacobians(flat, s)
    # a tilt dtheta leaves the residual -dtheta: H = -dy/dx = I
    np.testing.assert_allclose(H[1:3, 3:5], np.eye(2), atol=1e-12)


def test_baseline_jacobians_flat(flat):
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = random_pose_state(rng, flat, 0.4)
        H = check_baseline_jacobians(flat, s)
        np.testing.assert_array_equal(H[0], [0, 0, 1, 0, 0, 0])


def test_align_series_branch_matches_closed_form():
    def residual(a):
        s = np.hypot(a[0], a[1])
        return np.array([-a[1], a[0]]) * np.arctan2(s, a[2]) / s

    a = np.array([3e-5, -4e-5, np.sqrt(1.0 - 2.5e-9)])
    rp, D = _align_jacobian(*a)
    np.testing.assert_allclose(rp, residual(a), rtol=1e-13)
    h = 1e-7
    D_fd = np.column_stack([(residual(a + h * e) - residual(a - h * e))
                            / (2 * h) for e in np.eye(3)])
    np.testing.assert_allclose(D, D_fd, rtol=0, atol=1e-11)


def test_pseudo_update_upside_down_is_degenerate(flat):
    s = FullPoseState(np.array([0.0, 0.0, 0.0]),
                      quat.from_rotvec(np.array([np.pi, 0.0, 0.0])),
                      np.eye(6) * 0.01)
    with pytest.raises(DegenerateGeometryError):
        pseudo_update(s, flat, PseudoMeasurementConfig())


def state_error(s, ref):
    """(dp, dtheta) of s relative to ref, attitude R = R_ref Exp(dtheta)."""
    dtheta = quat.to_rotvec(quat.multiply(quat.conjugate(ref.q), s.q))
    return np.concatenate([s.p - ref.p, dtheta])


def dense_propagation(s, od, dt):
    """F and G of the propagation, written densely from its model:
    F = [[I, -R [v]_x dt], [0, R_z(-omega dt)]], noise through
    G = [[-R[:, 0:2] dt, 0], [0, -dt e_3]]."""
    R = np.array(quat.to_matrix(s.q))
    v = np.array([od.v_m[0], od.v_m[1], 0.0])
    skew = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])
    F = np.eye(6)
    F[0:3, 3:6] = -R @ skew * dt
    F[3:6, 3:6] = np.array(quat.to_matrix(
        quat.z_rotation(-od.omega_m * dt)))
    G = np.zeros((6, 3))
    G[0:3, 0:2] = -R[:, 0:2] * dt
    G[5, 2] = -dt
    return F, G


def test_propagate_3d_jacobians_match_central_differences(curved):
    rng = np.random.default_rng(21)
    dt = 0.05
    for _ in range(10):
        s = random_pose_state(rng, curved, 0.6)
        od = OdometryInput(rng.normal(0, 1, 2), rng.normal(0, 0.5),
                           np.eye(2), 1.0)
        ref = propagate_3d(s, od, dt)
        F, G = dense_propagation(s, od, dt)
        F_fd = central_difference_jacobian(
            lambda x: state_error(propagate_3d(x, od, dt), ref), s)
        np.testing.assert_allclose(F, F_fd, atol=1e-8)
        # noise enters as v = v_m - n_v, omega = omega_m - n_omega
        cols = []
        for k in range(3):
            h = np.zeros(3)
            h[k] = 1e-6

            def moved(n):
                o = OdometryInput(od.v_m - n[0:2], od.omega_m - n[2],
                                  od.sigma_v, od.sigma_omega)
                return state_error(propagate_3d(s, o, dt), ref)
            cols.append((moved(h) - moved(-h)) / 2e-6)
        np.testing.assert_allclose(G, np.column_stack(cols), atol=1e-8)


def test_propagate_3d_covariance_matches_matrix_form(curved):
    rng = np.random.default_rng(22)
    for _ in range(20):
        s = random_pose_state(rng, curved, 0.6)
        A = rng.standard_normal((2, 2))
        od = OdometryInput(rng.normal(0, 1, 2), rng.normal(0, 0.5),
                           A @ A.T * 1e-2, rng.uniform(1e-4, 1e-2))
        dt = rng.uniform(0.01, 0.2)
        F, G = dense_propagation(s, od, dt)
        Q = np.zeros((3, 3))
        Q[0:2, 0:2] = od.sigma_v
        Q[2, 2] = od.sigma_omega
        P = propagate_3d(s, od, dt).P
        np.testing.assert_array_equal(P, P.T)
        np.testing.assert_allclose(P, F @ s.P @ F.T + G @ Q @ G.T,
                                   rtol=1e-12, atol=1e-15)


# lever arm plus a sensor rotation away from the identity
EXT = RobotExtrinsics(np.array([0.2, -0.1, 0.05]),
                      quat.from_rotvec(np.array([0.05, 0.02, -0.6])))


def pose_3d(s, meas):
    return pose_residual(*_sensor_model_3d(s, EXT), meas)


def range_3d(s, meas):
    return range_residual(*_sensor_model_3d(s, EXT)[0:2], meas)


def test_pose_update_3d_jacobian_matches_central_differences(curved):
    rng = np.random.default_rng(23)
    for _ in range(10):
        s = random_pose_state(rng, curved, 0.6)
        q_sensor = quat.multiply(
            quat.multiply(s.q, EXT.q_RS),
            quat.from_rotvec(rng.normal(0, 0.05, 3)))
        meas = PoseMeasurement(s.p + rng.normal(0, 0.3, 3), q_sensor,
                               np.eye(6) * 1e-4)
        _, H = pose_3d(s, meas)
        H_fd = -central_difference_jacobian(lambda x: pose_3d(x, meas)[0], s)
        np.testing.assert_allclose(H, H_fd, atol=1e-8)


def test_range_update_3d_jacobian_matches_central_differences(curved):
    rng = np.random.default_rng(24)
    for _ in range(10):
        s = random_pose_state(rng, curved, 0.6)
        meas = RangeMeasurement(s.p + rng.normal(0, 3.0, 3), 2.0, 1e-4)
        innovation, H = range_3d(s, meas)
        H_fd = -central_difference_jacobian(lambda x: range_3d(x, meas)[0], s)
        np.testing.assert_allclose(H, H_fd, atol=1e-8)
        np.testing.assert_allclose(
            meas.z_d - innovation[0],
            np.linalg.norm(s.p + np.array(quat.to_matrix(s.q)) @ EXT.r_RS
                           - meas.r_A), rtol=1e-14)


def test_pose_and_range_models_agree_across_manifolds(curved):
    # the 6-dof state at a chart state's lifted robot pose sees the same
    # residuals, and its Jacobian chained through the lift's kinematics
    # L = dx_3d / dx_chart is the chart Jacobian
    rng = np.random.default_rng(25)
    ident = RobotExtrinsics.identity()
    for _ in range(10):
        chart = FilterState(rng.uniform(-8, 8, size=2),
                            rng.uniform(-np.pi, np.pi), np.eye(3) * 0.01)
        p, q = predict_pose(curved, chart, ident)
        full = FullPoseState(p, q, np.eye(6) * 0.01)
        _, J, _, rates = _sensor_model(curved, chart, ident)
        L = np.vstack([np.array(J), np.array(rates).T])
        pos, q_sensor = predict_pose(curved, chart, EXT)
        pose = PoseMeasurement(
            pos + rng.normal(0, 0.3, 3),
            quat.multiply(q_sensor, quat.from_rotvec(rng.normal(0, 0.05, 3))),
            np.eye(6) * 1e-4)
        range_meas = RangeMeasurement(pos + rng.normal(0, 3.0, 3), 2.0, 1e-4)
        for y_chart, y_3d in (
                (pose_residual(*_sensor_model(curved, chart, EXT), pose),
                 pose_3d(full, pose)),
                (range_residual(*_sensor_model(curved, chart, EXT)[0:2],
                                range_meas), range_3d(full, range_meas))):
            np.testing.assert_allclose(y_chart[0], y_3d[0], rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(y_chart[1], y_3d[1] @ L, rtol=0,
                                       atol=1e-12)


def test_states_hand_out_independent_arrays(curved):
    p, q = np.array([1.0, 2.0, 0.3]), np.array(quat.z_rotation(0.4))
    P = np.eye(6) * 0.01
    s = FullPoseState(p, q, P)
    # the public constructor copies its inputs
    assert not any(np.shares_memory(a, b)
                   for a in (s.p, s.q, s.P) for b in (p, q, P))
    states = [s]
    states.append(propagate_3d(states[-1], odom(w=0.2), 0.05))
    states.append(pseudo_update(states[-1], curved,
                                PseudoMeasurementConfig()))
    states.append(range_update_3d(states[-1], EXT, RangeMeasurement(
        np.array([8.0, 0.0, 0.5]), 6.0, 1e-2)))
    states.append(pose_update_3d(states[-1], EXT, PoseMeasurement(
        states[-1].p, quat.multiply(states[-1].q, EXT.q_RS),
        np.eye(6) * 1e-4)))
    for a, b in zip(states, states[1:]):
        for x, y in ((a.p, b.p), (a.q, b.q), (a.P, b.P)):
            assert not np.shares_memory(x, y)
    for state in states[1:]:
        assert state.p.shape == (3,) and state.q.shape == (4,)
        assert state.P.shape == (6, 6)
        assert state.p.dtype == state.q.dtype == state.P.dtype == float
        assert abs(np.linalg.norm(state.q) - 1.0) < 1e-15
