"""Error-state propagation and correction machinery."""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meskf import (FilterState, OdometryInput, OutOfChartError,
                   RobotExtrinsics, SingularUpdateError, correct,
                   error_jacobians, propagate, wrap_angle)
from meskf import core, quat
from meskf.baseline import FullPoseState, propagate_3d
from meskf.core import _motion_model, joseph_update

from conftest import random_spd


def odom(vx=1.0, vy=0.0, w=0.2, sv=1e-4, sw=1e-5):
    return OdometryInput(np.array([vx, vy]), w, np.eye(2) * sv, sw)


def heading_rotation_2d(gamma):
    """R_z(gamma) on the chart plane, the oracle of the planar model."""
    c, s = np.cos(gamma), np.sin(gamma)
    return np.array([[c, -s], [s, c]])


def test_wrap_angle():
    np.testing.assert_allclose(wrap_angle(0.3), 0.3)
    np.testing.assert_allclose(wrap_angle(np.pi + 0.1), -np.pi + 0.1,
                               atol=1e-12)
    np.testing.assert_allclose(wrap_angle(-np.pi - 0.1), np.pi - 0.1,
                               atol=1e-12)
    np.testing.assert_allclose(wrap_angle(np.array([4 * np.pi, -4 * np.pi])),
                               [0.0, 0.0], atol=1e-12)


def test_wrap_angle_on_arrays_is_the_float_path():
    # scoring wraps a trial's heading errors as one array; each entry
    # must have the bits of the float path, the numpy-scalar one too
    rng = np.random.default_rng(3)
    a = np.concatenate([rng.uniform(-10, 10, 500),
                        [np.pi, -np.pi, 3 * np.pi, 0.0, -0.0, 1e-300]])
    want = [wrap_angle(x) for x in a.tolist()]
    assert wrap_angle(a).tobytes() == np.array(want).tobytes()
    assert wrap_angle(a).tobytes() == np.array(
        [wrap_angle(x) for x in a]).tobytes()


def test_propagate_flat_matches_unicycle(flat):
    # on a flat surface the model reduces to planar dead reckoning
    s = FilterState(np.array([1.0, 2.0]), 0.5, np.eye(3) * 1e-4)
    dt = 0.1
    o = odom(vx=1.2, vy=-0.3, w=0.4)
    s2 = propagate(flat, s, o, dt)
    R = heading_rotation_2d(0.5)
    np.testing.assert_allclose(s2.t_R, s.t_R + R @ o.v_m * dt, atol=1e-12)
    np.testing.assert_allclose(s2.gamma_R, 0.5 + 0.4 * dt, atol=1e-12)


def test_jacobians_flat_analytic(flat):
    # flat surface: F and G have closed forms
    g = 0.7
    dt = 0.05
    s = FilterState(np.array([0.0, 0.0]), g, np.eye(3) * 1e-4)
    o = odom(vx=1.0, vy=0.5, w=0.0)
    F, G, frame2 = error_jacobians(flat, s, o, dt)
    R = heading_rotation_2d(g)
    dR = np.array([[-np.sin(g), -np.cos(g)], [np.cos(g), -np.sin(g)]])
    F_ref = np.eye(3)
    F_ref[0:2, 2] = dR @ o.v_m * dt
    np.testing.assert_allclose(F, F_ref, atol=1e-6)
    np.testing.assert_allclose(np.abs(G[0:2, 0:2]), np.abs(R * dt),
                               atol=1e-12)
    np.testing.assert_allclose(G[2, 2], dt)
    np.testing.assert_allclose(frame2, np.eye(2), atol=1e-12)


def test_jacobians_match_central_differences(curved):
    # F = I + d(displacement)/dx on a curved surface, against differences
    rng = np.random.default_rng(13)
    h = 1e-6
    dt = 0.05
    for _ in range(20):
        s = FilterState(rng.uniform(-8, 8, size=2),
                        rng.uniform(-np.pi, np.pi), np.eye(3) * 1e-4)
        o = odom(vx=rng.normal(), vy=rng.normal(0, 0.3))
        F, G, frame2 = error_jacobians(curved, s, o, dt)
        F_fd = np.eye(3)
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            sp = FilterState(s.t_R + d[0:2], s.gamma_R + d[2], s.P_x)
            sm = FilterState(s.t_R - d[0:2], s.gamma_R - d[2], s.P_x)
            F_fd[0:2, k] += (np.subtract(_motion_model(curved, sp, o, dt)[0],
                                         _motion_model(curved, sm, o, dt)[0])
                             / (2 * h))
        np.testing.assert_allclose(F, F_fd, atol=1e-8)
        T = curved.tangent_frame_many(s.t_R[None, :])[0, 0:2, 0:2]
        np.testing.assert_allclose(frame2, T, atol=1e-12)
        np.testing.assert_allclose(G[0:2, 0:2],
                                   -T @ heading_rotation_2d(s.gamma_R) * dt,
                                   atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.floats(-np.pi, np.pi),
       st.floats(-2.0, 2.0), st.floats(-0.5, 0.5), st.integers(0, 10 ** 6))
def test_propagate_covariance_matches_matrix_form(curved, u, v, g, vx, vy,
                                                  seed):
    # the written-out covariance against F P F^T + G Q G^T in numpy
    rng = np.random.default_rng(seed)
    s = FilterState(np.array([u, v]), g, random_spd(rng, 3, 1e-3))
    sigma_v = random_spd(rng, 2, 1e-4)
    o = OdometryInput(np.array([vx, vy]), rng.normal(0, 0.3), sigma_v,
                      rng.uniform(1e-6, 1e-3))
    dt = 0.05
    F, G, _ = error_jacobians(curved, s, o, dt)
    Q = np.zeros((3, 3))
    Q[0:2, 0:2] = sigma_v
    Q[2, 2] = o.sigma_omega
    P_ref = F @ s.P_x @ F.T + G @ Q @ G.T
    P = propagate(curved, s, o, dt).P_x
    np.testing.assert_allclose(P, P_ref, rtol=1e-12,
                               atol=1e-12 * np.abs(P_ref).max())
    np.testing.assert_array_equal(P, P.T)


def test_odometry_of_arrays_propagates_to_the_bits_of_floats(curved):
    # public callers pass numpy arrays and scalars, the simulator pairs
    # of floats: both are unpacked as they are, with the same bits, in
    # the chart filters' propagation and in the C-ESEKF's
    rng = np.random.default_rng(5)
    for _ in range(50):
        v, w = rng.normal(0, 0.5, 2), rng.normal(0, 0.3)
        sv, sw = random_spd(rng, 2, 1e-4), rng.uniform(1e-6, 1e-4)
        arrays = OdometryInput(v, np.float64(w), sv, np.float64(sw))
        floats = OdometryInput(tuple(v.tolist()), w,
                               tuple(map(tuple, sv.tolist())), sw)
        s = FilterState(rng.uniform(-5, 5, 2), rng.uniform(-3, 3),
                        random_spd(rng, 3, 0.01))
        a, b = (propagate(curved, s, o, 0.05) for o in (arrays, floats))
        assert (np.array((a.u, a.v, a.gamma_R, *a.P_upper)).tobytes()
                == np.array((b.u, b.v, b.gamma_R, *b.P_upper)).tobytes())
        full = FullPoseState(rng.normal(0, 1, 3),
                             quat.from_rotvec(rng.normal(0, 0.3, 3)),
                             random_spd(rng, 6, 0.01))
        a, b = (propagate_3d(full, o, 0.05) for o in (arrays, floats))
        for x, y in ((a.p, b.p), (a.q, b.q), (a.P, b.P)):
            assert x.tobytes() == y.tobytes()


def test_propagate_grows_covariance(curved):
    s = FilterState(np.array([0.5, -0.5]), 0.2, np.eye(3) * 1e-6)
    s2 = propagate(curved, s, odom(), 0.05)
    w1 = np.linalg.eigvalsh(s.P_x)
    w2 = np.linalg.eigvalsh(s2.P_x)
    assert w2[0] >= w1[0] - 1e-15
    assert np.trace(s2.P_x) > np.trace(s.P_x)


def test_propagate_rejects_bad_dt(flat):
    s = FilterState(np.zeros(2), 0.0, np.eye(3) * 1e-4)
    with pytest.raises(ValueError):
        propagate(flat, s, odom(), 0.0)


def test_propagate_out_of_chart(curved):
    (ulo, uhi), _ = curved.domain
    s = FilterState(np.array([uhi - 0.01, 0.0]), 0.0, np.eye(3) * 1e-4)
    with pytest.raises(OutOfChartError):
        propagate(curved, s, odom(vx=10.0), 0.5)


def test_correct_zero_innovation_keeps_mean(flat, state):
    H = np.eye(3)
    s2 = correct(state, np.zeros(3), H, np.eye(3) * 0.01)
    np.testing.assert_allclose(s2.t_R, state.t_R, atol=1e-14)
    np.testing.assert_allclose(s2.gamma_R, state.gamma_R, atol=1e-14)
    assert np.trace(s2.P_x) < np.trace(state.P_x)


def test_correct_matches_textbook_kalman(state):
    # single-row update cross-checked against the standard form
    H = np.array([[1.0, 0.0, 0.0]])
    R = np.array([[0.01]])
    y = np.array([0.2])
    P = state.P_x
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    dx = (K @ y).ravel()
    s2 = correct(state, y, H, R)
    np.testing.assert_allclose(s2.t_R, state.t_R + dx[0:2], atol=1e-12)
    np.testing.assert_allclose(s2.gamma_R, state.gamma_R + dx[2], atol=1e-12)
    IKH = np.eye(3) - K @ H
    P_ref = IKH @ P @ IKH.T + K @ R @ K.T
    np.testing.assert_allclose(s2.P_x, P_ref, atol=1e-12)


def test_correct_singular_raises(state):
    H = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(SingularUpdateError):
        correct(state, np.array([0.1]), H, np.array([[-1.0]]))


def test_correct_wraps_heading(flat):
    s = FilterState(np.zeros(2), np.pi - 0.01, np.eye(3))
    s2 = correct(s, np.array([0.05]), np.array([[0.0, 0.0, 1.0]]),
                 np.array([[1e-8]]))
    assert -np.pi < s2.gamma_R <= np.pi
    np.testing.assert_allclose(s2.gamma_R, wrap_angle(np.pi - 0.01 + 0.05),
                               atol=1e-4)


def test_joseph_update_never_increases_diagonals():
    rng = np.random.default_rng(11)
    for _ in range(200):
        P = random_spd(rng, 3, 0.1)
        m = rng.integers(1, 4)
        H = rng.standard_normal((m, 3))
        R = random_spd(rng, m, 0.01)
        dx, P2 = joseph_update(P, H, R, np.zeros(m))
        assert np.all(np.diag(P2) <= np.diag(P) + 1e-12)


def textbook_joseph(P, H, R, y):
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    IKH = np.eye(len(P)) - K @ H
    return K @ y, IKH @ P @ IKH.T + K @ R @ K.T


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_update_matches_textbook_joseph(m, n):
    # every shape of joseph_update, and on three states the float paths,
    # correct_row for one row and correct_rows for two or three, is the
    # product form (I - K H) P (I - K H)^T + K R K^T
    rng = np.random.default_rng(20 + 10 * m + n)
    for _ in range(100):
        P = random_spd(rng, n, 0.1)
        H = rng.standard_normal((m, n))
        R = (np.array([[rng.uniform(1e-4, 1.0)]]) if m == 1
             else random_spd(rng, m, 1e-2))
        y = rng.standard_normal(m)
        dx_ref, P_ref = textbook_joseph(P, H, R, y)
        scale = np.abs(P_ref).max()
        dx_tol = dict(rtol=1e-12, atol=1e-12 * np.abs(dx_ref).max())
        dx, P2 = joseph_update(P, H, R, y)
        np.testing.assert_allclose(dx, dx_ref, **dx_tol)
        np.testing.assert_allclose(P2, P_ref, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_array_equal(P2, P2.T)
        if n == 3 and m <= 3:
            # from the origin the corrected state is dx, its heading wrapped
            start = FilterState(np.zeros(2), 0.0, P)
            s = (core.correct_row(start, y[0], *H[0].tolist(), R[0, 0])
                 if m == 1 else core.correct_rows(start, y.tolist(),
                                                  H.tolist(), R.tolist()))
            np.testing.assert_allclose(
                (s.u, s.v, s.gamma_R),
                (dx_ref[0], dx_ref[1], wrap_angle(dx_ref[2])), **dx_tol)
            np.testing.assert_allclose(s.P_x, P_ref, rtol=1e-12,
                                       atol=1e-12 * scale)


def test_correct_row_is_correct_on_one_row():
    # the range updates' float entry refuses an innovation variance
    # that is not positive
    s = FilterState(np.zeros(2), 0.0, np.eye(3) * 0.1)
    with pytest.raises(SingularUpdateError, match="not positive and finite"):
        core.correct_row(s, 0.5, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("r", [-1.0, -0.1, np.nan, np.inf])
def test_one_row_update_refuses_nonpositive_s(n, r):
    # s = h^T P h + r = 0.1 + r: negative, zero, not a number or
    # infinite. joseph_update checks the 1x1 S as it checks any S;
    # correct_row, on three states, checks the scalar s.
    P = np.eye(n) * 0.1
    H = np.zeros((1, n))
    H[0, 0] = 1.0
    match = "singular$" if np.isfinite(r) else "singular: not finite"
    with pytest.raises(SingularUpdateError, match=match):
        joseph_update(P, H, np.array([[r]]), np.array([0.5]))
    if n == 3:
        with pytest.raises(SingularUpdateError,
                           match="variance is not positive and finite"):
            core.correct_row(FilterState(np.zeros(2), 0.0, P), 0.5,
                             *H[0].tolist(), r)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("r, match", [
    (-1.0, "singular"),           # S not positive definite
    (1e-14, "singular"),          # condition number about 2e13 > 1e12
    (np.nan, "singular"),
    ("nan-off-diagonal", "not finite"),
    (1e-2, "gain"),               # S passes, the solve for the gain fails
], ids=["indefinite", "ill-conditioned", "nan", "nan-off-diagonal", "solve"])
def test_multi_row_update_refusals(n, r, match, monkeypatch):
    # two rows observing the same state: S = [[p + r, p], [p, p + r]]
    # with p = 0.1 has the eigenvalues r and 2p + r
    P = np.eye(n) * 0.1
    H = np.zeros((2, n))
    H[:, 0] = 1.0
    R = np.eye(2) * (0.01 if r == "nan-off-diagonal" else r)
    if r == "nan-off-diagonal":
        # NaN off the diagonal and above it only: the eigenvalue check
        # reads the lower triangle and does not see it
        R[0, 1] = np.nan
    if match == "gain":
        # with the eigenvalue check passed, the solve gufunc fails as it
        # does on an exactly singular matrix: NaN in every entry
        monkeypatch.setattr(core, "_umath_linalg", SimpleNamespace(
            eigvalsh_lo=core._umath_linalg.eigvalsh_lo,
            solve=lambda a, b: np.full_like(b, np.nan)))
    with pytest.raises(SingularUpdateError, match=match):
        joseph_update(P, H, R, np.array([0.5, 0.5]))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("r, match", [
    (-1.0, "singular$"),          # S not positive definite
    (0.0, "singular$"),           # S singular
    (1e-14, "singular$"),         # condition number about 3e13 > 1e12
    (np.nan, "singular: not finite$"),
    ("nan-off-diagonal", "singular: not finite$"),
], ids=["indefinite", "zero", "ill-conditioned", "nan", "nan-off-diagonal"])
def test_float_multi_row_update_refusals(m, r, match):
    # correct_rows refuses what joseph_update refuses, with its messages:
    # m rows observing the same state give S = p 1 1^T + r I, p = 0.1,
    # with the eigenvalues r and m p + r
    P = np.eye(3) * 0.1
    H = np.zeros((m, 3))
    H[:, 0] = 1.0
    R = np.eye(m) * (0.01 if r == "nan-off-diagonal" else r)
    if r == "nan-off-diagonal":
        # above the diagonal, where eigvalsh_lo does not read
        R[0, 1] = np.nan
    y = np.full(m, 0.5)
    match = "^innovation covariance is " + match
    with pytest.raises(SingularUpdateError, match=match):
        joseph_update(P, H, R, y)
    with pytest.raises(SingularUpdateError, match=match):
        core.correct_rows(FilterState(np.zeros(2), 0.0, P), y.tolist(),
                          H.tolist(), R.tolist())


def test_float_update_refuses_a_determinant_out_of_range():
    # S = 2e-111 I passes require_spd (condition number 1), but its
    # determinant underflows to zero: the closed-form gain is refused as
    # a failed solve, where joseph_update's LU solve goes on
    P, R = np.eye(3) * 1e-111, np.eye(3) * 1e-111
    dx, _ = joseph_update(P, np.eye(3), R, np.ones(3))
    np.testing.assert_allclose(dx, 0.5)
    with pytest.raises(SingularUpdateError, match="gain failed"):
        core.correct_rows(FilterState(np.zeros(2), 0.0, P), (1.0,) * 3,
                          np.eye(3).tolist(), R.tolist())


def test_states_hand_out_independent_arrays():
    t, P = np.array([1.0, 2.0]), np.eye(3)
    s = FilterState(t, 0.3, P)
    t[0], P[0, 0] = 9.0, 9.0
    assert s.t_R[0] == 1.0 and s.P_x[0, 0] == 1.0
    # a filter step's output owns its arrays too
    s2 = correct(s, np.array([0.1]), np.array([[1.0, 0.0, 0.0]]),
                 np.array([[0.01]]))
    assert not np.shares_memory(s2.P_x, s.P_x)
    assert not np.shares_memory(s2.t_R, s.t_R)
    # writing into what a state hands out leaves the state as it was
    t_R, P_x = s2.t_R, s2.P_x
    t_R[0], P_x[0, 1], P_x[2, 2] = 5.0, 5.0, 5.0
    assert s2.t_R.tolist() == [s2.u, s2.v] and s2.t_R[0] != 5.0
    assert s2.P_x[0, 1] != 5.0 and s2.P_x[2, 2] != 5.0
    np.testing.assert_array_equal(s2.P_x, s2.P_x.T)


def test_covariance_comes_back_exactly_symmetric(curved):
    rng = np.random.default_rng(5)
    s = FilterState(np.array([0.5, -0.5]), 0.3, random_spd(rng, 3, 0.01))
    for _ in range(20):
        s = propagate(curved, s, odom(vx=0.7, vy=0.1, w=0.3), 0.05)
        s = correct(s, rng.standard_normal(2), rng.standard_normal((2, 3)),
                    np.eye(2) * 0.1)
        P = s.P_x
        np.testing.assert_array_equal(P, P.T)
    # the public constructor reads the upper triangle of what it is given
    upper = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
    np.testing.assert_array_equal(FilterState(np.zeros(2), 0.0, upper).P_x,
                                  upper + np.triu(upper, 1).T)


@pytest.mark.parametrize("t_R, P_x, field", [
    (np.zeros(3), np.eye(3), "t_R"),
    (np.zeros((2, 1)), np.eye(3), "t_R"),
    (0.0, np.eye(3), "t_R"),
    ([0.0, [1.0, 2.0]], np.eye(3), "t_R"),
    ("ab", np.eye(3), "t_R"),
    (np.zeros(2), np.eye(2), "P_x"),
    (np.zeros(2), np.eye(3)[0], "P_x"),
    (np.zeros(2), np.eye(6), "P_x"),
    (np.zeros(2), None, "P_x"),
], ids=["three", "column", "scalar", "ragged", "text", "2x2", "row", "6x6",
        "none"])
def test_state_refuses_wrong_shapes(t_R, P_x, field):
    # refused where it is built, not at the first propagation's unpacking
    with pytest.raises(ValueError, match=f"FilterState.{field} must be"):
        FilterState(t_R, 0.0, P_x)


def test_state_does_not_check_finiteness(curved):
    # a start off the chart ends its trial by OutOfChartError, as before
    s = FilterState(np.array([np.nan, 0.0]), 0.0, np.eye(3))
    with pytest.raises(OutOfChartError):
        propagate(curved, s, odom(), 0.05)


def test_covariance_psd_through_random_cycles(curved):
    # long alternating propagate/correct chain stays symmetric PSD
    rng = np.random.default_rng(12)
    s = FilterState(np.zeros(2), 0.0, np.eye(3) * 0.01)
    for k in range(10_000):
        if k % 2 == 0:
            o = OdometryInput(rng.normal(0, 0.5, 2), rng.normal(0, 0.3),
                              np.eye(2) * 1e-4, 1e-5)
            try:
                s = propagate(curved, s, o, 0.02)
            except OutOfChartError:
                s = FilterState(np.zeros(2), s.gamma_R, s.P_x)
        else:
            m = int(rng.integers(1, 4))
            H = rng.standard_normal((m, 3))
            R = random_spd(rng, m, 0.01)
            s = correct(s, rng.normal(0, 0.05, m), H, R)
        assert np.max(np.abs(s.P_x - s.P_x.T)) < 1e-12
        assert np.linalg.eigvalsh(s.P_x)[0] >= -1e-9


def test_extrinsics_identity():
    e = RobotExtrinsics.identity()
    np.testing.assert_allclose(e.r_RS, np.zeros(3))
    np.testing.assert_allclose(e.q_RS, [1, 0, 0, 0])


@pytest.mark.parametrize("r_RS, q_RS", [
    ([0.1, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),
    ([0.1, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0]),
    ([0.1, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]),
    ([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
    ([0.0, np.inf, 0.0], [1.0, 0.0, 0.0, 0.0]),
    ([0.1, 0.0], [1.0, 0.0, 0.0, 0.0]),
])
def test_extrinsics_reject_bad_values(r_RS, q_RS):
    # a zero or non-finite quaternion used to become NaN with only a
    # RuntimeWarning
    with pytest.raises(ValueError):
        RobotExtrinsics(np.array(r_RS), np.array(q_RS))


def test_extrinsics_normalize_q_RS():
    e = RobotExtrinsics(np.zeros(3), np.array([2.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(e.q_RS, [1.0, 0.0, 0.0, 0.0])
