"""Surface geometry: frames, gradients, chart maps, closest point."""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meskf import (BSplineSurface, ConfigError, NumericalFailureError,
                   OutOfChartError, flat_surface, load_surface,
                   save_surface, surface_from_dict, surface_from_grid,
                   world_to_chart)
from meskf.bspline import (basis_and_derivatives, find_spans,
                           point_basis_ders2, tensor_eval)
from meskf.surface import frame_cos_sin, frame_rates

from conftest import make_random_surface

REFERENCE_SURFACE = (Path(__file__).resolve().parents[1] / "scenarios"
                     / "reference_surface.json")


def sample_points(surface, n, seed=0, margin=0.5):
    (ulo, uhi), (vlo, vhi) = surface.domain
    rng = np.random.default_rng(seed)
    return rng.uniform([ulo + margin, vlo + margin],
                       [uhi - margin, vhi - margin], size=(n, 2))


def test_gradient_matches_finite_differences(curved):
    pts = sample_points(curved, 200, seed=1)
    g = curved.gradient_many(pts)
    h = 1e-6
    for axis in range(2):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, axis] += h
        dm[:, axis] -= h
        fd = (curved.elevation_many(dp) - curved.elevation_many(dm)) / (2 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(g[:, axis] - fd) / scale) < 1e-4


def test_fused_eval_matches_separate_calls(curved):
    pts = sample_points(curved, 300, seed=2)
    z, g = curved.elevation_gradient_many(pts)
    np.testing.assert_allclose(z, curved.elevation_many(pts), atol=1e-13)
    np.testing.assert_allclose(g, curved.gradient_many(pts), atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10 ** 6),
       st.floats(-9.5, 9.5), st.floats(-9.5, 9.5))
def test_property_eval_point_matches_numpy_path(degree, seed, u, v):
    # the numpy path is the Cox-de Boor oracle de_boor_many
    surface = make_random_surface(seed, size=degree + 5, degree=degree,
                                  amplitude=1.2)
    h = 1e-6
    # the Hessian jumps across knots, so keep the stencil in one span
    knots = np.concatenate([surface.knots_u, surface.knots_v])
    assume(np.min(np.abs(knots - u)) > 10 * h)
    assume(np.min(np.abs(knots - v)) > 10 * h)
    s, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(u, v)
    z, g = de_boor_many(surface, np.array([[u, v]]))
    np.testing.assert_allclose([s, s_u, s_v], [z[0], g[0, 0], g[0, 1]],
                               rtol=1e-12, atol=1e-12)
    pts = np.array([[u + h, v], [u - h, v], [u, v + h], [u, v - h]])
    gp = de_boor_many(surface, pts)[1]
    hess_fd = np.array([(gp[0] - gp[1]) / (2 * h), (gp[2] - gp[3]) / (2 * h)])
    np.testing.assert_allclose([[s_uu, s_uv], [s_uv, s_vv]], hess_fd,
                               rtol=1e-6, atol=1e-6)


def nonuniform_surface(seed, degree_u, degree_v):
    """Random surface on knots with uneven spans and one interior knot
    repeated up to the degree (each repeat is a zero-length span), over
    [-7, 13] x [-3, 9]."""
    rng = np.random.default_rng(seed)

    def knots(deg, lo, hi):
        gaps = rng.uniform(0.3, 1.0, size=rng.integers(2, 7))
        inner = lo + (hi - lo) * np.cumsum(gaps)[:-1] / gaps.sum()
        inner = np.sort(np.concatenate(
            [inner, np.repeat(rng.choice(inner), rng.integers(1, deg + 1)
                              - 1)]))
        return np.concatenate([[lo] * (deg + 1), inner, [hi] * (deg + 1)])

    ku, kv = knots(degree_u, -7.0, 13.0), knots(degree_v, -3.0, 9.0)
    control = 1.5 * rng.standard_normal((len(ku) - degree_u - 1,
                                         len(kv) - degree_v - 1))
    return BSplineSurface(degree_u, degree_v, ku, kv, control)


def table_test_points(surface, seed):
    """Random points, points on every knot line, and the corners."""
    (u0, u1), (v0, v1) = surface.domain
    rng = np.random.default_rng(seed)
    pts = [rng.uniform([u0, v0], [u1, v1], size=(20, 2))]
    ku, kv = np.unique(surface.knots_u), np.unique(surface.knots_v)
    pts.append(np.column_stack([ku, rng.uniform(v0, v1, len(ku))]))
    pts.append(np.column_stack([rng.uniform(u0, u1, len(kv)), kv]))
    pts.append(np.array([[u0, v0], [u0, v1], [u1, v0], [u1, v1]]))
    return np.vstack(pts)


def de_boor_point(surface, u, v):
    """(S, S_u, S_v, S_uu, S_uv, S_vv) summed over the Cox-de Boor basis
    values and derivatives of ``point_basis_ders2``."""
    p, q = surface.degree_u, surface.degree_v
    su, *bu = point_basis_ders2(surface.knots_u.tolist(), p, u)
    sv, *bv = point_basis_ders2(surface.knots_v.tolist(), q, v)
    P = surface.control_points[su - p:su + 1, sv - q:sv + 1]
    return np.array([np.asarray(bu[a]) @ P @ np.asarray(bv[b])
                     for a, b in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                  (0, 2))])


def de_boor_many(surface, t):
    """(z, grad) summed over ``basis_and_derivatives`` at points t."""
    p, q = surface.degree_u, surface.degree_v
    su = find_spans(surface.knots_u, p, t[:, 0])
    sv = find_spans(surface.knots_v, q, t[:, 1])
    bu, du = basis_and_derivatives(surface.knots_u, p, su, t[:, 0])
    bv, dv = basis_and_derivatives(surface.knots_v, q, sv, t[:, 1])
    iu = su[:, None] - p + np.arange(p + 1)
    iv = sv[:, None] - q + np.arange(q + 1)
    P = surface.control_points[iu[:, :, None], iv[:, None, :]]
    z = np.einsum("ni,nij,nj->n", bu, P, bv)
    grad = np.column_stack([np.einsum("ni,nij,nj->n", du, P, bv),
                            np.einsum("ni,nij,nj->n", bu, P, dv)])
    return z, grad


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_property_patch_table_matches_de_boor(degree_u, degree_v, seed):
    surface = nonuniform_surface(seed, degree_u, degree_v)
    t = table_test_points(surface, seed)
    ref_z = tensor_eval(surface.control_points, surface.knots_u, degree_u,
                        surface.knots_v, degree_v, t[:, 0], t[:, 1])
    got = np.array([surface.eval_point(u, v) for u, v in t])
    ref = np.array([de_boor_point(surface, u, v) for u, v in t])
    # rtol 1e-12, with the point's largest term as the scale of a
    # derivative that cancels to near zero
    atol = 1e-12 * np.max(np.abs(ref), axis=1, keepdims=True)
    np.testing.assert_array_less(np.abs(got - ref), 1e-12 * np.abs(ref)
                                 + atol)
    np.testing.assert_allclose(got[:, 0], ref_z, rtol=1e-12, atol=1e-12)
    z_ref, grad_ref = de_boor_many(surface, t)
    np.testing.assert_allclose(got[:, 0], z_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_less(np.abs(got[:, 1:3] - grad_ref),
                                 1e-12 * np.abs(grad_ref) + atol)
    np.testing.assert_allclose(surface.elevation_many(t), ref_z,
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_property_table_hessian_matches_finite_differences(
        degree_u, degree_v, seed, fu, fv):
    surface = nonuniform_surface(seed, degree_u, degree_v)
    (u0, u1), (v0, v1) = surface.domain
    u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
    h = 1e-6
    # the Hessian jumps across knots, so keep the stencil in one span
    assume(np.min(np.abs(surface.knots_u - u)) > 10 * h)
    assume(np.min(np.abs(surface.knots_v - v)) > 10 * h)
    _, _, _, s_uu, s_uv, s_vv = surface.eval_point(u, v)
    pts = np.array([[u + h, v], [u - h, v], [u, v + h], [u, v - h]])
    gp = de_boor_many(surface, pts)[1]
    hess_fd = np.array([(gp[0] - gp[1]) / (2 * h), (gp[2] - gp[3]) / (2 * h)])
    np.testing.assert_allclose([[s_uu, s_uv], [s_uv, s_vv]], hess_fd,
                               rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("change, match", [
    (lambda d: d.update(knots_u=[0.0] * 8), "zero-width"),
    (lambda d: d.update(knots_v=[-1.0] * 4 + [1.0] * 4, degree_v=4,
                        control_points=[[0.0] * 3] * 4), "zero-width"),
    (lambda d: d["knots_u"].__setitem__(4, float("nan")), "finite"),
    (lambda d: d["knots_v"].__setitem__(-1, float("inf")), "finite"),
    (lambda d: d["control_points"][2].__setitem__(1, float("nan")),
     "control_points must be finite"),
    (lambda d: d["control_points"][0].__setitem__(0, -float("inf")),
     "control_points must be finite"),
    # the last span would be empty: ends repeated degree + 2 times
    (lambda d: d.update(knots_u=[-1.0] * 4 + [1.0] * 5,
                        control_points=[[0.0] * 4] * 5), "clamped"),
], ids=["all-zero-knots", "too-few-knots", "nan-knot", "inf-knot",
        "nan-control", "inf-control", "end-repeated-p+2"])
def test_bad_geometry_rejected(change, match):
    data = {"degree_u": 3, "degree_v": 3,
            "knots_u": [-1.0] * 4 + [1.0] * 4,
            "knots_v": [-1.0] * 4 + [1.0] * 4,
            "control_points": [[0.0] * 4 for _ in range(4)]}
    surface_from_dict(data)
    change(data)
    with pytest.raises(ValueError, match=match):
        BSplineSurface(data["degree_u"], data["degree_v"],
                       np.array(data["knots_u"]), np.array(data["knots_v"]),
                       np.array(data["control_points"]))
    with pytest.raises(ConfigError):
        surface_from_dict(data)


def test_eval_point_domain_checks(curved):
    (ulo, uhi), (vlo, vhi) = curved.domain
    with pytest.raises(OutOfChartError, match="outside domain"):
        curved.eval_point(uhi + 1e-9, 0.0)
    with pytest.raises(OutOfChartError, match="outside domain"):
        curved.eval_point(0.0, vlo - 1e-9)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OutOfChartError, match="not finite"):
            curved.eval_point(bad, 0.0)
    # the domain's corners are inside
    z, g = de_boor_many(curved, np.array([[uhi, vhi]]))
    np.testing.assert_allclose(curved.eval_point(uhi, vhi)[0:3],
                               [z[0], g[0, 0], g[0, 1]], atol=1e-12)


def test_tangent_frame_orthonormal_and_normal_correct(curved):
    pts = sample_points(curved, 500, seed=4)
    frames = curved.tangent_frame_many(pts)
    g = curved.gradient_many(pts)
    eye = np.eye(3)
    for k in range(len(pts)):
        R = frames[k]
        assert np.max(np.abs(R.T @ R - eye)) < 1e-9
        assert np.linalg.det(R) > 0
        n_exact = np.array([-g[k, 0], -g[k, 1], 1.0])
        n_exact /= np.linalg.norm(n_exact)
        assert np.max(np.abs(R[:, 2] - n_exact)) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_frame_rates_match_central_differences(seed):
    # dF/dx_k = F [w_k]_x against central differences of tangent_frame.
    # The difference is off by h^2 |F'''| / 6 from truncation (|F'''|
    # stays below 6 on these slopes) and by about 8 ulp of each entry,
    # which is at most 1, over 2h from rounding.
    surface = make_random_surface(seed, amplitude=1.2)
    h = 1e-4
    tol = h * h + 8 * np.finfo(float).eps / h
    knots = np.concatenate([surface.knots_u, surface.knots_v])
    for t in sample_points(surface, 40, seed=seed):
        # F'' jumps across knots, which spoils the h^2 term, so keep
        # the stencil in one span
        if np.min(np.abs(knots[:, None] - t)) < 10 * h:
            continue
        _, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(*t)
        F = surface.tangent_frame(t)
        rates = frame_rates(s_u, s_uu, s_uv, s_vv, *frame_cos_sin(s_u, s_v))
        for step, (w0, w1, w2) in zip(np.eye(2) * h, rates):
            fd = (surface.tangent_frame(t + step)
                  - surface.tangent_frame(t - step)) / (2 * h)
            skew = np.array([[0.0, -w2, w1], [w2, 0.0, -w0],
                             [-w1, w0, 0.0]])
            assert np.max(np.abs(fd - F @ skew)) < tol


def test_frame_quaternion_matches_matrix(curved):
    # the closed-form frame quaternion q_x(alpha) ⊗ q_y(beta) of the pose
    # model (zero heading, identity extrinsics) against the frame matrix
    from meskf import FilterState, RobotExtrinsics, predict_pose, quat
    pts = sample_points(curved, 200, seed=5)
    ref = quat.from_matrix_many(curved.tangent_frame_many(pts))
    z = curved.elevation_many(pts)
    ident = RobotExtrinsics.identity()
    for k, t in enumerate(pts):
        pos, q = predict_pose(curved, FilterState(t, 0.0, np.eye(3)), ident)
        # same rotation up to sign
        assert abs(abs(q @ ref[k]) - 1.0) < 1e-12
        assert abs(pos[2] - z[k]) < 1e-13


def test_tangent_frame_many_flat_is_identity(flat):
    r = flat.tangent_frame_many(sample_points(flat, 3, seed=11))
    np.testing.assert_allclose(r, np.broadcast_to(np.eye(3), (3, 3, 3)),
                               atol=1e-15)


@pytest.mark.parametrize("make", [
    lambda: load_surface(REFERENCE_SURFACE),
    lambda: nonuniform_surface(3, 2, 4),
    lambda: nonuniform_surface(4, 1, 3),
], ids=["reference", "degree-2x4", "degree-1x3"])
def test_batched_derivatives_are_eval_point(make):
    # every batched derivative query is eval_point's, bit for bit, on
    # knot lines and corners too
    surface = make()
    t = table_test_points(surface, 12)
    rows = [surface.eval_point(u, v) for u, v in t.tolist()]
    z, grad = surface.elevation_gradient_many(t)
    np.testing.assert_array_equal(z, [r[0] for r in rows])
    np.testing.assert_array_equal(surface.elevation_many(t), z)
    np.testing.assert_array_equal(grad, [r[1:3] for r in rows])
    np.testing.assert_array_equal(surface.gradient_many(t), grad)
    np.testing.assert_array_equal(surface.tangent_frame_many(t),
                                  [surface.tangent_frame(p) for p in t])
    (u0, u1), (v0, v1) = surface.domain
    queries = ("gradient_many", "elevation_gradient_many",
               "tangent_frame_many", "elevation_many", "chart_to_world_many")
    for bad, match in (([u0, np.nan], "not finite"),
                       ([np.inf, v0], "not finite"),
                       ([u0, -np.inf], "not finite"),
                       ([u1 + 1e-9, v1], "outside domain"),
                       ([u0, v0 - 1e-9], "outside domain")):
        for name in queries:
            with pytest.raises(OutOfChartError, match=match):
                getattr(surface, name)(np.array([t[0], bad]))


def knot_cloud(surface, where, a, b, rng):
    """Random points, the corners of a box and points on its knot lines
    u = k_u[a] and v = k_v[b]. The box lies inside patch (a, b), across
    one of the knot lines or both, or in the last patch up to its far
    corner (u_max, v_max)."""
    ku, kv = np.unique(surface.knots_u), np.unique(surface.knots_v)
    if where == "max-corner":
        a, b = len(ku) - 2, len(kv) - 2

    def side(k, i, across):
        lo = 0.5 * (k[i - 1] + k[i]) if across else k[i]
        hi = k[i + 1] if where == "max-corner" else 0.5 * (k[i] + k[i + 1])
        return lo, hi

    lo_u, hi_u = side(ku, a, where in ("u-line", "corner"))
    lo_v, hi_v = side(kv, b, where in ("v-line", "corner"))
    pts = rng.uniform([lo_u, lo_v], [hi_u, hi_v], size=(40, 2))
    corners = [[lo_u, lo_v], [lo_u, hi_v], [hi_u, lo_v], [hi_u, hi_v]]
    on_knots = [[ku[a], lo_v], [ku[a], hi_v], [lo_u, kv[b]], [hi_u, kv[b]],
                [ku[a], kv[b]]]
    return np.vstack([pts, corners, on_knots])


@pytest.mark.parametrize("where", ["one-patch", "u-line", "v-line",
                                   "corner", "max-corner"])
@pytest.mark.parametrize("make", [
    lambda: make_random_surface(42, amplitude=0.8),
    lambda: nonuniform_surface(3, 2, 4),
    lambda: nonuniform_surface(4, 1, 3),
], ids=["curved", "degree-2x4", "degree-1x3"])
def test_elevation_many_is_eval_point_on_patch_clouds(make, where):
    # a cloud is evaluated patch by patch from its bounding box; each
    # placement against every interior knot pair, zero-length spans
    # (repeated knots of the nonuniform surfaces) included
    surface = make()
    rng = np.random.default_rng(5)
    n_u, n_v = len(np.unique(surface.knots_u)), len(np.unique(surface.knots_v))
    for a in range(1, n_u - 1):
        for b in range(1, n_v - 1):
            t = knot_cloud(surface, where, a, b, rng)
            ref = [surface.eval_point(u, v)[0] for u, v in t.tolist()]
            z = surface.elevation_many(t)
            np.testing.assert_array_equal(z, ref)
            # a column-major cloud, as sample_sigma_region stores it,
            # gives the same bits
            np.testing.assert_array_equal(
                surface.elevation_many(np.asfortranarray(t)), z)


def test_elevation_many_reports_non_finite_first(curved):
    # the cloud's box is checked as a whole: a non-finite point is
    # reported before a finite one outside the domain, wherever each lies
    (u0, _), (_, v1) = curved.domain
    for cloud in ([[u0 - 1.0, 0.0], [0.0, 0.0], [np.inf, 0.0]],
                  [[0.0, -np.inf], [0.0, v1 + 1.0]],
                  [[0.0, np.nan], [u0 - 1.0, 0.0]]):
        with pytest.raises(OutOfChartError, match="not finite"):
            curved.elevation_many(np.array(cloud))


def test_surfaces_compare_and_hash_by_identity():
    a, b = flat_surface(), flat_surface()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_chart_roundtrip_identity(curved):
    pts = sample_points(curved, 1000, seed=6)
    world = curved.chart_to_world_many(pts)
    np.testing.assert_allclose(world[:, 0:2], pts, atol=1e-13)
    np.testing.assert_allclose(world_to_chart(world.T).T
                               if world.ndim == 1 else
                               np.array([world_to_chart(w) for w in world]),
                               pts, atol=1e-13)
    np.testing.assert_allclose(world[:, 2], curved.elevation_many(pts),
                               atol=1e-13)


def test_flat_surface_is_zero(flat):
    pts = sample_points(flat, 100, seed=7)
    assert np.max(np.abs(flat.elevation_many(pts))) < 1e-12
    assert np.max(np.abs(flat.gradient_many(pts))) < 1e-12


def test_out_of_domain_raises(curved):
    (ulo, uhi), _ = curved.domain
    with pytest.raises(OutOfChartError):
        curved.eval_point(uhi + 1.0, 0.0)


def test_contains(curved):
    (ulo, uhi), (vlo, vhi) = curved.domain
    t = np.array([[0.0, 0.0], [uhi + 0.1, 0.0], [0.0, vlo - 0.1],
                  [ulo, vlo], [uhi, vhi]])
    # closed, like the domain that eval_point accepts
    np.testing.assert_array_equal(curved.contains(t),
                                  [True, False, False, True, True])
    for u, v in t[3:]:
        curved.eval_point(u, v)


def assert_grid_minimum(surface, r):
    """closest_point(r) is no farther from r than any node of a dense
    local grid around the solver's answer."""
    t_star = world_to_chart(surface.closest_point(r))
    span = 0.3
    axis = np.linspace(-span, span, 301)
    gu, gv = np.meshgrid(axis, axis, indexing="ij")
    cand = t_star + np.column_stack([gu.ravel(), gv.ravel()])
    cand = cand[surface.contains(cand)]
    world = surface.chart_to_world_many(cand)
    d_grid = np.min(np.linalg.norm(world - r, axis=1))
    d_star = np.linalg.norm(surface.chart_to_world(t_star) - r)
    assert d_star <= d_grid + 1e-9


class TestClosestPoint:
    def test_grid_search_oracle(self, curved):
        rng = np.random.default_rng(8)
        for k in range(10):
            t0 = rng.uniform(-8, 8, size=2)
            p0 = curved.chart_to_world(t0)
            n = curved.tangent_frame(t0)[:, 2]
            r = p0 + rng.uniform(-0.5, 0.5) * n + rng.normal(0, 0.1, size=3)
            assert_grid_minimum(curved, r)

    @pytest.mark.parametrize("seed, r", [
        (3000, [-1.830536, -9.094496, -2.363524]),
        (3000, [-9.709274, 8.664478, -2.704759]),
        (3001, [-9.666463, -5.065043, 2.54251]),
        (3003, [8.85415, -8.755685, -2.71258]),
    ])
    def test_minimum_on_the_chart_edge(self, seed, r):
        # queries whose closest point lies on an edge of the chart, the
        # descent direction pointing out of it: the edge coordinate stays
        # on its bound while the other one converges along the edge
        surface = make_random_surface(seed, amplitude=0.8)
        assert_grid_minimum(surface, np.array(r))

    def test_newton_matrix_not_positive_definite_falls_back(self):
        # an elliptic bowl S = (0.2 u^2 + 0.15 v^2) / 2, its radii of
        # curvature 5 and 6.7 at the bottom, and queries slightly off the
        # axis, 6 and 7 above the bottom: at the start the Newton matrix
        # J^T J - (r_z - S) Hess S is indefinite, then negative definite
        knots = np.concatenate([[-5.0] * 4, np.linspace(-5, 5, 6)[1:-1],
                                [5.0] * 4])
        g = np.array([knots[i + 1:i + 4].mean() for i in range(8)])
        bowl = surface_from_grid(0.1 * g[:, None] ** 2 + 0.075 * g ** 2,
                                 (-5.0, 5.0), (-5.0, 5.0))
        z, s_u, s_v, s_uu, s_uv, s_vv = bowl.eval_point(0.3, -0.2)
        for height, signs in ((6.0, [-1, 1]), (7.0, [-1, -1])):
            ez = height - z
            newton = [[1 + s_u * s_u - ez * s_uu, s_u * s_v - ez * s_uv],
                      [s_u * s_v - ez * s_uv, 1 + s_v * s_v - ez * s_vv]]
            assert list(np.sign(np.linalg.eigvalsh(newton))) == signs
            assert_grid_minimum(bowl, np.array([0.3, -0.2, height]))

    def test_residual_orthogonality(self, curved):
        rng = np.random.default_rng(9)
        for k in range(50):
            t0 = rng.uniform(-8, 8, size=2)
            r = curved.chart_to_world(t0) + rng.normal(0, 0.2, size=3)
            p = curved.closest_point(r)
            t = world_to_chart(p)
            frame = curved.tangent_frame(t)
            resid = r - p
            # residual has no tangential component at the optimum
            tang = frame[:, 0:2].T @ resid
            assert np.max(np.abs(tang)) < 1e-6

    def test_on_surface_point_is_fixed(self, curved):
        t = np.array([1.3, -2.1])
        p = curved.chart_to_world(t)
        np.testing.assert_allclose(curved.closest_point(p), p, atol=1e-9)

    def test_flat_projection(self, flat):
        r = np.array([2.0, -3.0, 5.0])
        np.testing.assert_allclose(flat.closest_point(r),
                                   [2.0, -3.0, 0.0], atol=1e-12)

    def test_rounding_noise_stops_backtracking(self, surface_calls):
        # the costliest query of trial 0 of bench/lever_curved.json
        # (MP-ESEKF, its A' about 1.3 m from the surface). Gauss-Newton
        # converged only linearly here, and near the optimum, where the
        # cost changes only by rounding, it took 31 evaluations and
        # stopped with a tangential residual of 9.1e-9 at gauss_newton
        surface = load_surface(REFERENCE_SURFACE)
        gauss_newton = np.array([9.513244697239172, -0.7500237946697049,
                                 0.9557095687942184])
        r = np.array([9.438342615744679, -0.7720989523053567,
                      -0.3204277338930861])
        calls = surface_calls("eval_point")
        p = surface.closest_point(r)
        assert len(calls) <= 6
        tang = surface.tangent_frame(world_to_chart(p))[:, 0:2].T @ (r - p)
        assert np.max(np.abs(tang)) < 1e-9
        assert (np.linalg.norm(r - p)
                <= np.linalg.norm(r - gauss_newton) + 1e-12)

    def test_non_finite_query_raises(self, curved):
        for bad in ([np.nan, 0.0, 1.0], [0.0, np.inf, 1.0],
                    [0.0, 0.0, -np.inf]):
            for query in (np.array(bad), tuple(bad)):
                with pytest.raises(ValueError, match="finite"):
                    curved.closest_point(query)

    def test_query_of_any_sequence(self, curved):
        # the query's three numbers are read as floats: an array, a list,
        # a tuple of floats or of ints give the same bits
        p = curved.closest_point(np.array([1.0, -2.0, 3.0]))
        for query in ([1.0, -2.0, 3.0], (1.0, -2.0, 3.0), (1, -2, 3)):
            assert curved.closest_point(query).tobytes() == p.tobytes()

    def test_no_convergence_raises_with_best_iterate(self, curved,
                                                     monkeypatch):
        monkeypatch.setattr("meskf.surface.CLOSEST_POINT_MAX_ITER", 1)
        with pytest.raises(NumericalFailureError) as err:
            curved.closest_point(np.array([3.0, -2.0, 4.0]))
        assert err.value.best.shape == (3,)


def test_save_load_roundtrip(curved, tmp_path):
    path = tmp_path / "surf.json"
    save_surface(curved, path)
    loaded = load_surface(path)
    pts = sample_points(curved, 50, seed=10)
    np.testing.assert_allclose(loaded.elevation_many(pts),
                               curved.elevation_many(pts), atol=1e-14)


def test_surface_from_dict_validation(curved, tmp_path):
    path = tmp_path / "surf.json"
    save_surface(curved, path)
    data = json.loads(path.read_text())
    data["knots_u"] = data["knots_u"][::-1]
    with pytest.raises(Exception):
        surface_from_dict(data)


@settings(max_examples=30, deadline=None)
@given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.integers(0, 10 ** 6))
def test_property_frame_orthonormal_random_surfaces(u, v, seed):
    surface = make_random_surface(seed % 50, amplitude=1.2)
    R = surface.tangent_frame(np.array([u, v]))
    assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9
    g = surface.eval_point(u, v)[1:3]
    n = np.array([-g[0], -g[1], 1.0])
    n /= np.linalg.norm(n)
    assert np.max(np.abs(R[:, 2] - n)) < 1e-9
