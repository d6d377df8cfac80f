"""B-spline basis tests against a naive recursive Cox-de Boor oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meskf.bspline import (basis_and_derivatives, basis_values, find_spans,
                           point_basis_ders2, tensor_eval)


def naive_basis(knots, i, p, x):
    """Textbook recursive basis function N_{i,p}(x)."""
    if p == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    out = 0.0
    d1 = knots[i + p] - knots[i]
    if d1 > 0:
        out += (x - knots[i]) / d1 * naive_basis(knots, i, p - 1, x)
    d2 = knots[i + p + 1] - knots[i + 1]
    if d2 > 0:
        out += (knots[i + p + 1] - x) / d2 * naive_basis(knots, i + 1, p - 1, x)
    return out


def clamped_knots(n_ctrl, degree, lo=-5.0, hi=5.0):
    interior = np.linspace(lo, hi, n_ctrl - degree + 1)
    return np.concatenate([[lo] * degree, interior, [hi] * degree])


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_basis_matches_naive_recursion(degree):
    n_ctrl = degree + 5
    knots = clamped_knots(n_ctrl, degree)
    rng = np.random.default_rng(degree)
    xs = rng.uniform(-4.99, 4.99, size=50)
    spans = find_spans(knots, degree, xs)
    vals = basis_values(knots, degree, spans, xs)
    for k, x in enumerate(xs):
        s = spans[k]
        expected = [naive_basis(knots, s - degree + j, degree, x)
                    for j in range(degree + 1)]
        np.testing.assert_allclose(vals[k], expected, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_basis_partition_of_unity(degree):
    n_ctrl = degree + 7
    knots = clamped_knots(n_ctrl, degree)
    xs = np.linspace(-5.0, 5.0, 101)
    spans = find_spans(knots, degree, xs)
    vals = basis_values(knots, degree, spans, xs)
    np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(vals >= -1e-14)


def test_find_spans_edges():
    degree = 3
    knots = clamped_knots(8, degree)
    spans = find_spans(knots, degree, np.array([-5.0, 5.0]))
    # span index stays within the valid clamped range at both ends
    assert spans[0] == degree
    assert spans[1] == len(knots) - degree - 2
    # knot interval actually contains the query (right end inclusive)
    assert knots[spans[0]] <= -5.0 <= knots[spans[0] + 1]
    assert knots[spans[1]] <= 5.0 <= knots[spans[1] + 1]


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_derivatives_match_finite_differences(degree):
    n_ctrl = degree + 6
    knots = clamped_knots(n_ctrl, degree)
    rng = np.random.default_rng(100 + degree)
    xs = rng.uniform(-4.5, 4.5, size=40)
    h = 1e-7
    spans = find_spans(knots, degree, xs)
    _, ders = basis_and_derivatives(knots, degree, spans, xs)
    vp = basis_values(knots, degree, find_spans(knots, degree, xs + h), xs + h)
    vm = basis_values(knots, degree, find_spans(knots, degree, xs - h), xs - h)
    # FD only valid when the span does not change across the step
    same = (find_spans(knots, degree, xs + h)
            == find_spans(knots, degree, xs - h))
    fd = (vp[same] - vm[same]) / (2 * h)
    np.testing.assert_allclose(ders[same], fd, atol=5e-6)


def test_values_consistent_between_apis():
    degree = 3
    knots = clamped_knots(9, degree)
    xs = np.linspace(-5, 5, 33)
    spans = find_spans(knots, degree, xs)
    v1 = basis_values(knots, degree, spans, xs)
    v2, _ = basis_and_derivatives(knots, degree, spans, xs)
    np.testing.assert_allclose(v1, v2, atol=1e-14)


def test_derivative_sums_to_zero():
    # d/dx of the partition of unity is zero
    degree = 3
    knots = clamped_knots(10, degree)
    xs = np.linspace(-4.9, 4.9, 57)
    spans = find_spans(knots, degree, xs)
    _, ders = basis_and_derivatives(knots, degree, spans, xs)
    np.testing.assert_allclose(ders.sum(axis=1), 0.0, atol=1e-12)


def test_tensor_eval_matches_naive_double_sum():
    degree = 3
    ku = clamped_knots(7, degree)
    kv = clamped_knots(8, degree)
    rng = np.random.default_rng(7)
    cp = rng.standard_normal((7, 8))
    pts = rng.uniform(-4.9, 4.9, size=(20, 2))
    got = tensor_eval(cp, ku, degree, kv, degree, pts[:, 0], pts[:, 1])
    for k, (u, v) in enumerate(pts):
        ref = sum(naive_basis(ku, i, degree, u) * naive_basis(kv, j, degree, v)
                  * cp[i, j] for i in range(7) for j in range(8))
        assert abs(got[k] - ref) < 1e-11


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_point_basis_matches_array_basis(degree):
    knots = clamped_knots(9, degree)
    xs = np.concatenate([np.linspace(-5.0, 5.0, 41), [-5.0, 5.0]])
    spans = find_spans(knots, degree, xs)
    vals, ders = basis_and_derivatives(knots, degree, spans, xs)
    h = 1e-6
    for k, x in enumerate(xs):
        span, n0, n1, n2 = point_basis_ders2(knots.tolist(), degree, x)
        assert span == spans[k]
        np.testing.assert_allclose(n0, vals[k], atol=1e-14)
        np.testing.assert_allclose(n1, ders[k], atol=1e-12)
        # second derivative against differences of the first, in-span
        lo, hi = knots[span], knots[span + 1]
        xp, xm = min(x + h, hi), max(x - h, lo)
        sp = np.array([span])
        dp = basis_and_derivatives(knots, degree, sp, np.array([xp]))[1][0]
        dm = basis_and_derivatives(knots, degree, sp, np.array([xm]))[1][0]
        np.testing.assert_allclose(n2, (dp - dm) / (xp - xm), atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(st.floats(-5.0, 5.0), st.integers(1, 4))
def test_property_partition_and_local_support(x, degree):
    knots = clamped_knots(degree + 6, degree)
    xs = np.array([x])
    spans = find_spans(knots, degree, xs)
    vals, ders = basis_and_derivatives(knots, degree, spans, xs)
    assert abs(vals.sum() - 1.0) < 1e-12
    assert abs(ders.sum()) < 1e-10
    assert np.all(vals >= -1e-14)
