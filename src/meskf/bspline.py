"""Clamped b-spline basis evaluation (Cox-de Boor).

The array routines accept arrays of query points and return the
non-vanishing basis values together with the knot span indices so that
tensor-product surfaces can gather their control points with fancy
indexing.

``surface.BSplineSurface`` calls ``basis_values`` once, when it builds
its power-basis patch table; every surface query is then evaluated from
that table, and finds its knot span with ``bisect``. The other routines
have no caller in the package. ``find_spans`` (the array span search),
``basis_and_derivatives`` (array values and first derivatives),
``tensor_eval`` (the tensor-product sum) and ``point_basis_ders2`` (the
plain-float recurrence for one parameter value, with second derivatives)
remain as the tests' independent oracle for the table and as layer
boundaries that the benchmark's tracer names.
"""

import bisect

import numpy as np


def find_spans(knots: np.ndarray, degree: int, x: np.ndarray) -> np.ndarray:
    """Knot span index i such that knots[i] <= x < knots[i+1].

    The last valid span is returned for x at the right end of the domain,
    matching the clamped-spline convention. No caller in the package:
    a test oracle and a layer boundary that the benchmark's tracer names.
    """
    lo = degree
    hi = len(knots) - degree - 2
    spans = np.searchsorted(knots, x, side="right") - 1
    return np.clip(spans, lo, hi)


def basis_values(knots: np.ndarray, degree: int, spans: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """Non-vanishing basis functions N_{span-degree+j,degree}(x), j=0..degree.

    Vectorized form of the standard triangular recurrence; returns an
    array of shape (len(x), degree + 1).
    """
    n = x.shape[0]
    vals = np.ones((n, degree + 1))
    left = np.empty((n, degree + 1))
    right = np.empty((n, degree + 1))
    for j in range(1, degree + 1):
        left[:, j] = x - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - x
        saved = np.zeros(n)
        for r in range(j):
            denom = right[:, r + 1] + left[:, j - r]
            temp = vals[:, r] / denom
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    return vals


def basis_and_derivatives(knots: np.ndarray, degree: int, spans: np.ndarray,
                          x: np.ndarray):
    """Basis values and first derivatives.

    The degree-(p-1) basis functions on the same spans give the analytic
    derivative
    N'_{i,p} = p (N_{i,p-1}/(t_{i+p}-t_i) - N_{i+1,p-1}/(t_{i+p+1}-t_{i+1})).
    Returns (values, derivatives), each (len(x), degree + 1).
    """
    n = x.shape[0]
    vals = basis_values(knots, degree, spans, x)
    lower = basis_values(knots, degree - 1, spans, x)
    offs = np.arange(degree + 1)
    i = spans[:, None] - degree + offs          # basis indices, (n, p+1)
    dt_lo = knots[i + degree] - knots[i]
    dt_hi = knots[i + degree + 1] - knots[i + 1]
    # lower-degree values aligned with i (zero outside their support)
    lo = np.zeros((n, degree + 2))
    lo[:, 1:degree + 1] = lower
    with np.errstate(divide="ignore", invalid="ignore"):
        term_lo = np.where(dt_lo > 0, lo[:, :degree + 1] / dt_lo, 0.0)
        term_hi = np.where(dt_hi > 0, lo[:, 1:] / dt_hi, 0.0)
    return vals, degree * (term_lo - term_hi)


def tensor_eval(control: np.ndarray,
                knots_u: np.ndarray, degree_u: int,
                knots_v: np.ndarray, degree_v: int,
                u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Evaluate sum_ij P_ij N_i(u) N_j(v) at paired points (u, v)."""
    su = find_spans(knots_u, degree_u, u)
    sv = find_spans(knots_v, degree_v, v)
    bu = basis_values(knots_u, degree_u, su, u)
    bv = basis_values(knots_v, degree_v, sv, v)
    iu = su[:, None] - degree_u + np.arange(degree_u + 1)
    iv = sv[:, None] - degree_v + np.arange(degree_v + 1)
    cp = control[iu[:, :, None], iv[:, None, :]]
    return np.einsum("ni,nij,nj->n", bu, cp, bv)


def point_basis_ders2(knots: list, degree: int, x: float):
    """Span, then values, first and second derivatives of the p+1
    non-vanishing basis functions at one parameter value.

    ``knots`` is a plain list of floats. Runs the triangular recurrence
    once, carrying derivatives along: with
    t_r = N_{i,j-1} / (knots[i+j] - knots[i]) the degree-j derivative is
    N'_{i,j} = j (t_{r-1} - t_r), and the same step applied to the
    degree-(j-1) derivatives gives N''_{i,j} (Piegl & Tiller, *The NURBS
    Book*, eq. 2.9 and alg. A2.3). Inside the span every denominator is
    positive, so no zero-length-interval guard is needed. Returns
    (span, values, first, second), each list of length degree + 1.
    """
    span = bisect.bisect_right(knots, x) - 1
    hi = len(knots) - degree - 2
    if span < degree:
        span = degree
    elif span > hi:
        span = hi
    vals, d1, d2 = [1.0], [0.0], [0.0]
    for j in range(1, degree + 1):
        nv, n1, n2 = [], [], []
        saved = prev = prev1 = 0.0
        for r in range(j):
            a = knots[span + 1 + r - j]
            b = knots[span + 1 + r]
            inv = 1.0 / (b - a)
            t = vals[r] * inv
            t1 = d1[r] * inv
            nv.append(saved + (b - x) * t)
            n1.append(j * (prev - t))
            n2.append(j * (prev1 - t1))
            saved = (x - a) * t
            prev, prev1 = t, t1
        nv.append(saved)
        n1.append(j * prev)
        n2.append(j * prev1)
        vals, d1, d2 = nv, n1, n2
    return span, vals, d1, d2
