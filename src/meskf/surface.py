"""Explicit b-spline elevation surfaces and their chart geometry.

A surface is the graph z = S(u, v) of a clamped tensor-product b-spline
over a rectangular chart domain. Chart points are length-2 arrays (u, v),
world points length-3 arrays (x, y, z). ``eval_point`` answers every
single-point query of S (elevation, gradient, Hessian); the elevation,
gradient, tangent-frame and chart-to-world queries also have a batched
variant operating on (N, 2) arrays.

The chart map is the vertical projection: sigma(x, y, z) = (x, y) and
sigma^{-1}(u, v) = (u, v, S(u, v)).

On each knot-span patch [u_i, u_i+1) x [v_j, v_j+1) the spline is one
polynomial of degree (p, q) (the pp-form: de Boor, *A Practical Guide to
Splines*; Piegl & Tiller, *The NURBS Book*, ch. 2). The surface converts
every patch to power-basis coefficients once, at construction, and
evaluates every query from that table by Horner's rule, in two passes,
one per access pattern: ``eval_point`` in plain floats for one point
(S, its gradient and its Hessian), and ``elevation_many`` vectorised
over a point cloud (S only), once for each patch the cloud covers.
Every derivative comes from ``eval_point``; the batched derivative
queries call it point by point.
"""

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import bspline
from .errors import (NumericalFailureError, OutOfChartError, build, number,
                     read_json, require)

CLOSEST_POINT_MAX_ITER = 50
CLOSEST_POINT_TOL = 1e-10     # chart step, m


@dataclass(frozen=True, eq=False)
class BSplineSurface:
    """Immutable clamped b-spline elevation surface z = S(u, v).

    control_points is an (n+1, m+1) grid of scalar elevations, row index
    running along u. Each end of a knot vector is repeated exactly
    degree + 1 times, so the domain has positive width and its first and
    last knot spans are not empty. Surfaces compare and hash by
    identity.
    """

    degree_u: int
    degree_v: int
    knots_u: np.ndarray
    knots_v: np.ndarray
    control_points: np.ndarray
    # plain floats for the queries: knot lists, the power-basis
    # coefficients c_kl of patch (i, j), in x = u - u_i and y = v - v_j,
    # with both power axes reversed for Horner's rule as
    # _patches[i - p][j - q], the span search ranges (lo_u, hi_u, lo_v,
    # hi_v) for bisect, and the domain (u_min, u_max, v_min, v_max)
    _ku: list = field(init=False, repr=False)
    _kv: list = field(init=False, repr=False)
    _patches: list = field(init=False, repr=False)
    _search: tuple = field(init=False, repr=False)
    _bounds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        ku = np.ascontiguousarray(self.knots_u, dtype=float)
        kv = np.ascontiguousarray(self.knots_v, dtype=float)
        cp = np.ascontiguousarray(self.control_points, dtype=float)
        for name, k, deg in (("knots_u", ku, self.degree_u),
                             ("knots_v", kv, self.degree_v)):
            deg = number(int, deg, f"surface.degree_{name[-1]}", ge=1)
            if k.ndim != 1 or not np.all(np.isfinite(k)):
                raise ValueError(f"{name} must be a finite 1-D sequence")
            if np.any(np.diff(k) < 0):
                raise ValueError(f"{name} must be nondecreasing")
            if len(k) < 2 * deg + 2 or not k[deg] < k[-deg - 1]:
                raise ValueError(f"{name} gives a zero-width domain")
            if not (np.all(k[:deg + 1] == k[0]) and k[deg + 1] > k[0]
                    and np.all(k[-deg - 1:] == k[-1])
                    and k[-deg - 2] < k[-1]):
                raise ValueError(f"{name} must be clamped (ends repeated "
                                 f"exactly degree+1 times)")
        if cp.ndim != 2:
            raise ValueError("control_points must be a 2-D grid")
        if cp.shape != (len(ku) - self.degree_u - 1,
                        len(kv) - self.degree_v - 1):
            raise ValueError("control grid inconsistent with knot counts")
        if not np.all(np.isfinite(cp)):
            raise ValueError("control_points must be finite")
        object.__setattr__(self, "knots_u", ku)
        object.__setattr__(self, "knots_v", kv)
        object.__setattr__(self, "control_points", cp)
        table = _patch_table(cp, ku, self.degree_u, kv, self.degree_v)
        object.__setattr__(self, "_patches",
                           table[:, :, ::-1, ::-1].tolist())
        object.__setattr__(self, "_ku", ku.tolist())
        object.__setattr__(self, "_kv", kv.tolist())
        object.__setattr__(self, "_search",
                           (self.degree_u + 1, len(ku) - self.degree_u - 1,
                            self.degree_v + 1, len(kv) - self.degree_v - 1))
        (u0, u1), (v0, v1) = self.domain
        object.__setattr__(self, "_bounds",
                           (float(u0), float(u1), float(v0), float(v1)))

    @property
    def domain(self):
        """((u_min, u_max), (v_min, v_max)) chart parameter rectangle."""
        return ((self.knots_u[self.degree_u],
                 self.knots_u[-self.degree_u - 1]),
                (self.knots_v[self.degree_v],
                 self.knots_v[-self.degree_v - 1]))

    def contains(self, t: np.ndarray) -> np.ndarray:
        """(N,) mask of the chart points t in the closed domain: the one
        domain rule of the point clouds, formed in place."""
        t = np.atleast_2d(np.asarray(t, dtype=float))
        u, v = t[:, 0], t[:, 1]
        u0, u1, v0, v1 = self._bounds
        keep = u >= u0
        keep &= u <= u1
        keep &= v >= v0
        keep &= v <= v1
        return keep

    def _check_box(self, u_lo: float, u_hi: float, v_lo: float,
                   v_hi: float):
        """Raise OutOfChartError unless the box [u_lo, u_hi] x [v_lo, v_hi]
        lies in the domain; "not finite" comes first when a bound is."""
        u0, u1, v0, v1 = self._bounds
        if not (u0 <= u_lo and u_hi <= u1 and v0 <= v_lo and v_hi <= v1):
            if not all(map(math.isfinite, (u_lo, u_hi, v_lo, v_hi))):
                raise OutOfChartError("chart query is not finite")
            raise OutOfChartError(
                f"chart point outside domain u:[{u0},{u1}] v:[{v0},{v1}]")

    def eval_point(self, u: float, v: float):
        """(S, S_u, S_v, S_uu, S_uv, S_vv) at one chart point.

        Horner's rule in plain floats over the power-basis patch that
        holds (u, v), in y = v - v_j per row and then in x = u - u_i,
        carrying the derivatives along; about ten times cheaper than a
        numpy call for a single point. Raises OutOfChartError like the
        batched queries.
        """
        self._check_box(u, u, v, v)
        lo_u, hi_u, lo_v, hi_v = self._search
        ku, kv = self._ku, self._kv
        # bisect within the interior knots: the clamped span index, with
        # the domain's right end on the last span
        i = bisect.bisect_right(ku, u, lo_u, hi_u)
        j = bisect.bisect_right(kv, v, lo_v, hi_v)
        x, y = u - ku[i - 1], v - kv[j - 1]
        s = s_u = s_v = s_uu = s_uv = s_vv = 0.0
        for row in self._patches[i - lo_u][j - lo_v]:
            w0 = w1 = w2 = 0.0
            for c in row:
                w2 = w2 * y + w1
                w1 = w1 * y + w0
                w0 = w0 * y + c
            s_uu = s_uu * x + s_u
            s_u = s_u * x + s
            s = s * x + w0
            s_uv = s_uv * x + s_v
            s_v = s_v * x + w1
            s_vv = s_vv * x + w2
        return s, s_u, s_v, 2.0 * s_uu, s_uv, 2.0 * s_vv

    # -- elevation / gradient ------------------------------------------------

    def elevation_many(self, t: np.ndarray) -> np.ndarray:
        """(N,) elevations, ``eval_point``'s bit for bit, in a new array.

        The cloud's bounding box gives the patches it covers, by bisect
        on the knots; a sigma-region cloud mostly lies in one. Each
        covered patch is evaluated by Horner's rule over all of its
        points at once, in y = v - v_j along each row and then in
        x = u - u_i.
        """
        t = np.atleast_2d(np.asarray(t, dtype=float))
        u, v = t[:, 0], t[:, 1]
        (u_lo, v_lo), (u_hi, v_hi) = t.min(0).tolist(), t.max(0).tolist()
        self._check_box(u_lo, u_hi, v_lo, v_hi)
        lo_u, hi_u, lo_v, hi_v = self._search
        ku, kv = self._ku, self._kv
        i0 = bisect.bisect_right(ku, u_lo, lo_u, hi_u)
        i1 = bisect.bisect_right(ku, u_hi, lo_u, hi_u)
        j0 = bisect.bisect_right(kv, v_lo, lo_v, hi_v)
        j1 = bisect.bisect_right(kv, v_hi, lo_v, hi_v)
        if i0 == i1 and j0 == j1:
            return self._patch_elevation(i0, j0, u, v)
        z = np.empty(len(t))
        strips_v = _strips(v, kv, j0, j1)
        for i, in_i in enumerate(_strips(u, ku, i0, i1), i0):
            for j, in_j in enumerate(strips_v, j0):
                k = np.flatnonzero(in_i & in_j)
                if len(k):
                    z[k] = self._patch_elevation(i, j, u[k], v[k])
        return z

    def _patch_elevation(self, i: int, j: int, u: np.ndarray,
                         v: np.ndarray) -> np.ndarray:
        """Elevations at points of patch (i, j), with i and j the span
        indices that ``eval_point``'s bisect gives."""
        x, y = u - self._ku[i - 1], v - self._kv[j - 1]
        z = None
        for row in self._patches[i - self._search[0]][j - self._search[2]]:
            w = row[0] * y
            w += row[1]
            for c in row[2:]:
                w *= y
                w += c
            if z is None:
                z = w
            else:
                z *= x
                z += w
        return z

    def gradient_many(self, t: np.ndarray) -> np.ndarray:
        """(N, 2) array of (dS/du, dS/dv), exact analytic derivatives."""
        return self.elevation_gradient_many(t)[1]

    def elevation_gradient_many(self, t: np.ndarray):
        """(z, grad) of shapes (N,) and (N, 2): ``eval_point``'s at each
        point, which raises OutOfChartError at the first one outside the
        chart."""
        t = np.atleast_2d(np.asarray(t, dtype=float))
        zg = np.array([self.eval_point(u, v)[:3] for u, v in t.tolist()])
        return zg[:, 0], zg[:, 1:3]

    # -- chart maps ----------------------------------------------------------

    def chart_to_world_many(self, t: np.ndarray) -> np.ndarray:
        """(N, 3) world points. No caller in the package: it stays as a
        layer boundary that the benchmark's tracer names."""
        t = np.atleast_2d(np.asarray(t, dtype=float))
        z = self.elevation_many(t)
        return np.column_stack([t, z])

    def chart_to_world(self, t: np.ndarray) -> np.ndarray:
        u, v = float(t[0]), float(t[1])
        return np.array([u, v, self.eval_point(u, v)[0]])

    # -- tangent frames ------------------------------------------------------

    def tangent_frame_many(self, t: np.ndarray) -> np.ndarray:
        """(N, 3, 3) rotation matrices [B1' | B2' | N'] at chart points.

        Composed as R_x(alpha) R_y(beta) with alpha = arctan(dS/dv) and
        beta = -arctan(dS/du * cos(alpha)), which makes the third column
        the exact unit upward normal of z = S(u, v). Each frame is
        ``tangent_frame``'s, built on floats.
        """
        g = self.gradient_many(t).tolist()
        return np.array([frame_matrix(*frame_cos_sin(s_u, s_v))
                         for s_u, s_v in g])

    def tangent_frame(self, t: np.ndarray) -> np.ndarray:
        _, s_u, s_v = self.eval_point(float(t[0]), float(t[1]))[:3]
        return np.array(frame_matrix(*frame_cos_sin(s_u, s_v)))

    # -- closest point -------------------------------------------------------

    def closest_point(self, r: np.ndarray) -> np.ndarray:
        """Local minimizer of ||r - sigma^{-1}(t)|| by damped Newton.

        The Newton matrix is J^T J - (r_z - S) Hess S, with J the
        Jacobian [[1, 0], [0, 1], [S_u, S_v]] (point inversion: Piegl &
        Tiller, *The NURBS Book*, sec. 6.1); where it is not positive
        definite, the step is Gauss-Newton's, on J^T J alone.

        Initialized at the vertical projection of r; iterates are clipped
        to the chart domain. A coordinate on a bound that the descent
        direction points past stays on it, and the other coordinate takes
        its own one-dimensional step. The search ends when the step norm,
        or the damped step, drops below CLOSEST_POINT_TOL, or when
        backtracking finds no lower cost before the damped step does; the
        cost then differs from its neighbours' only by rounding. Raises
        NumericalFailureError (carrying the best iterate) if none of this
        happens within CLOSEST_POINT_MAX_ITER iterations. The search is
        ``_closest_point``, which also returns the last iterate's S_u, S_v.
        """
        return np.array(self._closest_point(r)[:3])

    def _closest_point(self, r):
        """``closest_point``'s (u, v, S) and (S_u, S_v) there, as floats."""
        rx, ry, rz = map(float, r)
        if not all(map(math.isfinite, (rx, ry, rz))):
            raise ValueError("query point must be finite")
        u0, u1, v0, v1 = self._bounds
        u, v = min(max(rx, u0), u1), min(max(ry, v0), v1)
        z, gu, gv, huu, huv, hvv = self.eval_point(u, v)
        cost = (rx - u) ** 2 + (ry - v) ** 2 + (rz - z) ** 2
        for _ in range(CLOSEST_POINT_MAX_ITER):
            ez = rz - z
            b0 = rx - u + gu * ez
            b1 = ry - v + gv * ez
            a00, a01, a11 = 1.0 + gu * gu, gu * gv, 1.0 + gv * gv
            n00, n01, n11 = a00 - ez * huu, a01 - ez * huv, a11 - ez * hvv
            if n00 > 0.0 and n00 * n11 > n01 * n01:
                a00, a01, a11 = n00, n01, n11
            # b is the descent direction; a coordinate on a bound that b
            # points past stays there, and the other one steps alone
            hold_u = (u == u0 and b0 < 0.0) or (u == u1 and b0 > 0.0)
            hold_v = (v == v0 and b1 < 0.0) or (v == v1 and b1 > 0.0)
            if hold_u or hold_v:
                du = 0.0 if hold_u else b0 / a00
                dv = 0.0 if hold_v else b1 / a11
            else:
                det = a00 * a11 - a01 * a01
                du = (a11 * b0 - a01 * b1) / det
                dv = (a00 * b1 - a01 * b0) / det
            step = math.hypot(du, dv)
            if step < CLOSEST_POINT_TOL:
                return u, v, z, gu, gv
            # backtracking damping on the squared residual, until the
            # cost falls or the damped step is below the tolerance: then
            # there is no descent left above the cost's rounding
            lam = 1.0
            while True:
                u_new = min(max(u + lam * du, u0), u1)
                v_new = min(max(v + lam * dv, v0), v1)
                new = self.eval_point(u_new, v_new)
                cost_new = ((rx - u_new) ** 2 + (ry - v_new) ** 2
                            + (rz - new[0]) ** 2)
                if cost_new <= cost:
                    break
                lam *= 0.5
                # "not >=": with an infinite step, lam underflows to 0 and
                # the NaN product ends the loop too
                if not lam * step >= CLOSEST_POINT_TOL:
                    return u, v, z, gu, gv
            moved = math.hypot(u_new - u, v_new - v)
            u, v, cost = u_new, v_new, cost_new
            z, gu, gv, huu, huv, hvv = new
            if lam * step < CLOSEST_POINT_TOL or moved < CLOSEST_POINT_TOL:
                return u, v, z, gu, gv
        raise NumericalFailureError(
            "closest-point iteration did not converge",
            best=np.array([u, v, z]))


def _strips(x: np.ndarray, knots: list, first: int, last: int) -> list:
    """Masks of the points x in each span first..last of a box, as
    bisect assigns them: knots[i-1] <= x < knots[i], the box's first
    and last span unbounded below and above."""
    edges = [-math.inf] + knots[first:last] + [math.inf]
    return [(x >= a) & (x < b) for a, b in zip(edges, edges[1:])]


def _power_basis(knots: np.ndarray, degree: int) -> np.ndarray:
    """Power-basis form of the basis functions on every knot span.

    Returns A of shape (n_spans, p+1, p+1) over the spans i = p..n with
    N_{i-p+a}(u) = sum_k A[i-p, a, k] (u - knots[i])^k on span i. The
    coefficients are the exact Taylor terms N^(k)(knots[i]) / k!: the
    k-th derivative of a spline of degree p is a spline of degree p - k
    whose coefficients are k-fold differences
    Q_m = d (P_m - P_{m-1}) / (t_{m+d} - t_m), d = p, p-1, ... (Piegl &
    Tiller, sec. 3.3), evaluated with ``bspline.basis_values`` at the
    span's left knot. Inside a span every difference has a positive
    denominator. Zero-length spans, which no span lookup selects, stay
    zero.
    """
    p = degree
    width = knots[p + 1:len(knots) - p] - knots[p:len(knots) - p - 1]
    live = np.flatnonzero(width > 0)
    spans = live + p
    x = knots[spans]
    # rows: local degree-d coefficients Q_{i-d..i}, as maps of P_{i-p..i}
    diff = np.broadcast_to(np.eye(p + 1), (len(live), p + 1, p + 1))
    A = np.zeros((len(width), p + 1, p + 1))
    for k in range(p + 1):
        d = p - k
        basis = bspline.basis_values(knots, d, spans, x)
        A[live, :, k] = (np.einsum("sm,sma->sa", basis, diff)
                         / math.factorial(k))
        if d:
            m = spans[:, None] - d + 1 + np.arange(d)
            step = d / (knots[m + d] - knots[m])
            diff = step[:, :, None] * (diff[:, 1:] - diff[:, :-1])
    return A


def _patch_table(control: np.ndarray, knots_u: np.ndarray, degree_u: int,
                 knots_v: np.ndarray, degree_v: int) -> np.ndarray:
    """(n_spans_u, n_spans_v, p+1, q+1) power-basis coefficients.

    Patch (i, j) is A_u^T P A_v over its (p+1) x (q+1) control points,
    so S(u, v) = sum_kl c_kl x^k y^l with x = u - u_i and y = v - v_j.
    """
    A_u = _power_basis(knots_u, degree_u)
    A_v = _power_basis(knots_v, degree_v)
    iu = np.arange(len(A_u))[:, None] + np.arange(degree_u + 1)
    iv = np.arange(len(A_v))[:, None] + np.arange(degree_v + 1)
    P = control[iu[:, None, :, None], iv[None, :, None, :]]
    return np.einsum("iak,ijab,jbl->ijkl", A_u, P, A_v, optimize=True)


def frame_cos_sin(s_u, s_v):
    """(cos a, sin a, cos b, sin b) of the frame angles at a gradient.

    a = arctan(S_v) and b = -arctan(S_u cos a), both in (-pi/2, pi/2),
    written without trigonometric calls. Takes floats or arrays.
    """
    ca = (1.0 + s_v * s_v) ** -0.5
    w = s_u * ca
    cb = (1.0 + w * w) ** -0.5
    return ca, s_v * ca, cb, -w * cb


def frame_angle_derivatives(s_u, s_uu, s_uv, s_vv, ca, sa, cb):
    """((da/du, db/du), (da/dv, db/dv)) of the frame angles.

    From the Hessian of S: da = dS_v cos^2 a and
    db = -(dS_u cos a - S_u sin a da) cos^2 b, the derivatives of
    arctan(S_v) and -arctan(S_u cos a).
    """
    k_a, k_b = ca * ca, cb * cb
    da_u, da_v = s_uv * k_a, s_vv * k_a
    return ((da_u, -k_b * (s_uu * ca - s_u * sa * da_u)),
            (da_v, -k_b * (s_uv * ca - s_u * sa * da_v)))


def frame_rates(s_u, s_uu, s_uv, s_vv, ca, sa, cb, sb):
    """(w_u, w_v): the frame's turn per unit u and per unit v.

    The frame F = R_x(a) R_y(b) moves with the chart position as
    dF/dx_k = F [w_k]_x, in its own axes, with
    w_k = (cos b da/dx_k, db/dx_k, sin b da/dx_k): R_y(b)^T e_1 da
    from the turn about x, e_2 db from the turn about y.
    """
    (da_u, db_u), (da_v, db_v) = frame_angle_derivatives(
        s_u, s_uu, s_uv, s_vv, ca, sa, cb)
    return (cb * da_u, db_u, sb * da_u), (cb * da_v, db_v, sb * da_v)


def frame_matrix(ca, sa, cb, sb):
    """Rows of R_x(a) R_y(b) = [B1' | B2' | N'] from the angles' cos/sin."""
    return ((cb, 0.0, sb),
            (sa * sb, ca, -sa * cb),
            (-ca * sb, sa, ca * cb))


def world_to_chart(p: np.ndarray) -> np.ndarray:
    """Chart map sigma: drop the elevation coordinate."""
    p = np.asarray(p, dtype=float)
    return p[..., :2].copy()


def flat_surface(extent: float = 10.0, size: int = 4,
                 degree: int = 3) -> BSplineSurface:
    """Zero-elevation surface over [-extent, extent]^2, handy in tests."""
    return surface_from_grid(np.zeros((size + degree, size + degree)),
                             (-extent, extent), (-extent, extent), degree)


def surface_from_grid(control: np.ndarray, u_range, v_range,
                      degree: int = 3) -> BSplineSurface:
    """Build a clamped surface with uniformly spaced interior knots."""
    control = np.asarray(control, dtype=float)

    def clamped(n_ctrl, lo, hi, deg):
        n_int = n_ctrl - deg - 1
        inner = np.linspace(lo, hi, n_int + 2)[1:-1]
        return np.concatenate([[lo] * (deg + 1), inner, [hi] * (deg + 1)])

    return BSplineSurface(
        degree_u=degree, degree_v=degree,
        knots_u=clamped(control.shape[0], *u_range, degree),
        knots_v=clamped(control.shape[1], *v_range, degree),
        control_points=control)


def load_surface(path) -> BSplineSurface:
    """Load a surface definition JSON file.

    Schema: {"degree_u": int, "degree_v": int, "knots_u": [...],
    "knots_v": [...], "control_points": [[...]]} with the control grid
    row-major in u.
    """
    return surface_from_dict(read_json(path))


def surface_from_dict(data: dict) -> BSplineSurface:
    return build(BSplineSurface, {
        key: require(data, key, "surface") for key in (
            "degree_u", "degree_v", "knots_u", "knots_v", "control_points")},
        "surface")


def save_surface(surface: BSplineSurface, path):
    data = {
        "degree_u": surface.degree_u,
        "degree_v": surface.degree_v,
        "knots_u": surface.knots_u.tolist(),
        "knots_v": surface.knots_v.tolist(),
        "control_points": surface.control_points.tolist(),
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
