"""Explicit b-spline elevation surfaces and their chart geometry.

A surface is the graph z = S(u, v) of a clamped tensor-product b-spline
over a rectangular chart domain. Chart points are length-2 arrays (u, v),
world points length-3 arrays (x, y, z). Every query also has a batched
variant operating on (N, 2) / (N, 3) arrays.

The chart map is the vertical projection: sigma(x, y, z) = (x, y) and
sigma^{-1}(u, v) = (u, v, S(u, v)).

Single-point queries run on ``eval_point``, a plain-float evaluation of
S, its gradient and its Hessian; the ``_many`` variants use numpy and
pay off for point clouds.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import bspline
from .errors import ConfigError, NumericalFailureError, OutOfChartError

CHART_JACOBIAN = np.array([[1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0]])
CLOSEST_POINT_MAX_ITER = 50
CLOSEST_POINT_TOL = 1e-10     # chart step, m


@dataclass(frozen=True)
class BSplineSurface:
    """Immutable clamped b-spline elevation surface z = S(u, v).

    control_points is an (n+1, m+1) grid of scalar elevations, row index
    running along u. Elevation and gradient are evaluated in one fused
    basis-recurrence pass so joint queries cost little more than either
    alone.
    """

    degree_u: int
    degree_v: int
    knots_u: np.ndarray
    knots_v: np.ndarray
    control_points: np.ndarray
    _offs_u: np.ndarray = field(init=False, repr=False)
    _offs_v: np.ndarray = field(init=False, repr=False)
    # plain-float copies for eval_point: knot lists, control rows, and
    # the domain (u_min, u_max, v_min, v_max)
    _ku: list = field(init=False, repr=False, compare=False)
    _kv: list = field(init=False, repr=False, compare=False)
    _rows: list = field(init=False, repr=False, compare=False)
    _bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ku = np.ascontiguousarray(self.knots_u, dtype=float)
        kv = np.ascontiguousarray(self.knots_v, dtype=float)
        cp = np.ascontiguousarray(self.control_points, dtype=float)
        for name, k, deg in (("knots_u", ku, self.degree_u),
                             ("knots_v", kv, self.degree_v)):
            if deg < 1:
                raise ValueError(f"degree for {name} must be >= 1")
            if np.any(np.diff(k) < 0):
                raise ValueError(f"{name} must be nondecreasing")
            if not (np.all(k[:deg + 1] == k[0])
                    and np.all(k[-deg - 1:] == k[-1])):
                raise ValueError(f"{name} must be clamped (ends repeated "
                                 f"degree+1 times)")
        if cp.ndim != 2:
            raise ValueError("control_points must be a 2-D grid")
        if cp.shape != (len(ku) - self.degree_u - 1,
                        len(kv) - self.degree_v - 1):
            raise ValueError("control grid inconsistent with knot counts")
        object.__setattr__(self, "knots_u", ku)
        object.__setattr__(self, "knots_v", kv)
        object.__setattr__(self, "control_points", cp)
        object.__setattr__(self, "_offs_u", np.arange(self.degree_u + 1))
        object.__setattr__(self, "_offs_v", np.arange(self.degree_v + 1))
        object.__setattr__(self, "_ku", ku.tolist())
        object.__setattr__(self, "_kv", kv.tolist())
        object.__setattr__(self, "_rows", cp.tolist())
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
        t = np.atleast_2d(np.asarray(t, dtype=float))
        (u0, u1), (v0, v1) = self.domain
        return ((t[:, 0] >= u0) & (t[:, 0] <= u1)
                & (t[:, 1] >= v0) & (t[:, 1] <= v1))

    def _check_domain(self, t2: np.ndarray):
        if not np.all(np.isfinite(t2)):
            raise OutOfChartError("chart query is not finite")
        (u0, u1), (v0, v1) = self.domain
        if (t2[:, 0].min() < u0 or t2[:, 0].max() > u1
                or t2[:, 1].min() < v0 or t2[:, 1].max() > v1):
            raise OutOfChartError(
                f"chart point outside domain u:[{u0},{u1}] v:[{v0},{v1}]")

    def _check_point(self, u: float, v: float):
        """Scalar form of ``_check_domain``, same errors."""
        u0, u1, v0, v1 = self._bounds
        if not (u0 <= u <= u1 and v0 <= v <= v1):
            if not (math.isfinite(u) and math.isfinite(v)):
                raise OutOfChartError("chart query is not finite")
            raise OutOfChartError(
                f"chart point outside domain u:[{u0},{u1}] v:[{v0},{v1}]")

    def eval_point(self, u: float, v: float):
        """(S, S_u, S_v, S_uu, S_uv, S_vv) at one chart point.

        Plain-float tensor-product evaluation over the (p+1) x (q+1)
        non-vanishing basis functions; about ten times cheaper than a
        numpy call for a single point. Raises OutOfChartError like the
        batched queries.
        """
        self._check_point(u, v)
        pu, pv = self.degree_u, self.degree_v
        su, nu, du, ddu = bspline.point_basis_ders2(self._ku, pu, u)
        sv, nv, dv, ddv = bspline.point_basis_ders2(self._kv, pv, v)
        j0 = sv - pv
        s = s_u = s_v = s_uu = s_uv = s_vv = 0.0
        for a, row in enumerate(self._rows[su - pu:su + 1]):
            w0 = w1 = w2 = 0.0
            for b in range(pv + 1):
                c = row[j0 + b]
                w0 += c * nv[b]
                w1 += c * dv[b]
                w2 += c * ddv[b]
            n, d = nu[a], du[a]
            s += n * w0
            s_u += d * w0
            s_v += n * w1
            s_uu += ddu[a] * w0
            s_uv += d * w1
            s_vv += n * w2
        return s, s_u, s_v, s_uu, s_uv, s_vv

    # -- elevation / gradient ------------------------------------------------

    def _eval_fused(self, t: np.ndarray):
        """Elevation and exact analytic gradient in one basis pass.

        Returns (z, grad) with z of shape (N,) and grad of shape (N, 2);
        the path behind every batched geometry query. Assumes t is
        already a validated (N, 2) float array.
        """
        u, v = t[:, 0], t[:, 1]
        su = bspline.find_spans(self.knots_u, self.degree_u, u)
        sv = bspline.find_spans(self.knots_v, self.degree_v, v)
        bu, du = bspline.basis_and_derivatives(self.knots_u, self.degree_u,
                                               su, u)
        bv, dv = bspline.basis_and_derivatives(self.knots_v, self.degree_v,
                                               sv, v)
        iu = su[:, None] - self.degree_u + self._offs_u
        iv = sv[:, None] - self.degree_v + self._offs_v
        cp = self.control_points[iu[:, :, None], iv[:, None, :]]
        wb = np.matmul(cp, bv[:, :, None])[:, :, 0]
        wd = np.matmul(cp, dv[:, :, None])[:, :, 0]
        z = np.einsum("ni,ni->n", bu, wb)
        grad = np.stack([np.einsum("ni,ni->n", du, wb),
                         np.einsum("ni,ni->n", bu, wd)], axis=1)
        return z, grad

    def elevation_many(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_2d(np.asarray(t, dtype=float))
        self._check_domain(t)
        return bspline.tensor_eval(self.control_points,
                                   self.knots_u, self.degree_u,
                                   self.knots_v, self.degree_v,
                                   t[:, 0], t[:, 1])

    def elevation(self, t: np.ndarray) -> float:
        return self.eval_point(float(t[0]), float(t[1]))[0]

    def gradient_many(self, t: np.ndarray) -> np.ndarray:
        """(N, 2) array of (dS/du, dS/dv), exact analytic derivatives."""
        t = np.atleast_2d(np.asarray(t, dtype=float))
        self._check_domain(t)
        return self._eval_fused(t)[1]

    def gradient(self, t: np.ndarray) -> np.ndarray:
        return np.array(self.eval_point(float(t[0]), float(t[1]))[1:3])

    def elevation_gradient_many(self, t: np.ndarray):
        """(z, grad) in one call; cheaper than two separate queries."""
        t = np.atleast_2d(np.asarray(t, dtype=float))
        self._check_domain(t)
        return self._eval_fused(t)

    # -- chart maps ----------------------------------------------------------

    def chart_to_world_many(self, t: np.ndarray) -> np.ndarray:
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
        the exact unit upward normal of z = S(u, v).
        """
        g = self.gradient_many(t)
        return _frames_from_gradient(g)

    def tangent_frame(self, t: np.ndarray) -> np.ndarray:
        _, s_u, s_v = self.eval_point(float(t[0]), float(t[1]))[:3]
        return np.array(frame_matrix(*frame_cos_sin(s_u, s_v)))

    def normal(self, t: np.ndarray) -> np.ndarray:
        return self.tangent_frame(t)[:, 2]

    # -- closest point -------------------------------------------------------

    def closest_point(self, r: np.ndarray) -> np.ndarray:
        """Local minimizer of ||r - sigma^{-1}(t)|| by damped Gauss-Newton.

        Initialized at the vertical projection of r; iterates are clipped
        to the chart domain. Raises NumericalFailureError (carrying the
        best iterate) if the step norm does not drop below
        CLOSEST_POINT_TOL within CLOSEST_POINT_MAX_ITER iterations.
        """
        r = np.asarray(r, dtype=float)
        if not np.all(np.isfinite(r)):
            raise ValueError("query point must be finite")
        rx, ry, rz = (float(c) for c in r)
        u0, u1, v0, v1 = self._bounds
        u, v = min(max(rx, u0), u1), min(max(ry, v0), v1)
        z, gu, gv = self.eval_point(u, v)[:3]
        cost = (rx - u) ** 2 + (ry - v) ** 2 + (rz - z) ** 2
        for _ in range(CLOSEST_POINT_MAX_ITER):
            # normal equations of the Jacobian [[1,0],[0,1],[Su,Sv]]
            ez = rz - z
            b0 = rx - u + gu * ez
            b1 = ry - v + gv * ez
            a00, a01, a11 = 1.0 + gu * gu, gu * gv, 1.0 + gv * gv
            det = a00 * a11 - a01 * a01
            du = (a11 * b0 - a01 * b1) / det
            dv = (a00 * b1 - a01 * b0) / det
            step = math.hypot(du, dv)
            if step < CLOSEST_POINT_TOL:
                return np.array([u, v, z])
            # backtracking damping on the squared residual
            lam = 1.0
            for _ in range(20):
                u_new = min(max(u + lam * du, u0), u1)
                v_new = min(max(v + lam * dv, v0), v1)
                z_new, gu_new, gv_new = self.eval_point(u_new, v_new)[:3]
                cost_new = ((rx - u_new) ** 2 + (ry - v_new) ** 2
                            + (rz - z_new) ** 2)
                if cost_new <= cost:
                    break
                lam *= 0.5
            moved = math.hypot(u_new - u, v_new - v)
            u, v, z, cost = u_new, v_new, z_new, cost_new
            gu, gv = gu_new, gv_new
            if lam * step < CLOSEST_POINT_TOL or moved < CLOSEST_POINT_TOL:
                return np.array([u, v, z])
        raise NumericalFailureError(
            "closest-point iteration did not converge",
            best=np.array([u, v, z]))


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


def frame_matrix(ca, sa, cb, sb):
    """Rows of R_x(a) R_y(b) = [B1' | B2' | N'] from the angles' cos/sin."""
    return ((cb, 0.0, sb),
            (sa * sb, ca, -sa * cb),
            (-ca * sb, sa, ca * cb))


def _frames_from_gradient(g: np.ndarray):
    """(N, 3, 3) frames R_x(alpha) R_y(beta) from surface gradients."""
    r = np.empty((len(g), 3, 3))
    for i, row in enumerate(frame_matrix(*frame_cos_sin(g[:, 0], g[:, 1]))):
        for j, entry in enumerate(row):
            r[:, i, j] = entry
    return r


def world_to_chart(p: np.ndarray) -> np.ndarray:
    """Chart map sigma: drop the elevation coordinate."""
    p = np.asarray(p, dtype=float)
    return p[..., :2].copy()


def chart_jacobian() -> np.ndarray:
    """d sigma / d p for the explicit chart: constant [[1,0,0],[0,1,0]]."""
    return CHART_JACOBIAN.copy()


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
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(str(e), field=str(path)) from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e}", field=str(path)) from e
    return surface_from_dict(data)


def surface_from_dict(data: dict) -> BSplineSurface:
    for key in ("degree_u", "degree_v", "knots_u", "knots_v",
                "control_points"):
        if key not in data:
            raise ConfigError("missing required field", field=f"surface.{key}")
    try:
        return BSplineSurface(
            degree_u=int(data["degree_u"]),
            degree_v=int(data["degree_v"]),
            knots_u=np.asarray(data["knots_u"], dtype=float),
            knots_v=np.asarray(data["knots_v"], dtype=float),
            control_points=np.asarray(data["control_points"], dtype=float))
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e), field="surface") from e


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
