"""Ground-truth trajectory generation on a surface.

Chart-space paths (analytic circles or splines through waypoints) are
traversed with a trapezoidal speed profile and sampled at the odometry
step. The heading is the direction of the path's own derivative: the
circle's, or the spline's from its coefficients. Body velocities are
recovered by inverting the discrete displacement model exactly, so
re-integrating the propagation model with zero noise reproduces the
chart path to floating-point accuracy. The speed ramps up over the
first ``RAMP_FRACTION`` of the duration and down over the last. A
closed path wraps around; an open path that the profile overruns stops
at its end and keeps the end tangent's heading.
"""

from dataclasses import dataclass

import numpy as np

from ..core import wrap_angle
from ..errors import ConfigError, finite_array, number, number_fields
from ..surface import BSplineSurface, frame_cos_sin, frame_matrix

RAMP_FRACTION = 0.15


@dataclass
class TrajectorySpec:
    """Chart path plus timing.

    path is either {"type": "circle", "center": [u, v], "radius": r}
    or {"type": "waypoints", "points": [[u, v], ...]}; a waypoint path
    whose first and last points coincide is treated as a closed loop.
    """
    path: dict
    speed: float             # cruise speed, m/s (chart-space)
    duration: float          # s
    dt: float                # odometry step, s

    def __post_init__(self):
        number_fields(self, "trajectory", float, ("speed",), ge=0)
        number_fields(self, "trajectory", float, ("duration", "dt"), gt=0)
        self.steps()

    def steps(self) -> int:
        """The number of odometry steps, duration / dt. A duration that
        is not a whole number of steps, at least one, is refused, not
        rounded: a ConfigError naming ``trajectory.duration``."""
        n = round(self.duration / self.dt)
        if n < 1 or abs(n * self.dt - self.duration) > 1e-9:
            raise ConfigError(f"must be a whole number of dt = {self.dt} s "
                              f"steps, at least one, not {self.duration}",
                              field="trajectory.duration")
        return n


@dataclass
class GroundTruth:
    """Sampled true trajectory and the exact body velocities driving it."""
    times: np.ndarray        # (K+1,)
    chart: np.ndarray        # (K+1, 2)
    gamma: np.ndarray        # (K+1,)
    v_m: np.ndarray          # (K, 2) body velocity over step k -> k+1
    omega: np.ndarray        # (K,)   body rate over step k -> k+1
    dt: float

    @property
    def n_steps(self):
        return len(self.omega)


def _path_function(path: dict):
    """Return (position(s), total_length, closed) for a chart path;
    position(s) gives the points at arc lengths s and their tangents."""
    if not isinstance(path, dict):
        raise ConfigError("must be an object", field="trajectory.path")
    kind = path.get("type")
    if kind == "circle":
        center = finite_array(path.get("center"), "trajectory.path.center")
        if center.shape != (2,):
            raise ConfigError("must be [u, v]", field="trajectory.path.center")
        radius = number(float, path.get("radius"), "trajectory.path.radius",
                        gt=0)
        length = 2.0 * np.pi * radius

        def pos(s):
            ang = np.asarray(s, dtype=float) / radius
            c, sn = np.cos(ang), np.sin(ang)
            return (center + radius * np.stack([c, sn], axis=-1),
                    np.stack([-sn, c], axis=-1))

        return pos, length, True
    if kind == "waypoints":
        pts = finite_array(path.get("points"), "trajectory.path.points")
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ConfigError("waypoints must be an (n, 2) list, n >= 2",
                              field="trajectory.path.points")
        closed = bool(np.allclose(pts[0], pts[-1]))
        if closed:
            pts[-1] = pts[0]   # periodic splines need exact closure
        h = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if not np.all(h > 0.0):
            raise ConfigError("consecutive waypoints must differ",
                              field="trajectory.path.points")
        chord = np.concatenate([[0.0], np.cumsum(h)])
        spline = _cubic_spline(chord, pts, closed)
        # arc-length table on a fine grid
        sfine = np.linspace(0.0, chord[-1], 64 * len(pts))
        seg = np.linalg.norm(np.diff(spline(sfine)[0], axis=0), axis=1)
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        length = arc[-1]

        def pos(s):
            param = np.interp(np.asarray(s, dtype=float), arc, sfine)
            return spline(param)

        return pos, length, closed
    raise ConfigError(f"unknown path type {kind!r}",
                      field="trajectory.path.type")


def _cubic_spline(x, y, periodic: bool):
    """Interpolating cubic spline through (x[i], y[i]) for strictly
    increasing x and rows y[i]: natural (zero second derivative at both
    ends) or, when ``periodic``, with y[-1] == y[0] and the first two
    derivatives matching across the end.

    The knots' second derivatives M solve the spline's continuity
    equations h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] =
    6 (d[i] - d[i-1]), d the chord slopes (Numerical Recipes, 3rd ed.,
    section 3.3), in one dense solve: cyclic in i when periodic. Returns
    a function of the parameter that picks the span by searchsorted and
    evaluates its cubic and the cubic's derivative by Horner's rule;
    beyond the ends it continues the end spans' cubics.
    """
    h = np.diff(x)
    d = np.diff(y, axis=0) / h[:, None]
    n = len(h)                        # spans
    M = np.zeros_like(y)
    if periodic:
        # unknowns M[0..n-1], M[n] = M[0]; equation 0 wraps to span n-1
        A = (np.diag(2.0 * (np.roll(h, 1) + h)) + np.diag(h[:-1], 1)
             + np.diag(h[:-1], -1))
        A[0, -1] += h[-1]
        A[-1, 0] += h[-1]
        M[:n] = np.linalg.solve(A, 6.0 * (d - np.roll(d, 1, axis=0)))
        M[n] = M[0]
    elif n > 1:
        # natural: M[0] = M[n] = 0, interior unknowns M[1..n-1]
        A = (np.diag(2.0 * (h[:-1] + h[1:])) + np.diag(h[1:-1], 1)
             + np.diag(h[1:-1], -1))
        M[1:n] = np.linalg.solve(A, 6.0 * (d[1:] - d[:-1]))
    # power-basis coefficients of span i about x[i]
    c1 = d - h[:, None] * (2.0 * M[:-1] + M[1:]) / 6.0
    c2 = 0.5 * M[:-1]
    c3 = (M[1:] - M[:-1]) / (6.0 * h[:, None])

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 1)
        dt = (t - x[i])[..., None]
        return (y[i] + dt * (c1[i] + dt * (c2[i] + dt * c3[i])),
                c1[i] + dt * (2.0 * c2[i] + 3.0 * dt * c3[i]))

    return evaluate


def _arc_profile(spec: TrajectorySpec, t: np.ndarray):
    """Trapezoidal arc-length profile s(t_k) at the sample times t."""
    ramp = RAMP_FRACTION * spec.duration
    v = np.full_like(t, spec.speed)
    v = np.minimum(v, spec.speed * t / ramp)
    v = np.minimum(v, spec.speed * np.maximum(spec.duration - t, 0) / ramp)
    # trapezoid integration of speed
    s = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * spec.dt)])
    return s


def generate_ground_truth(surface: BSplineSurface,
                          spec: TrajectorySpec) -> GroundTruth:
    pos_fn, length, closed = _path_function(spec.path)
    times = np.arange(spec.steps() + 1) * spec.dt
    s = _arc_profile(spec, times)
    if closed:
        s = np.mod(s, length)
    else:
        s = np.clip(s, 0.0, length)
    chart, tangent = pos_fn(s)
    if not np.all(surface.contains(chart)):
        raise ConfigError("leaves the chart domain", field="trajectory.path")

    # heading: the direction of the path tangent (du, dv, dS), with
    # dS = S_u du + S_v dv, along the frame's first two axes, the first
    # two entries of F^T (du, dv, dS) for the frame F (F[0][1] is 0)
    du, dv = tangent.T
    s_u, s_v = surface.gradient_many(chart).T
    (f00, _, _), (f10, f11, _), (f20, f21, _) = frame_matrix(
        *frame_cos_sin(s_u, s_v))
    dz = s_u * du + s_v * dv
    gamma = np.arctan2(f11 * dv + f21 * dz, f00 * du + f10 * dv + f20 * dz)

    # exact inversion of the discrete displacement model
    # d_chart / dt = T R_z(gamma) v_m, on the lower-triangular chart
    # block T = [[F00, 0], [F10, F11]] of F
    d_u, d_v = np.diff(chart, axis=0).T / spec.dt
    x_u = d_u / f00[:-1]
    x_v = (d_v - f10[:-1] * x_u) / f11[:-1]
    cg, sg = np.cos(gamma[:-1]), np.sin(gamma[:-1])
    v_m = np.column_stack([cg * x_u + sg * x_v, cg * x_v - sg * x_u])
    omega = wrap_angle(np.diff(gamma)) / spec.dt
    return GroundTruth(times=times, chart=chart, gamma=gamma, v_m=v_m,
                       omega=omega, dt=spec.dt)
