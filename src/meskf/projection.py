"""Chart-projected measurement corrections.

Position measurements are associated with the surface by closest-point
projection and their covariance ellipsoid is sliced by the local tangent
plane; the slice's covariance, one Schur complement in the tangent
frame, is mapped through the chart to form a 2-D measurement. Range
measurements are re-expressed as distances on the chart by sampling the
filter's sigma region, intersecting it with the measured range sphere,
and averaging chart distances to an equivalent anchor. Both schemes feed the ordinary chart-space correction.

The sensor's lever arm R_WR r_RS, which shifts the measurement and the
anchor, and its Jacobian come from ``sensors3d._sensor_model``, the one
place where tangent frame, heading and extrinsics are composed.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import FilterState, RobotExtrinsics, correct, require_spd
from .errors import (ConfigError, DegenerateCovarianceError,
                     DegenerateGeometryError, DegenerateSamplingError,
                     NoIntersectionError, number_fields)
from .sensors3d import _sensor_model
from .surface import (BSplineSurface, frame_cos_sin, frame_matrix,
                      world_to_chart)


@dataclass
class ProjectedPosition:
    z_t: np.ndarray          # chart-space position measurement (2,)
    P_t: np.ndarray          # 2x2 covariance on the chart

    def __post_init__(self):
        self.z_t = np.asarray(self.z_t, dtype=float)
        self.P_t = np.asarray(self.P_t, dtype=float)


@dataclass
class ProjectedRange:
    z_dU: float              # chart-space distance, m
    R_dU: float              # radial variance on the chart, m^2
    t_A_prime: np.ndarray    # equivalent anchor on the chart (2,)

    def __post_init__(self):
        self.t_A_prime = np.asarray(self.t_A_prime, dtype=float)


@dataclass
class SamplingConfig:
    """Sigma-region sampling parameters for the projected range model.

    shell_tolerance defaults to one range sigma (sqrt of the measurement
    variance) when left as None.
    """
    grid_half_width: float = 3.0      # Mahalanobis radius
    grid_resolution: int = 21         # points per axis, odd
    shell_tolerance: float | None = None

    def __post_init__(self):
        number_fields(self, "sampling", float, ("grid_half_width",), gt=0)
        number_fields(self, "sampling", int, ("grid_resolution",), ge=3)
        if self.grid_resolution % 2 == 0:
            raise ConfigError(f"must be odd, not {self.grid_resolution}",
                              field="sampling.grid_resolution")
        if self.shell_tolerance is not None:
            number_fields(self, "sampling", float, ("shell_tolerance",), gt=0)


def _lever_arm(surface, state, extrinsics):
    """World lever arm R_WR r_RS and its 3x3 error-state Jacobian.

    Both come from the pose model without its chart lift; a zero r_RS
    gives zeros without evaluating the surface.
    """
    if not np.any(extrinsics.r_RS):
        return np.zeros(3), np.zeros((3, 3))
    p, J, _, _ = _sensor_model(surface, state, extrinsics, rotation=False,
                               lift=False)
    return np.array(p), np.array(J)


def associate_to_surface(surface: BSplineSurface, r_Sm: np.ndarray,
                         lever: np.ndarray) -> np.ndarray:
    """Closest surface point to the measurement less the world lever arm
    ``lever`` (the p of ``_lever_arm``)."""
    return surface.closest_point(np.asarray(r_Sm, dtype=float) - lever)


def _tangent_slice(P_M: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """2x2 covariance of the tangent-plane slice of P_M, in plane
    coordinates.

    With the rotation F = [T|n] = [B1'|B2'|N'], write
    F^T P_M F = [[A, b], [b^T, c]]. The slice {y : y^T (T^T P_M^-1 T) y
    = 1} has T^T P_M^-1 T, the tangent block of (F^T P_M F)^-1, whose
    inverse is the Schur complement A - b b^T / c (Zhang, "The Schur
    Complement and Its Applications", 2005): the covariance of the
    tangent components given a zero normal offset. Its eigenvalues lie
    between P_M's least and greatest, so once P_M passes
    ``require_spd`` the slice is positive definite too.
    """
    require_spd(P_M, DegenerateCovarianceError, "covariance")
    G = frame.T.dot(P_M).dot(frame)
    b = G[0:2, 2]
    return G[0:2, 0:2] - np.outer(b, b) / G[2, 2]


def ellipsoid_tangent_intersection(P_M: np.ndarray, frame: np.ndarray):
    """Semi-axes of the tangent-plane slice of a covariance ellipsoid.

    ``frame`` is a rotation [B1'|B2'|N'], such as ``tangent_frame``'s.
    With T = [B1'|B2'] and (s_i, u_i) the eigenpairs of the slice's
    covariance (``_tangent_slice``), the axes are T u_i sqrt(s_i) in
    R^3, r1 the longer axis. Raises DegenerateCovarianceError when P_M
    is not finite, not positive definite or its condition number
    exceeds 1e12.
    """
    s, U = np.linalg.eigh(_tangent_slice(np.asarray(P_M, dtype=float),
                                         frame))
    T = frame[:, 0:2]
    return T.dot(U[:, 1]) * math.sqrt(s[1]), T.dot(U[:, 0]) * math.sqrt(s[0])


def project_position(surface: BSplineSurface, r_Sm: np.ndarray,
                     P_m: np.ndarray, extrinsics: RobotExtrinsics,
                     state: FilterState) -> ProjectedPosition:
    """Project a 3-D position measurement and its covariance to the chart.

    The chart covariance is the tangent slice of P_M mapped through the
    chart block T_c = frame[0:2, 0:2]: the chart map drops z.
    """
    lever, J = _lever_arm(surface, state, extrinsics)
    z_pM = associate_to_surface(surface, r_Sm, lever)
    z_t = world_to_chart(z_pM)
    P_M = np.asarray(P_m, dtype=float) + J @ state.P_x @ J.T
    frame = surface.tangent_frame(z_t)
    T_c = frame[0:2, 0:2]
    P_t = T_c.dot(_tangent_slice(P_M, frame)).dot(T_c.T)
    return ProjectedPosition(z_t, P_t)


def projected_position_update(state: FilterState,
                              proj: ProjectedPosition) -> FilterState:
    H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return correct(state, proj.z_t - state.t_R, H, proj.P_t)


@functools.lru_cache(maxsize=8)
def _whitened_grid(half_width: float, resolution: int) -> np.ndarray:
    """Read-only (N, 2) square grid nodes inside the Mahalanobis radius.

    Depends only on the sampling configuration, so it is built once per
    (half_width, resolution) pair and shared between calls.
    """
    axis = np.linspace(-half_width, half_width, resolution)
    gu, gv = np.meshgrid(axis, axis, indexing="ij")
    g = np.column_stack([gu.ravel(), gv.ravel()])
    g = g[np.einsum("ij,ij->i", g, g) <= half_width * half_width + 1e-12]
    g.flags.writeable = False
    return g


def sample_sigma_region(state: FilterState, surface: BSplineSurface,
                        config: SamplingConfig) -> np.ndarray:
    """Deterministic grid over the state's position sigma region.

    A square grid in whitened coordinates is mapped through the Cholesky
    factor of the position covariance block; grid nodes outside the
    Mahalanobis radius or the chart domain are discarded. The odd grid's
    middle node is the state itself (to ``np.linspace``'s rounding), so
    only a state off the chart leaves no sample.

    The (N, 2) samples are stored column-major, so that each coordinate
    is one contiguous array: the domain filter, ``elevation_many`` and
    ``project_range`` run on whole columns, and the filter indexes each
    column alone, which is several times cheaper than a row index of
    the (N, 2) array.
    """
    P_pos = state.P_x[0:2, 0:2]
    try:
        L = np.linalg.cholesky(P_pos)
    except np.linalg.LinAlgError as e:
        raise DegenerateSamplingError("position covariance not SPD") from e
    g = _whitened_grid(config.grid_half_width, config.grid_resolution)
    pts = np.add(state.t_R, g @ L.T, order="F")
    u, v = pts[:, 0], pts[:, 1]
    keep = surface.contains(pts)
    if not keep.any():
        raise DegenerateSamplingError("no sigma-region samples in domain")
    return np.vstack((u[keep], v[keep])).T


def project_range_variance(surface: BSplineSurface, R_d: float,
                           J_lever: np.ndarray, state: FilterState,
                           anchor_shifted: np.ndarray) -> float:
    """Radial variance on the chart.

    The range variance is carried along the unit anchor-to-sensor
    direction, augmented with the lever-arm state uncertainty through
    J_lever (the J of ``_lever_arm``), stripped of its surface-normal
    component, and mapped through the chart. Floored at 1e-12.
    """
    u, v = state.t_R.tolist()
    s, s_u, s_v = surface.eval_point(u, v)[:3]
    a_x, a_y, a_z = np.asarray(anchor_shifted, dtype=float).tolist()
    dx, dy, dz = u - a_x, v - a_y, s - a_z
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist < 1e-6:
        raise DegenerateGeometryError("anchor coincides with sensor")
    n = (dx / dist, dy / dist, dz / dist)
    C = J_lever.dot(state.P_x).dot(J_lever.T).tolist()
    p_d = [R_d * n_k + c0 * n[0] + c1 * n[1] + c2 * n[2]
           for n_k, (c0, c1, c2) in zip(n, C)]
    normal = [row[2] for row in frame_matrix(*frame_cos_sin(s_u, s_v))]
    along = normal[0] * p_d[0] + normal[1] * p_d[1] + normal[2] * p_d[2]
    x, y = p_d[0] - normal[0] * along, p_d[1] - normal[1] * along
    return max(math.sqrt(x * x + y * y), 1e-12)


def project_range(surface: BSplineSurface, z_d: float, R_d: float,
                  anchor: np.ndarray, extrinsics: RobotExtrinsics,
                  state: FilterState,
                  config: SamplingConfig) -> ProjectedRange:
    """Re-express a range measurement as a distance on the chart.

    Raises NoIntersectionError when the range shell misses the sampled
    region entirely; callers fall back to the 3-D range update.
    """
    lever, J = _lever_arm(surface, state, extrinsics)
    A_prime = np.asarray(anchor, dtype=float) - lever
    samples = sample_sigma_region(state, surface, config)
    u, v = samples[:, 0], samples[:, 1]
    a_u, a_v, a_z = A_prime.tolist()
    du = u - a_u
    dv = v - a_v
    dz = surface.elevation_many(samples) - a_z
    # both distances are summed in the order of np.linalg.norm's row sum
    dists = np.sqrt(du * du + dv * dv + dz * dz)
    tol = config.shell_tolerance
    if tol is None:
        tol = math.sqrt(R_d)
    keep = np.abs(dists - z_d) <= tol
    if not keep.any():
        raise NoIntersectionError("range shell misses the sigma region")
    t_A = world_to_chart(surface.closest_point(A_prime))
    t_u, t_v = t_A.tolist()
    eu = t_u - u[keep]
    ev = t_v - v[keep]
    z_dU = float(np.mean(np.sqrt(eu * eu + ev * ev)))
    R_dU = project_range_variance(surface, R_d, J, state, A_prime)
    return ProjectedRange(z_dU, R_dU, t_A)


def projected_range_update(state: FilterState,
                           proj: ProjectedRange) -> FilterState:
    diff = proj.t_A_prime - state.t_R
    dist = np.linalg.norm(diff)
    if dist < 1e-6:
        raise DegenerateGeometryError("equivalent anchor at state position")
    H = np.array([[-diff[0] / dist, -diff[1] / dist, 0.0]])
    innovation = np.array([proj.z_dU - dist])
    return correct(state, innovation, H, np.array([[proj.R_dU]]))
