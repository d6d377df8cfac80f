"""Chart-projected measurement corrections.

Position measurements are associated with the surface by closest-point
projection and their covariance ellipsoid is sliced by the local tangent
plane; the slice's semi-axes are mapped through the chart to form a 2-D
measurement. Range measurements are re-expressed as distances on the
chart by sampling the filter's sigma region, intersecting it with the
measured range sphere, and averaging chart distances to an equivalent
anchor. Both schemes feed the ordinary chart-space correction.

The sensor's lever arm R_WR r_RS, which shifts the measurement and the
anchor, and its Jacobian come from ``sensors3d._sensor_model``, the one
place where tangent frame, heading and extrinsics are composed.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import FilterState, RobotExtrinsics, correct
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


def ellipsoid_tangent_intersection(P_M: np.ndarray, frame: np.ndarray):
    """Semi-axes of the tangent-plane slice of a covariance ellipsoid.

    With T = [B1'|B2'], the slice {y : y^T (T^T P^-1 T) y = 1} in plane
    coordinates is eigendecomposed and its axes lifted back to R^3.
    Returned ordered by eigenvalue (r1 the longer axis).
    """
    P_M = np.asarray(P_M, dtype=float)
    T = frame[:, 0:2]
    try:
        P_inv = np.linalg.inv(P_M)
    except np.linalg.LinAlgError as e:
        raise DegenerateCovarianceError("covariance is singular") from e
    if np.linalg.cond(P_M) > 1e12:
        raise DegenerateCovarianceError("covariance is singular")
    A = T.T @ P_inv @ T
    lam, U = np.linalg.eigh(A)
    if lam[0] <= 0:
        raise DegenerateCovarianceError("tangent slice is degenerate")
    r1 = T @ U[:, 0] / np.sqrt(lam[0])
    r2 = T @ U[:, 1] / np.sqrt(lam[1])
    return r1, r2


def project_position(surface: BSplineSurface, r_Sm: np.ndarray,
                     P_m: np.ndarray, extrinsics: RobotExtrinsics,
                     state: FilterState) -> ProjectedPosition:
    """Project a 3-D position measurement and its covariance to the chart."""
    lever, J = _lever_arm(surface, state, extrinsics)
    z_pM = associate_to_surface(surface, r_Sm, lever)
    z_t = world_to_chart(z_pM)
    P_M = np.asarray(P_m, dtype=float) + J @ state.P_x @ J.T
    frame = surface.tangent_frame(z_t)
    r1, r2 = ellipsoid_tangent_intersection(P_M, frame)
    M = np.column_stack([r1[0:2], r2[0:2]])    # chart map drops z
    P_t = M @ M.T
    return ProjectedPosition(z_t, P_t)


def projected_position_update(state: FilterState, surface: BSplineSurface,
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
    Mahalanobis radius or the chart domain are discarded.
    """
    P_pos = state.P_x[0:2, 0:2]
    try:
        L = np.linalg.cholesky(P_pos)
    except np.linalg.LinAlgError as e:
        raise DegenerateSamplingError("position covariance not SPD") from e
    g = _whitened_grid(config.grid_half_width, config.grid_resolution)
    pts = state.t_R + g @ L.T
    pts = pts[surface.contains(pts)]
    if len(pts) == 0:
        raise DegenerateSamplingError("no sigma-region samples in domain")
    return pts


def project_range_variance(surface: BSplineSurface, R_d: float,
                           J_lever: np.ndarray, state: FilterState,
                           anchor_shifted: np.ndarray) -> float:
    """Radial variance on the chart.

    The range variance is carried along the unit anchor-to-sensor
    direction, augmented with the lever-arm state uncertainty through
    J_lever (the J of ``_lever_arm``), stripped of its surface-normal
    component, and mapped through the chart. Floored at 1e-12.
    """
    u, v = float(state.t_R[0]), float(state.t_R[1])
    s, s_u, s_v = surface.eval_point(u, v)[:3]
    d = np.array([u, v, s]) - anchor_shifted
    dist = np.linalg.norm(d)
    if dist < 1e-6:
        raise DegenerateGeometryError("anchor coincides with sensor")
    n_AS = d / dist
    p_d = n_AS * R_d + (J_lever @ state.P_x @ J_lever.T) @ n_AS
    normal = np.array(frame_matrix(*frame_cos_sin(s_u, s_v)))[:, 2]
    p_dT = p_d - normal * (normal @ p_d)
    return max(float(np.linalg.norm(p_dT[0:2])), 1e-12)


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
    a_u, a_v, a_z = A_prime.tolist()
    du = samples[:, 0] - a_u
    dv = samples[:, 1] - a_v
    dz = surface.elevation_many(samples) - a_z
    # summed in the order of np.linalg.norm's row sum
    dists = np.sqrt(du * du + dv * dv + dz * dz)
    tol = config.shell_tolerance
    if tol is None:
        tol = np.sqrt(R_d)
    keep = np.abs(dists - z_d) <= tol
    if not np.any(keep):
        raise NoIntersectionError("range shell misses the sigma region")
    t_m = samples[keep]
    t_A = surface.closest_chart_point(A_prime)
    z_dU = float(np.mean(np.linalg.norm(t_A - t_m, axis=1)))
    R_dU = project_range_variance(surface, R_d, J, state, A_prime)
    return ProjectedRange(z_dU, R_dU, t_A)


def projected_range_update(state: FilterState, surface: BSplineSurface,
                           proj: ProjectedRange) -> FilterState:
    diff = proj.t_A_prime - state.t_R
    dist = np.linalg.norm(diff)
    if dist < 1e-6:
        raise DegenerateGeometryError("equivalent anchor at state position")
    H = np.array([[-diff[0] / dist, -diff[1] / dist, 0.0]])
    innovation = np.array([proj.z_dU - dist])
    return correct(state, innovation, H, np.array([[proj.R_dU]]))
