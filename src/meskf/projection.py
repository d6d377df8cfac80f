"""Chart-projected measurement corrections.

Position measurements are associated with the surface by closest-point
projection and their covariance ellipsoid is sliced by the local tangent
plane; the slice's covariance, one Schur complement in the tangent
frame, is mapped through the chart to form a 2-D measurement. Range
measurements are re-expressed as distances on the chart by sampling the
filter's sigma region, intersecting it with the measured range sphere,
and averaging chart distances to an equivalent anchor. Both schemes feed the ordinary chart-space correction.

The small matrix algebra is written out on floats: the position
covariance P_M = P_m + J P_x J^T, its tangent slice and chart map, the
2-row update (``core.correct_rows``), the range variance and the sigma
region's 2x2 Cholesky factor. numpy works on the sigma region's point
cloud, and on the matrices that ``core.require_spd`` checks.

The sensor's lever arm R_WR r_RS, which shifts the measurement and the
anchor, and its Jacobian come from ``sensors3d._sensor_model``, the one
place where tangent frame, heading and extrinsics are composed.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (FilterState, RobotExtrinsics, correct_row, correct_rows,
                   require_spd)
from .errors import (ConfigError, DegenerateCovarianceError,
                     DegenerateGeometryError, DegenerateSamplingError,
                     NoIntersectionError, number_fields)
from .sensors3d import _sensor_model
from .surface import (BSplineSurface, frame_cos_sin, frame_matrix,
                      world_to_chart)


@dataclass
class ProjectedPosition:
    z_t: tuple               # chart-space position measurement (u, v)
    P_t: tuple               # 2x2 covariance on the chart, two rows


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
    """World lever arm R_WR r_RS as floats, and its 3x3 error-state
    Jacobian as three rows of floats. Both come from the pose model
    without its chart lift; a zero r_RS gives zeros and no Jacobian
    (None) without evaluating the surface.
    """
    if extrinsics.r_RS == (0.0, 0.0, 0.0):
        return (0.0, 0.0, 0.0), None
    p, J, _, _ = _sensor_model(surface, state, extrinsics, rotation=False,
                               lift=False)
    return p, J


def _jpjt(J, P_upper):
    """The six unique entries of J P J^T, for J's three rows and the six
    unique entries of P."""
    p00, p01, p02, p11, p12, p22 = P_upper
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J
    # rows of J P
    q00 = j00 * p00 + j01 * p01 + j02 * p02
    q01 = j00 * p01 + j01 * p11 + j02 * p12
    q02 = j00 * p02 + j01 * p12 + j02 * p22
    q10 = j10 * p00 + j11 * p01 + j12 * p02
    q11 = j10 * p01 + j11 * p11 + j12 * p12
    q12 = j10 * p02 + j11 * p12 + j12 * p22
    q20 = j20 * p00 + j21 * p01 + j22 * p02
    q21 = j20 * p01 + j21 * p11 + j22 * p12
    q22 = j20 * p02 + j21 * p12 + j22 * p22
    return (q00 * j00 + q01 * j01 + q02 * j02,
            q00 * j10 + q01 * j11 + q02 * j12,
            q00 * j20 + q01 * j21 + q02 * j22,
            q10 * j10 + q11 * j11 + q12 * j12,
            q10 * j20 + q11 * j21 + q12 * j22,
            q20 * j20 + q21 * j21 + q22 * j22)


def associate_to_surface(surface: BSplineSurface, r_Sm: np.ndarray,
                         lever) -> tuple:
    """Closest surface point (u, v, S) and its gradient (S_u, S_v), as
    floats, to the measurement less the world lever arm ``lever``."""
    (x, y, z), (l_x, l_y, l_z) = r_Sm, lever
    return surface._closest_point((x - l_x, y - l_y, z - l_z))


def _tangent_slice(P_M, frame):
    """2x2 covariance of the tangent-plane slice of P_M, in plane
    coordinates, on floats: P_M and the frame as three rows each, the
    slice as two rows.

    With the rotation F = [T|n] = [B1'|B2'|N'], write
    F^T P_M F = [[A, b], [b^T, c]]. The slice {y : y^T (T^T P_M^-1 T) y
    = 1} has T^T P_M^-1 T, the tangent block of (F^T P_M F)^-1, whose
    inverse is the Schur complement A - b b^T / c (Zhang, "The Schur
    Complement and Its Applications", 2005): the covariance of the
    tangent components given a zero normal offset. Its eigenvalues lie
    between P_M's least and greatest, so once P_M passes
    ``require_spd`` the slice is positive definite too. P_M's upper
    triangle is read after the check.
    """
    require_spd(P_M, DegenerateCovarianceError, "covariance")
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = P_M
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = frame
    # columns of P_M F
    c00 = m00 * f00 + m01 * f10 + m02 * f20
    c01 = m01 * f00 + m11 * f10 + m12 * f20
    c02 = m02 * f00 + m12 * f10 + m22 * f20
    c10 = m00 * f01 + m01 * f11 + m02 * f21
    c11 = m01 * f01 + m11 * f11 + m12 * f21
    c12 = m02 * f01 + m12 * f11 + m22 * f21
    c20 = m00 * f02 + m01 * f12 + m02 * f22
    c21 = m01 * f02 + m11 * f12 + m12 * f22
    c22 = m02 * f02 + m12 * f12 + m22 * f22
    # G = F^T P_M F
    g00 = f00 * c00 + f10 * c01 + f20 * c02
    g01 = f00 * c10 + f10 * c11 + f20 * c12
    g11 = f01 * c10 + f11 * c11 + f21 * c12
    g02 = f00 * c20 + f10 * c21 + f20 * c22
    g12 = f01 * c20 + f11 * c21 + f21 * c22
    g22 = f02 * c20 + f12 * c21 + f22 * c22
    s01 = g01 - g02 * g12 / g22
    return (g00 - g02 * g02 / g22, s01), (s01, g11 - g12 * g12 / g22)


def ellipsoid_tangent_intersection(P_M: np.ndarray, frame: np.ndarray):
    """Semi-axes of the tangent-plane slice of a covariance ellipsoid.

    ``frame`` is a rotation [B1'|B2'|N'], such as ``tangent_frame``'s.
    With T = [B1'|B2'] and (s_i, u_i) the eigenpairs of the slice's
    covariance (``_tangent_slice``), the axes are T u_i sqrt(s_i) in
    R^3, r1 the longer axis. Raises DegenerateCovarianceError when P_M
    is not finite, not positive definite or its condition number
    exceeds 1e12.
    """
    s, U = np.linalg.eigh(_tangent_slice(
        np.asarray(P_M, dtype=float).tolist(), frame.tolist()))
    T = frame[:, 0:2]
    return T.dot(U[:, 1]) * math.sqrt(s[1]), T.dot(U[:, 0]) * math.sqrt(s[0])


def project_position(surface: BSplineSurface, r_Sm: np.ndarray,
                     P_m: np.ndarray, extrinsics: RobotExtrinsics,
                     state: FilterState) -> ProjectedPosition:
    """Project a 3-D position measurement and its covariance to the chart.

    P_M = P_m + J P_x J^T, with J the lever arm's Jacobian (no term for
    a zero lever arm). The chart covariance is the tangent slice of P_M
    at the associated point, mapped through the chart block
    T_c = [[cos b, 0], [sin a sin b, cos a]] of the tangent frame: the
    chart map drops z. Every step is written out on floats.
    """
    lever, J = _lever_arm(surface, state, extrinsics)
    u, v, _, s_u, s_v = associate_to_surface(surface, r_Sm, lever)
    P_M = np.asarray(P_m, dtype=float).tolist()
    if J is not None:
        c00, c01, c02, c11, c12, c22 = _jpjt(J, state.P_upper)
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = P_M
        P_M = ((m00 + c00, m01 + c01, m02 + c02),
               (m10 + c01, m11 + c11, m12 + c12),
               (m20 + c02, m21 + c12, m22 + c22))
    ca, sa, cb, sb = frame_cos_sin(s_u, s_v)
    (s00, s01), (_, s11) = _tangent_slice(P_M, frame_matrix(ca, sa, cb, sb))
    # T_c S T_c^T, with T_c's zero entry left out; (e0, e1) is row 1 of
    # T_c S
    t10 = sa * sb
    e0, e1 = t10 * s00 + ca * s01, t10 * s01 + ca * s11
    p01 = cb * e0
    return ProjectedPosition((u, v), ((cb * s00 * cb, p01),
                                      (p01, e0 * t10 + e1 * ca)))


def projected_position_update(state: FilterState,
                              proj: ProjectedPosition) -> FilterState:
    """The chart position rows, H = [I_2 0], with the projected
    covariance P_t as R."""
    z_u, z_v = proj.z_t
    return correct_rows(state, (z_u - state.u, z_v - state.v),
                        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), proj.P_t)


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
    factor of the position covariance block (``_cholesky2``); grid nodes
    outside the Mahalanobis radius or the chart domain
    (``BSplineSurface.contains``) are discarded. The odd grid's middle
    node is the state itself (to ``np.linspace``'s rounding), so only a
    state off the chart leaves no sample.

    The (N, 2) samples are stored column-major, so that each coordinate
    is one contiguous array: the domain filter, ``elevation_many`` and
    ``project_range`` run on whole columns, and the filter indexes each
    column alone, which is several times cheaper than a row index of
    the (N, 2) array. When every node lies in the domain, the mapped
    nodes are returned as they are, uncopied, and the caller owns them.
    """
    p00, p01, _, p11, _, _ = state.P_upper
    L = np.array(_cholesky2(p00, p01, p11))
    g = _whitened_grid(config.grid_half_width, config.grid_resolution)
    pts = np.add((state.u, state.v), g @ L.T, order="F")
    keep = surface.contains(pts)
    kept = np.count_nonzero(keep)
    if not kept:
        raise DegenerateSamplingError("no sigma-region samples in domain")
    return pts if kept == len(pts) else np.asfortranarray(pts[keep])


def _cholesky2(p00, p01, p11):
    """Lower Cholesky factor of [[p00, p01], [p01, p11]] as two rows of
    floats, formed as LAPACK's potf2 forms it (the column scaled by the
    reciprocal of its pivot), which gives ``np.linalg.cholesky``'s bits.

    Raises DegenerateSamplingError where LAPACK stops: a pivot that is
    not positive (NaN included).
    """
    if not p00 > 0.0:
        raise DegenerateSamplingError("position covariance not SPD")
    l00 = math.sqrt(p00)
    l10 = p01 * (1.0 / l00)
    d = p11 - l10 * l10
    if not d > 0.0:
        raise DegenerateSamplingError("position covariance not SPD")
    return (l00, 0.0), (l10, math.sqrt(d))


def project_range_variance(surface: BSplineSurface, R_d: float, J_lever,
                           state: FilterState, anchor_shifted) -> float:
    """Radial variance on the chart.

    The range variance is carried along the unit anchor-to-sensor
    direction, augmented with the lever-arm state uncertainty
    J_lever P_x J_lever^T (J_lever the three rows of ``_lever_arm``'s J;
    None, for a zero lever arm, adds nothing), stripped of its
    surface-normal component, and mapped through the chart, all on
    floats. Floored at 1e-12.
    """
    u, v = state.u, state.v
    s, s_u, s_v = surface.eval_point(u, v)[:3]
    a_x, a_y, a_z = anchor_shifted
    dx, dy, dz = u - a_x, v - a_y, s - a_z
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist < 1e-6:
        raise DegenerateGeometryError("anchor coincides with sensor")
    n0, n1, n2 = dx / dist, dy / dist, dz / dist
    p_d = [R_d * n0, R_d * n1, R_d * n2]
    if J_lever is not None:
        c00, c01, c02, c11, c12, c22 = _jpjt(J_lever, state.P_upper)
        p_d = [p_d[0] + c00 * n0 + c01 * n1 + c02 * n2,
               p_d[1] + c01 * n0 + c11 * n1 + c12 * n2,
               p_d[2] + c02 * n0 + c12 * n1 + c22 * n2]
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

    One pass over the cloud's columns: the shell distances, the shell
    test and the kept samples' chart distances are formed in place, in
    the operation order of sqrt(du du + dv dv + dz dz) and its mean.
    """
    lever, J = _lever_arm(surface, state, extrinsics)
    (x, y, z), (l_x, l_y, l_z) = anchor, lever
    A_prime = a_u, a_v, a_z = x - l_x, y - l_y, z - l_z
    samples = sample_sigma_region(state, surface, config)
    u, v = samples[:, 0], samples[:, 1]
    d, dv = u - a_u, v - a_v
    d *= d
    d += np.multiply(dv, dv, out=dv)
    dz = surface.elevation_many(samples)
    dz -= a_z
    d += np.multiply(dz, dz, out=dz)
    np.sqrt(d, out=d)
    d -= z_d
    tol = config.shell_tolerance
    keep = np.abs(d, out=d) <= (math.sqrt(R_d) if tol is None else tol)
    if not keep.any():
        raise NoIntersectionError("range shell misses the sigma region")
    t_A = world_to_chart(surface.closest_point(A_prime))
    t_u, t_v = t_A.tolist()
    eu, ev = u[keep], v[keep]
    np.subtract(t_u, eu, out=eu)
    np.subtract(t_v, ev, out=ev)
    eu *= eu
    eu += np.multiply(ev, ev, out=ev)
    z_dU = float(np.mean(np.sqrt(eu, out=eu)))
    R_dU = project_range_variance(surface, R_d, J, state, A_prime)
    return ProjectedRange(z_dU, R_dU, t_A)


def projected_range_update(state: FilterState,
                           proj: ProjectedRange) -> FilterState:
    diff = np.subtract(proj.t_A_prime, (state.u, state.v))
    # the dot product of np.linalg.norm: BLAS may fuse its multiply-adds,
    # so a sum of squares written out on floats can differ in the last bit
    dist = math.sqrt(diff.dot(diff))
    if dist < 1e-6:
        raise DegenerateGeometryError("equivalent anchor at state position")
    d_u, d_v = diff.tolist()
    return correct_row(state, proj.z_dU - dist, -d_u / dist, -d_v / dist,
                       0.0, proj.R_dU)
