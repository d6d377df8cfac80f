"""Chart-space error-state filter core.

State: chart position t_R (2,), heading gamma_R within the tangent
plane, and the 3x3 error covariance P_x over (dt_R, dtheta_R). The
nominal state propagates with the measured velocities mapped through
the tangent frame; corrections are generic Kalman updates in Joseph
form shared by all measurement models.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import SingularUpdateError
from .surface import BSplineSurface, frame_angle_derivatives, frame_cos_sin


def wrap_angle(a):
    """Wrap to (-pi, pi]."""
    if isinstance(a, float):
        # same floor modulo as np.mod, without the ufunc overhead
        return math.pi - (math.pi - a) % (2.0 * math.pi)
    return np.pi - np.mod(np.pi - a, 2.0 * np.pi)


@dataclass
class FilterState:
    t_R: np.ndarray          # chart position (2,), m
    gamma_R: float           # heading, rad, wrapped to (-pi, pi]
    P_x: np.ndarray          # 3x3 error covariance

    def __post_init__(self):
        self.t_R = np.asarray(self.t_R, dtype=float).copy()
        self.gamma_R = wrap_angle(float(self.gamma_R))
        self.P_x = np.asarray(self.P_x, dtype=float).copy()

    def copy(self) -> "FilterState":
        return FilterState(self.t_R, self.gamma_R, self.P_x)


@dataclass
class OdometryInput:
    v_m: np.ndarray          # body-frame linear velocity (2,), m/s
    omega_m: float           # angular rate, rad/s
    sigma_v: np.ndarray      # 2x2 velocity noise covariance
    sigma_omega: float       # angular-rate noise variance

    def __post_init__(self):
        self.v_m = np.asarray(self.v_m, dtype=float)
        self.sigma_v = np.asarray(self.sigma_v, dtype=float)


@dataclass
class RobotExtrinsics:
    r_RS: np.ndarray         # sensor lever arm in robot frame (3,), m
    q_RS: np.ndarray         # sensor orientation in robot frame, wxyz

    def __post_init__(self):
        self.r_RS = np.asarray(self.r_RS, dtype=float)
        self.q_RS = np.asarray(self.q_RS, dtype=float)
        if self.r_RS.shape != (3,) or not np.all(np.isfinite(self.r_RS)):
            raise ValueError("r_RS must be a finite 3-vector")
        if self.q_RS.shape != (4,) or not np.all(np.isfinite(self.q_RS)):
            raise ValueError("q_RS must be a finite 4-vector")
        n = np.linalg.norm(self.q_RS)
        if n == 0.0:
            raise ValueError("q_RS must have non-zero norm")
        if abs(n - 1.0) > 1e-12:
            self.q_RS = self.q_RS / n

    @staticmethod
    def identity() -> "RobotExtrinsics":
        return RobotExtrinsics(np.zeros(3), np.array([1.0, 0, 0, 0]))


def heading_rotation_2d(gamma):
    c, s = np.cos(gamma), np.sin(gamma)
    return np.array([[c, -s], [s, c]])


def _motion_model(surface: BSplineSurface, state: FilterState,
                  odom: OdometryInput, dt):
    """Chart displacement dt T R_z(gamma) v_m and its Jacobians.

    T = [[cos b, 0], [sin a sin b, cos a]] is the chart block of the
    tangent frame R_x(a) R_y(b). Its derivatives in t_R follow from the
    frame angles' derivatives through the Hessian of S; the heading
    enters through R_z. Returns (displacement (2,), F, G, T).
    """
    u, v = float(state.t_R[0]), float(state.t_R[1])
    g = float(state.gamma_R)
    _, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(u, v)
    ca, sa, cb, sb = frame_cos_sin(s_u, s_v)
    c, s = math.cos(g), math.sin(g)
    vx, vy = odom.v_m.tolist()
    wx, wy = c * vx - s * vy, s * vx + c * vy          # R_z(gamma) v_m
    t10 = sa * sb
    (da_u, db_u), (da_v, db_v) = frame_angle_derivatives(
        s_u, s_uu, s_uv, s_vv, ca, sa, cb)
    # dT = [[-sin b db, 0], [cos a sin b da + sin a cos b db, -sin a da]]
    F = np.array([
        [1.0 - dt * sb * db_u * wx, -dt * sb * db_v * wx, -dt * cb * wy],
        [dt * ((ca * sb * da_u + sa * cb * db_u) * wx - sa * da_u * wy),
         1.0 + dt * ((ca * sb * da_v + sa * cb * db_v) * wx
                     - sa * da_v * wy),
         dt * (ca * wx - t10 * wy)],
        [0.0, 0.0, 1.0]])
    # G: minus T R_z(gamma) dt on the velocity noise, dt on the rate noise
    G = np.array([[-dt * cb * c, dt * cb * s, 0.0],
                  [-dt * (t10 * c + ca * s), dt * (t10 * s - ca * c), 0.0],
                  [0.0, 0.0, dt]])
    disp = np.array([dt * cb * wx, dt * (t10 * wx + ca * wy)])
    return disp, F, G, np.array([[cb, 0.0], [t10, ca]])


def error_jacobians(surface: BSplineSurface, state: FilterState,
                    odom: OdometryInput, dt):
    """Discrete error-state Jacobians (F, G) of the displacement model,
    both analytic, plus the chart block T of the tangent frame."""
    return _motion_model(surface, state, odom, dt)[1:]


def propagate(surface: BSplineSurface, state: FilterState,
              odom: OdometryInput, dt) -> FilterState:
    """One discrete propagation step evaluated at the pre-step state."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    disp, F, G, _ = _motion_model(surface, state, odom, dt)
    t_new = state.t_R + disp
    surface._check_point(*t_new.tolist())
    # Noise covariances are per-sample; G already carries dt.
    Q = np.zeros((3, 3))
    Q[0:2, 0:2] = odom.sigma_v
    Q[2, 2] = odom.sigma_omega
    P = F.dot(state.P_x).dot(F.T) + G.dot(Q).dot(G.T)
    # FilterState wraps the heading
    return FilterState(t_new, state.gamma_R + odom.omega_m * dt,
                       0.5 * (P + P.T))


def correct(state: FilterState, innovation: np.ndarray, H: np.ndarray,
            R: np.ndarray) -> FilterState:
    """Generic ESEKF correction: gain, injection, Joseph covariance.

    The error reset Jacobian is the identity for this vector-plus-angle
    parameterization, so resetting the error is implicit.
    """
    innovation = np.atleast_1d(np.asarray(innovation, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    ok, dx, P_new = joseph_update(state.P_x, H, R, innovation)
    if not ok:
        raise SingularUpdateError("innovation covariance is singular")
    return FilterState(state.t_R + dx[0:2], state.gamma_R + dx[2], P_new)


def joseph_update(P: np.ndarray, H: np.ndarray, R: np.ndarray,
                  innovation: np.ndarray):
    """Shared gain/injection/Joseph-covariance core.

    Returns (ok, dx, P_new); ok is False when the innovation covariance
    S is singular or its condition number exceeds 1e12. A one-row update
    has a scalar S and needs no factorization. Otherwise S is checked by
    its eigenvalues and the gain solved by Cholesky, both through the
    LAPACK wrappers directly: for these few-row systems the numpy
    wrappers cost more than the arithmetic. Both read the upper triangle
    of S.
    """
    # ndarray.dot: for these tiny operands its call overhead is well
    # below that of the matmul ufunc behind @
    PHt = P.dot(H.T)
    if H.shape[0] == 1:
        s = float(H[0].dot(PHt[:, 0]) + R[0, 0])
        if not s > 0.0:
            return False, np.zeros(P.shape[0]), P
        K = PHt / s
    else:
        S = H.dot(PHt) + R
        w, _, info = lapack.dsyevd(S, compute_v=0)
        if info or not (w[0] > 0.0 and w[-1] <= 1e12 * w[0]):
            return False, np.zeros(P.shape[0]), P
        _, Kt, info = lapack.dposv(S, PHt.T)
        if info:
            return False, np.zeros(P.shape[0]), P
        K = Kt.T
    dx = K.dot(innovation)
    IKH = np.eye(P.shape[0]) - K.dot(H)
    P_new = IKH.dot(P).dot(IKH.T) + K.dot(R).dot(K.T)
    return True, dx, 0.5 * (P_new + P_new.T)
