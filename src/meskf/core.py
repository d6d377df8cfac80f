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
# the gufuncs behind np.linalg.eigvalsh and np.linalg.solve, without the
# public wrappers' argument handling (private, present since numpy 1.8)
from numpy.linalg import _umath_linalg

from .errors import ConfigError, SingularUpdateError, finite_array
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
        # copies: the state never shares its arrays with the caller
        self.t_R = np.array(self.t_R, dtype=float)
        self.gamma_R = wrap_angle(float(self.gamma_R))
        self.P_x = np.array(self.P_x, dtype=float)

    @classmethod
    def _adopt(cls, t_R: np.ndarray, gamma_R: float,
               P_x: np.ndarray) -> "FilterState":
        """State over float arrays that the filter has just built and
        hands over; they need no second, defensive copy."""
        state = cls.__new__(cls)
        state.t_R, state.P_x = t_R, P_x
        state.gamma_R = wrap_angle(float(gamma_R))
        return state

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
        self.r_RS = finite_array(self.r_RS, "extrinsics.r_RS")
        self.q_RS = finite_array(self.q_RS, "extrinsics.q_RS")
        if self.r_RS.shape != (3,):
            raise ConfigError("must be a 3-vector", field="extrinsics.r_RS")
        n = np.linalg.norm(self.q_RS)
        if self.q_RS.shape != (4,) or n == 0.0:
            raise ConfigError("must be a non-zero 4-vector",
                              field="extrinsics.q_RS")
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
    enters through R_z. Returns plain floats: the displacement (du, dv),
    the first two rows of F as six entries (F's last row is e_3^T), the
    velocity block of G as four entries (G's only other entry is dt on
    the rate noise), and T as four entries, all row by row.
    """
    u, v = state.t_R.tolist()
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
    F = (1.0 - dt * sb * db_u * wx, -dt * sb * db_v * wx, -dt * cb * wy,
         dt * ((ca * sb * da_u + sa * cb * db_u) * wx - sa * da_u * wy),
         1.0 + dt * ((ca * sb * da_v + sa * cb * db_v) * wx
                     - sa * da_v * wy),
         dt * (ca * wx - t10 * wy))
    # G: minus T R_z(gamma) dt on the velocity noise
    G = (-dt * cb * c, dt * cb * s,
         -dt * (t10 * c + ca * s), dt * (t10 * s - ca * c))
    disp = (dt * cb * wx, dt * (t10 * wx + ca * wy))
    return disp, F, G, (cb, 0.0, t10, ca)


def error_jacobians(surface: BSplineSurface, state: FilterState,
                    odom: OdometryInput, dt):
    """Discrete error-state Jacobians (F, G) of the displacement model,
    both analytic, plus the chart block T of the tangent frame."""
    _, F, (g00, g01, g10, g11), T = _motion_model(surface, state, odom, dt)
    return (np.array(F + (0.0, 0.0, 1.0)).reshape(3, 3),
            np.array([[g00, g01, 0.0], [g10, g11, 0.0], [0.0, 0.0, dt]]),
            np.array(T).reshape(2, 2))


def propagate(surface: BSplineSurface, state: FilterState,
              odom: OdometryInput, dt) -> FilterState:
    """One discrete propagation step evaluated at the pre-step state.

    P' = F P F^T + G Q G^T, written out on the six unique entries of
    the symmetric 3x3 (upper triangles of P and of the velocity noise
    are read): with F's last row e_3^T and G's only third-row entry dt,
    only the chart rows of F and the 2x2 velocity block of G take part.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    (du, dv), (f00, f01, f02, f10, f11, f12), (g00, g01, g10, g11), _ = \
        _motion_model(surface, state, odom, dt)
    u, v = state.t_R.tolist()
    u, v = u + du, v + dv
    surface._check_box(u, u, v, v)
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = state.P_x.tolist()
    (q00, q01), (_, q11) = odom.sigma_v.tolist()
    # rows of F P, then of G_v Q_v; noise covariances are per-sample and
    # G already carries dt
    a00 = f00 * p00 + f01 * p01 + f02 * p02
    a01 = f00 * p01 + f01 * p11 + f02 * p12
    a02 = f00 * p02 + f01 * p12 + f02 * p22
    a10 = f10 * p00 + f11 * p01 + f12 * p02
    a11 = f10 * p01 + f11 * p11 + f12 * p12
    a12 = f10 * p02 + f11 * p12 + f12 * p22
    b00, b01 = g00 * q00 + g01 * q01, g00 * q01 + g01 * q11
    b10, b11 = g10 * q00 + g11 * q01, g10 * q01 + g11 * q11
    n00 = a00 * f00 + a01 * f01 + a02 * f02 + b00 * g00 + b01 * g01
    n01 = a00 * f10 + a01 * f11 + a02 * f12 + b00 * g10 + b01 * g11
    n11 = a10 * f10 + a11 * f11 + a12 * f12 + b10 * g10 + b11 * g11
    n22 = p22 + dt * dt * odom.sigma_omega
    P = np.array([n00, n01, a02, n01, n11, a12, a02, a12, n22]).reshape(3, 3)
    return FilterState._adopt(np.array([u, v]),
                              state.gamma_R + odom.omega_m * dt, P)


def correct(state: FilterState, innovation: np.ndarray, H: np.ndarray,
            R: np.ndarray) -> FilterState:
    """Generic ESEKF correction: gain, injection, Joseph covariance.

    Takes the innovation (m,), H (m, 3) and R (m, m) as float arrays.
    The error reset Jacobian is the identity for this vector-plus-angle
    parameterization, so resetting the error is implicit.
    """
    dx, P_new = joseph_update(state.P_x, H, R, innovation)
    u, v = state.t_R.tolist()
    du, dv, dg = dx.tolist()
    return FilterState._adopt(np.array([u + du, v + dv]),
                              state.gamma_R + dg, P_new)


def joseph_update(P: np.ndarray, H: np.ndarray, R: np.ndarray,
                  innovation: np.ndarray):
    """Shared gain/injection/Joseph-covariance core.

    Returns (dx, P_new). Raises SingularUpdateError when the innovation
    covariance S is not positive definite or its condition number
    exceeds 1e12. P is symmetric.

    A one-row update has a scalar S and needs no factorization. With
    a = P h, s = h^T a + r and k = a / s, the Joseph form
    (I - k h^T) P (I - k h^T)^T + r k k^T expands to
    P - k a^T - a k^T + s k k^T (Bierman, "Factorization Methods for
    Discrete Sequential Estimation", 1977), which is written out on
    floats for the 3-state filter.

    Otherwise S is checked by its eigenvalues (read from its lower
    triangle) and the gain solved by LU, both through numpy's linalg
    gufuncs directly: for these few-row systems the public wrappers cost
    more than the arithmetic. The gufuncs report no error code, so a
    non-finite S is refused before them and a failed solve by the NaN
    it writes.
    """
    if H.shape[0] == 1:
        if P.shape[0] == 3:
            return _joseph_row3(P, H, R, innovation)
        a = P.dot(H[0])
        s = float(H[0].dot(a) + R[0, 0])
        if not s > 0.0:
            raise SingularUpdateError("innovation variance is not positive")
        k = a / s
        ka = np.outer(k, a)
        return k * innovation[0], P - (ka + ka.T) + s * np.outer(k, k)
    # ndarray.dot: for these tiny operands its call overhead is well
    # below that of the matmul ufunc behind @
    PHt = P.dot(H.T)
    S = H.dot(PHt) + R
    if not np.isfinite(S).all():
        raise SingularUpdateError("innovation covariance is singular: "
                                  "not finite")
    w = _umath_linalg.eigvalsh_lo(S)
    if not (w[0] > 0.0 and w[-1] <= 1e12 * w[0]):
        raise SingularUpdateError("innovation covariance is singular")
    K = _umath_linalg.solve(S, PHt.T).T
    if math.isnan(K[0, 0]):     # a failed solve fills its output with NaN
        raise SingularUpdateError("solving S for the gain failed")
    dx = K.dot(innovation)
    IKH = np.eye(P.shape[0]) - K.dot(H)
    P_new = IKH.dot(P).dot(IKH.T) + K.dot(R).dot(K.T)
    return dx, 0.5 * (P_new + P_new.T)


def _joseph_row3(P, H, R, innovation):
    """The one-row Joseph update of ``joseph_update`` for three states,
    on the six unique entries of P."""
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = P.tolist()
    h0, h1, h2 = H[0].tolist()
    a0 = p00 * h0 + p01 * h1 + p02 * h2
    a1 = p01 * h0 + p11 * h1 + p12 * h2
    a2 = p02 * h0 + p12 * h1 + p22 * h2
    s = h0 * a0 + h1 * a1 + h2 * a2 + float(R[0, 0])
    if not s > 0.0:
        raise SingularUpdateError("innovation variance is not positive")
    k0, k1, k2 = a0 / s, a1 / s, a2 / s
    y = float(innovation[0])
    n00 = p00 - 2.0 * k0 * a0 + s * k0 * k0
    n01 = p01 - (k0 * a1 + a0 * k1) + s * k0 * k1
    n02 = p02 - (k0 * a2 + a0 * k2) + s * k0 * k2
    n11 = p11 - 2.0 * k1 * a1 + s * k1 * k1
    n12 = p12 - (k1 * a2 + a1 * k2) + s * k1 * k2
    n22 = p22 - 2.0 * k2 * a2 + s * k2 * k2
    return (np.array([k0 * y, k1 * y, k2 * y]),
            np.array([n00, n01, n02, n01, n11, n12,
                      n02, n12, n22]).reshape(3, 3))
