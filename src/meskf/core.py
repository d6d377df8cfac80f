"""Chart-space error-state filter core.

State: chart position t_R = (u, v), heading gamma_R within the tangent
plane, and the 3x3 error covariance P_x over (dt_R, dtheta_R).
``FilterState`` holds them as plain floats, P_x as its six unique
entries, as ``OdometryInput`` and ``RobotExtrinsics`` hold theirs.
Propagation and the one-row update (``correct_row``) read and write
floats and build no array. The nominal state propagates with the
measured velocities mapped through the tangent frame; corrections are
Kalman updates in Joseph form shared by all measurement models. An
update of more rows (``correct``) reads P_x as a 3x3 array for the
numpy ``joseph_update`` and returns to the floats after it.
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


class FilterState:
    """Chart position (u, v), m, heading gamma_R, rad, wrapped to
    (-pi, pi], and the 3x3 error covariance P_x over (dt_R, dtheta_R),
    all held as plain floats: ``P_upper`` is P_x's upper triangle row by
    row, (p00, p01, p02, p11, p12, p22).

    ``t_R`` and ``P_x`` build fresh arrays on every read, so a caller
    that writes into them leaves the state as it was. The public
    constructor takes t_R (two numbers) and P_x (3x3), copies them and
    reads P_x's upper triangle; ``from_floats`` takes the floats as they
    are.
    """
    __slots__ = ("u", "v", "gamma_R", "P_upper")

    def __init__(self, t_R, gamma_R, P_x):
        self.u, self.v = _floats(t_R, (2,), "t_R", "two numbers").tolist()
        self.gamma_R = wrap_angle(float(gamma_R))
        self.P_upper = _upper(_floats(P_x, (3, 3), "P_x", "a 3x3 matrix"))

    @classmethod
    def from_floats(cls, u: float, v: float, gamma_R: float,
                    P_upper: tuple) -> "FilterState":
        """State over floats that the filter has just computed; only the
        heading is wrapped."""
        state = cls.__new__(cls)
        state.u, state.v, state.P_upper = u, v, P_upper
        state.gamma_R = wrap_angle(float(gamma_R))
        return state

    @property
    def t_R(self) -> np.ndarray:
        """Chart position (2,), a fresh array."""
        return np.array((self.u, self.v))

    @property
    def P_x(self) -> np.ndarray:
        """Error covariance (3, 3), a fresh and exactly symmetric array."""
        p00, p01, p02, p11, p12, p22 = self.P_upper
        return np.array((p00, p01, p02, p01, p11, p12,
                         p02, p12, p22)).reshape(3, 3)

    def __repr__(self):
        return (f"FilterState(t_R={[self.u, self.v]}, "
                f"gamma_R={self.gamma_R}, P_upper={self.P_upper})")


def _floats(x, shape, field, what):
    try:
        a = np.array(x, dtype=float)
    except (TypeError, ValueError) as e:
        raise ValueError(f"FilterState.{field} must be {what}: {e}") from e
    if a.shape != shape:
        raise ValueError(f"FilterState.{field} must be {what}, not of "
                         f"shape {a.shape}")
    return a


def _upper(P: np.ndarray) -> tuple:
    """The six unique entries of a 3x3 array, its upper triangle."""
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = P.tolist()
    return p00, p01, p02, p11, p12, p22


@dataclass
class OdometryInput:
    """One odometry sample. Its pairs are read by unpacking: floats, as
    the simulator builds them, and numpy arrays give the same bits."""
    v_m: tuple               # body-frame linear velocity (vx, vy), m/s
    omega_m: float           # angular rate, rad/s
    sigma_v: tuple           # 2x2 velocity noise covariance, two rows
    sigma_omega: float       # angular-rate noise variance


@dataclass
class RobotExtrinsics:
    """Sensor mounting in the robot frame: a finite 3-vector and a
    non-zero 4-vector, q_RS normalised, stored as float tuples."""
    r_RS: tuple              # sensor lever arm in robot frame (3,), m
    q_RS: tuple              # sensor orientation in robot frame, wxyz

    def __post_init__(self):
        r = finite_array(self.r_RS, "extrinsics.r_RS")
        q = finite_array(self.q_RS, "extrinsics.q_RS")
        if r.shape != (3,):
            raise ConfigError("must be a 3-vector", field="extrinsics.r_RS")
        n = np.linalg.norm(q)
        if q.shape != (4,) or n == 0.0:
            raise ConfigError("must be a non-zero 4-vector",
                              field="extrinsics.q_RS")
        if abs(n - 1.0) > 1e-12:
            q = q / n
        self.r_RS, self.q_RS = tuple(r.tolist()), tuple(q.tolist())

    @staticmethod
    def identity() -> "RobotExtrinsics":
        return RobotExtrinsics((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))


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
    u, v, g = state.u, state.v, state.gamma_R
    _, s_u, s_v, s_uu, s_uv, s_vv = surface.eval_point(u, v)
    ca, sa, cb, sb = frame_cos_sin(s_u, s_v)
    c, s = math.cos(g), math.sin(g)
    vx, vy = odom.v_m
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
    u, v = state.u + du, state.v + dv
    surface._check_box(u, u, v, v)
    p00, p01, p02, p11, p12, p22 = state.P_upper
    (q00, q01), (_, q11) = odom.sigma_v
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
    return FilterState.from_floats(u, v, state.gamma_R + odom.omega_m * dt,
                                   (n00, n01, a02, n11, a12, n22))


def correct(state: FilterState, innovation: np.ndarray, H: np.ndarray,
            R: np.ndarray) -> FilterState:
    """Generic ESEKF correction: gain, injection, Joseph covariance.

    Takes the innovation (m,), H (m, 3) and R (m, m) as float arrays.
    The error reset Jacobian is the identity for this vector-plus-angle
    parameterization, so resetting the error is implicit.
    """
    dx, P_new = joseph_update(state.P_x, H, R, innovation)
    du, dv, dg = dx.tolist()
    return FilterState.from_floats(state.u + du, state.v + dv,
                                   state.gamma_R + dg, _upper(P_new))


def correct_row(state: FilterState, innovation: float, h0: float,
                h1: float, h2: float, R: float) -> FilterState:
    """``correct`` for one measurement row, on floats: the innovation,
    the row (h0, h1, h2) of H and the variance R. Builds no array."""
    (du, dv, dg), P_upper = _joseph_row3(state.P_upper, h0, h1, h2, R,
                                         innovation)
    return FilterState.from_floats(state.u + du, state.v + dv,
                                   state.gamma_R + dg, P_upper)


def joseph_update(P: np.ndarray, H: np.ndarray, R: np.ndarray,
                  innovation: np.ndarray):
    """Shared gain/injection/Joseph-covariance core.

    Returns (dx, P_new). Raises SingularUpdateError when the innovation
    covariance S is not finite, not positive definite, or its condition
    number exceeds 1e12. P is symmetric.

    With A = P H^T, S = H A + R and the gain K = A S^-1, the Joseph form
    (I - K H) P (I - K H)^T + K R K^T expands to
    P - K A^T - A K^T + K S K^T, an identity for any gain K (Bierman,
    "Factorization Methods for Discrete Sequential Estimation", 1977).
    Every update takes this expanded form: this function on arrays, and
    ``correct_row`` on floats for one row on three states, where S is a
    scalar.

    S is checked by ``require_spd`` and the gain solved by LU, both
    through numpy's linalg gufuncs directly: for these few-row systems
    the public wrappers cost more than the arithmetic. The gufuncs
    report no error code, so a failed solve is refused by the NaN it
    writes.
    """
    # ndarray.dot: for these tiny operands its call overhead is well
    # below that of the matmul ufunc behind @
    A = P.dot(H.T)
    S = H.dot(A) + R
    require_spd(S, SingularUpdateError, "innovation covariance")
    K = _umath_linalg.solve(S, A.T).T
    if math.isnan(K[0, 0]):     # a failed solve fills its output with NaN
        raise SingularUpdateError("solving S for the gain failed")
    KA = K.dot(A.T)
    P_new = P - (KA + KA.T) + K.dot(S).dot(K.T)
    return K.dot(innovation), 0.5 * (P_new + P_new.T)


def require_spd(S: np.ndarray, error: type, what: str) -> None:
    """Raise ``error`` unless the symmetric matrix S is finite, positive
    definite and has a condition number of at most 1e12.

    The eigenvalues are read from S's lower triangle by numpy's
    eigvalsh gufunc, which reports no error code, so a non-finite S is
    refused before it. The message names S as ``what``.
    """
    if not np.isfinite(S).all():
        raise error(f"{what} is singular: not finite")
    w = _umath_linalg.eigvalsh_lo(S)
    if not (w[0] > 0.0 and w[-1] <= 1e12 * w[0]):
        raise error(f"{what} is singular")


def _joseph_row3(P_upper, h0, h1, h2, r, y):
    """The one-row Joseph update of ``joseph_update`` for three states,
    written out on floats for ``correct_row``: P's six unique entries,
    the row (h0, h1, h2) of H, the variance r and the innovation y.
    Returns the correction dx and the six unique entries of the new
    covariance."""
    p00, p01, p02, p11, p12, p22 = P_upper
    a0 = p00 * h0 + p01 * h1 + p02 * h2
    a1 = p01 * h0 + p11 * h1 + p12 * h2
    a2 = p02 * h0 + p12 * h1 + p22 * h2
    s = h0 * a0 + h1 * a1 + h2 * a2 + r
    if not 0.0 < s < math.inf:
        raise SingularUpdateError("innovation variance is not positive "
                                  "and finite")
    k0, k1, k2 = a0 / s, a1 / s, a2 / s
    n00 = p00 - 2.0 * k0 * a0 + s * k0 * k0
    n01 = p01 - (k0 * a1 + a0 * k1) + s * k0 * k1
    n02 = p02 - (k0 * a2 + a0 * k2) + s * k0 * k2
    n11 = p11 - 2.0 * k1 * a1 + s * k1 * k1
    n12 = p12 - (k1 * a2 + a1 * k2) + s * k1 * k2
    n22 = p22 - 2.0 * k2 * a2 + s * k2 * k2
    return (k0 * y, k1 * y, k2 * y), (n00, n01, n02, n11, n12, n22)
