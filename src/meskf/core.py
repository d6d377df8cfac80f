"""Chart-space error-state filter core.

State: chart position t_R = (u, v), heading gamma_R within the tangent
plane, and the 3x3 error covariance P_x over (dt_R, dtheta_R).
``FilterState`` holds them as plain floats, P_x as its six unique
entries, as ``OdometryInput`` and ``RobotExtrinsics`` hold theirs.
The nominal state propagates with the measured velocities mapped
through the tangent frame; corrections are Kalman updates in Joseph
form shared by all measurement models. Propagation, the one-row update
(``correct_row``) and the update of two or three rows (``correct_rows``)
read and write floats. An update of more rows (``correct``, the
M-ESEKF's six-row pose) reads P_x as a 3x3 array for the numpy
``joseph_update`` and returns to the floats after it.
"""

import math
from dataclasses import dataclass
from itertools import chain

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


def correct_rows(state: FilterState, innovation, H, R) -> FilterState:
    """``correct`` for two or three measurement rows, on floats: the
    innovation (m floats), the m rows of H (three floats each) and the m
    rows of R. Builds no array but the S that ``require_spd`` checks."""
    (du, dv, dg), P_upper = _joseph_rows3(state.P_upper, H, R, innovation)
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
    on floats for three states ``correct_row`` for one row, where S is a
    scalar, and ``correct_rows`` for two or three, with S's closed-form
    inverse.

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


def require_spd(S, error: type, what: str) -> None:
    """Raise ``error`` unless the symmetric matrix S, an array or its
    rows of floats, is finite, positive definite and has a condition
    number of at most 1e12.

    The eigenvalues are read from S's lower triangle by numpy's
    eigvalsh gufunc, which reports no error code, so a non-finite S is
    refused before it: every entry is checked, rows on their floats
    before they are put in an array. The message names S as ``what``.
    """
    if isinstance(S, np.ndarray):
        finite = np.isfinite(S).all()
    else:
        finite = all(map(math.isfinite, chain.from_iterable(S)))
        S = np.array(S)
    if not finite:
        raise error(f"{what} is singular: not finite")
    w = _umath_linalg.eigvalsh_lo(S).tolist()
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


def _joseph_rows3(P_upper, H, R, y):
    """The Joseph update of ``joseph_update`` for two or three rows on
    three states, written out on floats for ``correct_rows``: P's six
    unique entries, the rows (three floats each) of H, the rows of R and
    the innovation y. Returns the correction dx and the six unique
    entries of the new covariance.

    S = H A + R is refused by ``require_spd``, as in ``joseph_update``,
    and the gain K = A S^-1 takes S's inverse in closed form, its
    cofactors over its determinant. An S that passes but whose
    determinant is not a positive finite float (for three rows, entries
    all below about 1e-100 or above 1e100) is refused as a failed solve.

    Two rows are taken as three, once their own 2x2 S has been checked,
    with a third row that observes nothing (h = 0, r = 1, y = 0). Its
    cofactors in S^-1, its gain column and every term it adds are exact
    zeros, so the result has the bits of the update written out for two
    rows.
    """
    p00, p01, p02, p11, p12, p22 = P_upper
    if len(H) == 2:
        (h00, h01, h02), (h10, h11, h12) = H
        h20 = h21 = h22 = 0.0
        (r00, r01), (r10, r11) = R
        r02 = r12 = r20 = r21 = 0.0
        r22 = 1.0
        y0, y1 = y
        y2 = 0.0
    else:
        (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = H
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
        y0, y1, y2 = y
    # A = P H^T, column j (a_j0, a_j1, a_j2) for row j of H
    a00 = p00 * h00 + p01 * h01 + p02 * h02
    a01 = p01 * h00 + p11 * h01 + p12 * h02
    a02 = p02 * h00 + p12 * h01 + p22 * h02
    a10 = p00 * h10 + p01 * h11 + p02 * h12
    a11 = p01 * h10 + p11 * h11 + p12 * h12
    a12 = p02 * h10 + p12 * h11 + p22 * h12
    a20 = p00 * h20 + p01 * h21 + p02 * h22
    a21 = p01 * h20 + p11 * h21 + p12 * h22
    a22 = p02 * h20 + p12 * h21 + p22 * h22
    # S = H A + R, with H A symmetric
    c01 = h00 * a10 + h01 * a11 + h02 * a12
    c02 = h00 * a20 + h01 * a21 + h02 * a22
    c12 = h10 * a20 + h11 * a21 + h12 * a22
    s00 = h00 * a00 + h01 * a01 + h02 * a02 + r00
    s11 = h10 * a10 + h11 * a11 + h12 * a12 + r11
    s22 = h20 * a20 + h21 * a21 + h22 * a22 + r22
    s01, s02, s12 = c01 + r01, c02 + r02, c12 + r12
    s10, s20, s21 = c01 + r10, c02 + r20, c12 + r21
    require_spd(((s00, s01), (s10, s11)) if len(H) == 2 else
                ((s00, s01, s02), (s10, s11, s12), (s20, s21, s22)),
                SingularUpdateError, "innovation covariance")
    # W = S^-1: the cofactors, transposed, over the determinant
    w00 = s11 * s22 - s12 * s21
    w10 = s12 * s20 - s10 * s22
    w20 = s10 * s21 - s11 * s20
    det = s00 * w00 + s01 * w10 + s02 * w20
    if not 0.0 < det < math.inf:
        raise SingularUpdateError("solving S for the gain failed")
    d = 1.0 / det
    w00, w10, w20 = w00 * d, w10 * d, w20 * d
    w01 = (s02 * s21 - s01 * s22) * d
    w11 = (s00 * s22 - s02 * s20) * d
    w21 = (s01 * s20 - s00 * s21) * d
    w02 = (s01 * s12 - s02 * s11) * d
    w12 = (s02 * s10 - s00 * s12) * d
    w22 = (s00 * s11 - s01 * s10) * d
    # K = A W, column j (k_j0, k_j1, k_j2)
    k00 = a00 * w00 + a10 * w10 + a20 * w20
    k01 = a01 * w00 + a11 * w10 + a21 * w20
    k02 = a02 * w00 + a12 * w10 + a22 * w20
    k10 = a00 * w01 + a10 * w11 + a20 * w21
    k11 = a01 * w01 + a11 * w11 + a21 * w21
    k12 = a02 * w01 + a12 * w11 + a22 * w21
    k20 = a00 * w02 + a10 * w12 + a20 * w22
    k21 = a01 * w02 + a11 * w12 + a21 * w22
    k22 = a02 * w02 + a12 * w12 + a22 * w22
    # B = K S, column j (b_j0, b_j1, b_j2)
    b00 = k00 * s00 + k10 * s10 + k20 * s20
    b01 = k01 * s00 + k11 * s10 + k21 * s20
    b02 = k02 * s00 + k12 * s10 + k22 * s20
    b10 = k00 * s01 + k10 * s11 + k20 * s21
    b11 = k01 * s01 + k11 * s11 + k21 * s21
    b12 = k02 * s01 + k12 * s11 + k22 * s21
    b20 = k00 * s02 + k10 * s12 + k20 * s22
    b21 = k01 * s02 + k11 * s12 + k21 * s22
    b22 = k02 * s02 + k12 * s12 + k22 * s22
    # E = K A^T, entry (r, c)
    e00 = k00 * a00 + k10 * a10 + k20 * a20
    e01 = k00 * a01 + k10 * a11 + k20 * a21
    e02 = k00 * a02 + k10 * a12 + k20 * a22
    e10 = k01 * a00 + k11 * a10 + k21 * a20
    e11 = k01 * a01 + k11 * a11 + k21 * a21
    e12 = k01 * a02 + k11 * a12 + k21 * a22
    e20 = k02 * a00 + k12 * a10 + k22 * a20
    e21 = k02 * a01 + k12 * a11 + k22 * a21
    e22 = k02 * a02 + k12 * a12 + k22 * a22
    # P - (K A^T + A K^T) + (K S) K^T
    return ((k00 * y0 + k10 * y1 + k20 * y2,
             k01 * y0 + k11 * y1 + k21 * y2,
             k02 * y0 + k12 * y1 + k22 * y2),
            (p00 - (e00 + e00) + (b00 * k00 + b10 * k10 + b20 * k20),
             p01 - (e01 + e10) + (b00 * k01 + b10 * k11 + b20 * k21),
             p02 - (e02 + e20) + (b00 * k02 + b10 * k12 + b20 * k22),
             p11 - (e11 + e11) + (b01 * k01 + b11 * k11 + b21 * k21),
             p12 - (e12 + e21) + (b01 * k02 + b11 * k12 + b21 * k22),
             p22 - (e22 + e22) + (b02 * k02 + b12 * k12 + b22 * k22)))
