"""Quaternion algebra (Hamilton convention, scalar-first)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from meskf import quat

unit = st.floats(-1.0, 1.0)


def random_unit(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def test_multiply_identity():
    e = np.array([1.0, 0, 0, 0])
    q = quat.normalize(np.array([0.3, -0.4, 0.5, 0.6]))
    np.testing.assert_allclose(quat.multiply(e, q), q, atol=1e-15)
    np.testing.assert_allclose(quat.multiply(q, e), q, atol=1e-15)


def test_multiply_matches_matrix_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = random_unit(rng), random_unit(rng)
        np.testing.assert_allclose(
            quat.to_matrix(quat.multiply(a, b)),
            np.array(quat.to_matrix(a)) @ quat.to_matrix(b), atol=1e-12)


def test_conjugate_inverts_unit_quaternion():
    rng = np.random.default_rng(2)
    q = random_unit(rng)
    e = quat.multiply(q, quat.conjugate(q))
    np.testing.assert_allclose(e, [1, 0, 0, 0], atol=1e-14)


def test_rotvec_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(0, 1.0, size=3)
        n = np.linalg.norm(v)
        if n > np.pi - 0.05:                 # log map canonical range
            v *= (np.pi - 0.05) / n
        np.testing.assert_allclose(quat.to_rotvec(quat.from_rotvec(v)), v,
                                   atol=1e-12)


def test_from_matrix_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = quat.canonicalize(random_unit(rng))
        q2 = quat.from_matrix(quat.to_matrix(q))
        np.testing.assert_allclose(quat.canonicalize(q2), q, atol=1e-9)


def test_from_matrix_many_matches_scalar():
    rng = np.random.default_rng(5)
    qs = np.array([quat.canonicalize(random_unit(rng)) for _ in range(30)])
    mats = np.array([quat.to_matrix(q) for q in qs])
    got = quat.from_matrix_many(mats)
    for k in range(30):
        np.testing.assert_allclose(quat.canonicalize(got[k]), qs[k],
                                   atol=1e-9)


def test_to_matrix_many_is_to_matrix_bit_for_bit():
    # near-unit inputs too, as filters hand over: both normalise first
    rng = np.random.default_rng(6)
    qs = np.array([random_unit(rng) for _ in range(200)])
    qs *= 1.0 + rng.uniform(-1e-15, 1e-15, size=(200, 1))
    rows = quat.to_matrix_many(qs)
    got = np.stack([np.stack(row, axis=-1) for row in rows], axis=1)
    want = np.array([quat.to_matrix(q) for q in qs])
    assert got.tobytes() == want.tobytes()


def test_z_rotation():
    q = quat.z_rotation(0.7)
    R = quat.to_matrix(q)
    c, s = np.cos(0.7), np.sin(0.7)
    np.testing.assert_allclose(R, [[c, -s, 0], [s, c, 0], [0, 0, 1]],
                               atol=1e-14)


def test_small_angle_linearization():
    v = np.array([1e-4, -2e-4, 3e-4])
    q = quat.from_rotvec(v)
    np.testing.assert_allclose(quat.small_angle(q), v, rtol=1e-6)


def test_from_tait_bryan_axes():
    np.testing.assert_allclose(quat.from_tait_bryan(0.3, 0, 0),
                               quat.from_axis_angle(np.array([1.0, 0, 0]), 0.3),
                               atol=1e-14)
    np.testing.assert_allclose(quat.from_tait_bryan(0, 0.3, 0),
                               quat.from_axis_angle(np.array([0, 1.0, 0]), 0.3),
                               atol=1e-14)
    np.testing.assert_allclose(quat.from_tait_bryan(0, 0, 0.3),
                               quat.z_rotation(0.3), atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(unit, unit, unit, unit)
def test_property_rotation_preserves_norm(a, b, c, d):
    q = np.array([a, b, c, d])
    n = np.linalg.norm(q)
    if n < 1e-3:
        return
    R = quat.to_matrix(q / n)
    v = np.array([0.3, -1.2, 2.0])
    assert abs(np.linalg.norm(R @ v) - np.linalg.norm(v)) < 1e-10
    assert abs(np.linalg.det(R) - 1.0) < 1e-10


# Independent oracle: scipy's Rotation (Hamilton product, matrices acting
# on column vectors; quaternions read and written scalar-first here).
finite = st.floats(-1.0, 1.0, allow_nan=False)
quats = st.tuples(finite, finite, finite, finite).filter(
    lambda q: np.linalg.norm(q) > 1e-3)
# rotation angle below pi - 0.05, where the log map is unambiguous
rotvecs = st.tuples(finite, finite, finite).map(
    lambda v: tuple(np.asarray(v) * (np.pi - 0.05) / np.sqrt(3.0)))
tiny = st.floats(-1e-12, 1e-12, allow_nan=False)
angles = st.floats(-3.0, 3.0, allow_nan=False)


def scipy_rot(q):
    return Rotation.from_quat(np.asarray(q, dtype=float), scalar_first=True)


def assert_same_rotation(q, ref, atol=1e-12):
    """q equals ref up to the sign of the quaternion."""
    q, ref = np.asarray(q), np.asarray(ref)
    assert min(np.max(np.abs(q - ref)), np.max(np.abs(q + ref))) < atol


@settings(max_examples=200, deadline=None)
@given(quats, quats)
def test_multiply_matches_scipy_composition(a, b):
    a, b = quat.normalize(a), quat.normalize(b)
    ref = (scipy_rot(a) * scipy_rot(b)).as_quat(scalar_first=True)
    assert_same_rotation(quat.multiply(a, b), ref)


@settings(max_examples=200, deadline=None)
@given(quats)
def test_to_matrix_matches_scipy(q):
    np.testing.assert_allclose(quat.to_matrix(q),
                               scipy_rot(q).as_matrix(), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.one_of(rotvecs, st.tuples(tiny, tiny, tiny)))
def test_rotvec_maps_match_scipy(v):
    ref = Rotation.from_rotvec(v)
    assert_same_rotation(quat.from_rotvec(v),
                         ref.as_quat(scalar_first=True), atol=1e-14)
    np.testing.assert_allclose(quat.to_rotvec(quat.from_rotvec(v)),
                               ref.as_rotvec(), rtol=1e-9, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(angles, angles, angles)
def test_from_tait_bryan_is_intrinsic_zyx(roll, pitch, yaw):
    ref = Rotation.from_euler("ZYX", [yaw, pitch, roll])
    assert_same_rotation(quat.from_tait_bryan(roll, pitch, yaw),
                         ref.as_quat(scalar_first=True))


@settings(max_examples=200, deadline=None)
@given(quats)
def test_from_matrix_matches_scipy(q):
    R = scipy_rot(q).as_matrix()
    got = quat.from_matrix(R)
    ref = Rotation.from_matrix(R).as_quat(canonical=True, scalar_first=True)
    assert got[0] >= 0.0
    assert_same_rotation(got, ref, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.one_of(rotvecs, st.tuples(tiny, tiny, tiny)), st.booleans())
def test_small_angle_matches_scipy_rotvec(v, flip):
    q = quat.from_rotvec(v)
    if flip:                                 # -q is the same rotation
        q = tuple(-x for x in q)
    # 2 vec(q) = 2 sin(theta / 2) u against the rotation vector theta u
    rotvec = Rotation.from_rotvec(v).as_rotvec()
    theta = np.linalg.norm(rotvec)
    np.testing.assert_allclose(quat.small_angle(q),
                               rotvec * np.sinc(theta / (2.0 * np.pi)),
                               rtol=1e-12, atol=1e-15)


ONE_QUAT = (0.3, -0.4, 0.5, 0.6)
# every function with its arguments, the quaternion or vector first
CALLS = {
    "normalize": (ONE_QUAT,),
    "canonicalize": (ONE_QUAT,),
    "multiply": (ONE_QUAT, (0.1, 0.2, -0.3, 0.9)),
    "conjugate": (ONE_QUAT,),
    "from_axis_angle": ((0.0, 0.6, 0.8), 0.4),
    "from_rotvec": ((0.1, -0.2, 0.3),),
    "to_rotvec": (ONE_QUAT,),
    "to_matrix": (ONE_QUAT,),
    "from_matrix": (quat.to_matrix(ONE_QUAT),),
    "small_angle": ((-0.99, 0.01, 0.02, 0.03),),
}


def _all_plain_floats(out):
    if isinstance(out, tuple):
        return all(_all_plain_floats(x) for x in out)
    return type(out) is float


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("as_array", [False, True])
def test_returns_plain_floats(name, as_array):
    args = CALLS[name]
    if as_array:
        args = (np.array(args[0]),) + args[1:]
    out = getattr(quat, name)(*args)
    assert isinstance(out, tuple) and _all_plain_floats(out)
    np.testing.assert_array_equal(out, getattr(quat, name)(*CALLS[name]))


def test_scalar_constructors_return_plain_floats():
    for out in (quat.z_rotation(np.float64(0.3)),
                quat.from_tait_bryan(*np.array([0.1, -0.2, 0.3]))):
        assert isinstance(out, tuple) and _all_plain_floats(out)


@pytest.mark.parametrize("name", ["normalize", "to_matrix", "to_rotvec"])
@pytest.mark.parametrize("zero", [(0.0, 0.0, 0.0, 0.0), np.zeros(4)])
def test_zero_quaternion_is_refused(name, zero):
    with pytest.raises(ValueError):
        getattr(quat, name)(zero)
