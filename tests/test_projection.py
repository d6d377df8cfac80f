"""Chart projection of position and range measurements."""
import warnings
from pathlib import Path

import numpy as np
import pytest

from meskf import (DegenerateCovarianceError, DegenerateGeometryError,
                   DegenerateSamplingError, FilterState, NoIntersectionError,
                   RobotExtrinsics, SamplingConfig, associate_to_surface,
                   ellipsoid_tangent_intersection, project_position,
                   project_range, project_range_variance,
                   projected_position_update, projected_range_update,
                   sample_sigma_region)
from meskf import projection, quat
from meskf.projection import ProjectedRange, _lever_arm
from meskf.sim.config import load_scenario
from meskf.sim.runner import run_campaign
from meskf.surface import world_to_chart

from conftest import make_random_surface, random_spd

IDENT = RobotExtrinsics.identity()
ROOT = Path(__file__).resolve().parents[1]
REFERENCE_SCENARIO = ROOT / "scenarios" / "reference_curved.json"
LEVER_SCENARIO = ROOT / "bench" / "lever_curved.json"
ZERO_J = np.zeros((3, 3))   # a zero lever-arm Jacobian, as an array


def lever_jpjt(J, P):
    """J P J^T of ``_lever_arm``'s J (rows, or None for no lever arm)."""
    J = ZERO_J if J is None else np.array(J)
    return J @ P @ J.T


def test_lever_arm_jacobian_matches_central_differences():
    # oracle: the lever arm written out as tangent frame times heading
    def lever_world(surface, s, ext):
        c, sn = np.cos(s.gamma_R), np.sin(s.gamma_R)
        r = ext.r_RS
        body = np.array([c * r[0] - sn * r[1], sn * r[0] + c * r[1], r[2]])
        return surface.tangent_frame(s.t_R) @ body

    surface = make_random_surface(77, amplitude=0.8)
    ext = RobotExtrinsics(np.array([0.3, -0.2, 0.5]),
                          quat.from_rotvec(np.array([0.1, 0.2, 0.3])))
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(10):
        s = FilterState(rng.uniform(-8, 8, size=2),
                        rng.uniform(-np.pi, np.pi), np.eye(3) * 0.01)
        cols = []
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            sp = FilterState(s.t_R + d[0:2], s.gamma_R + d[2], s.P_x)
            sm = FilterState(s.t_R - d[0:2], s.gamma_R - d[2], s.P_x)
            cols.append((lever_world(surface, sp, ext)
                         - lever_world(surface, sm, ext)) / (2 * h))
        p, J = _lever_arm(surface, s, ext)
        np.testing.assert_allclose(p, lever_world(surface, s, ext),
                                   atol=1e-14)
        np.testing.assert_allclose(J, np.column_stack(cols), atol=1e-8)
    # a zero lever arm never evaluates the surface, even off the chart
    p, J = _lever_arm(surface, FilterState(np.array([50.0, 50.0]), 0.3,
                                           np.eye(3)), IDENT)
    np.testing.assert_array_equal(p, np.zeros(3))
    assert J is None


def small_state(t=(0.0, 0.0), g=0.0, var=1e-4):
    return FilterState(np.asarray(t, dtype=float), g, np.eye(3) * var)


class TestEllipsoidIntersection:
    def test_membership_oracle(self):
        # both returned semi-axes lie exactly on the ellipsoid slice
        rng = np.random.default_rng(30)
        for _ in range(1000):
            P = random_spd(rng, 3, 0.1)
            A = rng.standard_normal((3, 3))
            Q, _ = np.linalg.qr(A)
            if np.linalg.det(Q) < 0:
                Q[:, 0] = -Q[:, 0]
            r1, r2 = ellipsoid_tangent_intersection(P, Q)
            Pinv = np.linalg.inv(P)
            assert abs(r1 @ Pinv @ r1 - 1.0) < 1e-9
            assert abs(r2 @ Pinv @ r2 - 1.0) < 1e-9
            # axes live in the tangent plane and are conjugate
            assert abs(r1 @ Q[:, 2]) < 1e-9
            assert abs(r2 @ Q[:, 2]) < 1e-9
            assert abs(r1 @ Pinv @ r2) < 1e-9
            assert r1 @ r1 >= r2 @ r2    # r1 is the longer axis

    def test_isotropic_gives_sigma_circle(self):
        P = np.eye(3) * 0.04
        r1, r2 = ellipsoid_tangent_intersection(P, np.eye(3))
        np.testing.assert_allclose(np.linalg.norm(r1), 0.2, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(r2), 0.2, atol=1e-12)

    @pytest.mark.parametrize("P", [np.diag([1.0, 1.0, 0.0]),
                                   np.full((3, 3), np.nan),
                                   np.diag([1.0, 1.0, -1.0])],
                             ids=["singular", "nan", "indefinite"])
    def test_singular_covariance_raises(self, P):
        with pytest.raises(DegenerateCovarianceError):
            ellipsoid_tangent_intersection(P, np.eye(3))


class TestProjectPosition:
    def test_flat_marginalization_exact(self, flat):
        # flat surface: the tangent slice equals the conditional
        # covariance of (x, y) given z, i.e. the inverse of the
        # position block of the precision matrix
        rng = np.random.default_rng(31)
        state = small_state((0.5, -0.5), 0.3)
        for _ in range(50):
            P_m = random_spd(rng, 3, 0.01)
            r_Sm = np.array([0.4, -0.6, 0.02])
            proj = project_position(flat, r_Sm, P_m, IDENT, state)
            P_full = P_m  # identity extrinsics: no lever-arm inflation
            expected = np.linalg.inv(np.linalg.inv(P_full)[0:2, 0:2])
            np.testing.assert_allclose(proj.P_t, expected, atol=1e-9)
            np.testing.assert_allclose(proj.z_t, r_Sm[0:2], atol=1e-9)

    @pytest.mark.parametrize("lever", [False, True],
                             ids=["no_lever", "lever"])
    def test_curved_matches_paper_construction(self, curved, monkeypatch,
                                               lever):
        # oracle: the paper's construction written out: invert P_M,
        # restrict it to the tangent plane, eigendecompose, lift both
        # semi-axes to R^3, drop z and multiply back as M M^T
        def paper_P_t(P_M, frame):
            T = frame[:, 0:2]
            lam, U = np.linalg.eigh(T.T @ np.linalg.inv(P_M) @ T)
            M = (T @ U / np.sqrt(lam))[0:2]
            return M @ M.T

        def refuse(*args, **kwargs):
            raise AssertionError("the projection needs no inverse, SVD "
                                 "or eigendecomposition")

        ext = (RobotExtrinsics(np.array([0.3, -0.2, 0.5]),
                               quat.from_rotvec(np.array([0.1, 0.2, 0.3])))
               if lever else IDENT)
        rng = np.random.default_rng(32)
        for _ in range(200):
            t = rng.uniform(-8, 8, size=2)
            state = FilterState(t, rng.uniform(-np.pi, np.pi),
                                random_spd(rng, 3, 1e-3))
            r_Sm = (np.array([*t, curved.eval_point(*t)[0]])
                    + rng.normal(0.0, 0.05, size=3))
            P_m = random_spd(rng, 3, 0.01)
            with monkeypatch.context() as m:
                for name in ("inv", "cond", "eigh", "svd"):
                    m.setattr(np.linalg, name, refuse)
                proj = project_position(curved, r_Sm, P_m, ext, state)
            lever_p, J = _lever_arm(curved, state, ext)
            z_t = world_to_chart(associate_to_surface(curved, r_Sm, lever_p))
            expected = paper_P_t(P_m + lever_jpjt(J, state.P_x),
                                 curved.tangent_frame(z_t))
            np.testing.assert_array_equal(proj.z_t, z_t)
            np.testing.assert_allclose(proj.P_t, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())

    def test_ramp_variance_split(self):
        # plane z = u has unit normal (-1,0,1)/sqrt(2); an isotropic
        # covariance s^2 I slices into semi-axes s and s/sqrt(2),
        # giving chart-variance eigenvalues {s^2, s^2/2}
        ramp = make_ramp()
        s2 = 0.04
        state = small_state()
        proj = project_position(ramp, np.array([0.0, 0.0, 0.0]),
                                np.eye(3) * s2, IDENT, state)
        w = np.sort(np.linalg.eigvalsh(proj.P_t))
        np.testing.assert_allclose(w, [s2 / 2, s2], atol=1e-6)

    def test_association_is_closest_point(self, curved):
        # (u, v, S) is closest_point's and (S_u, S_v) eval_point's there,
        # bit for bit
        r_Sm = curved.chart_to_world(np.array([1.1, 0.9])) + [0, 0, 0.3]
        u, v, s, s_u, s_v = associate_to_surface(curved, r_Sm, np.zeros(3))
        assert (np.array([u, v, s]).tobytes()
                == curved.closest_point(r_Sm).tobytes())
        assert (s, s_u, s_v) == curved.eval_point(u, v)[:3]

    @pytest.mark.parametrize("lever", [False, True],
                             ids=["no_lever", "lever"])
    def test_surface_evaluated_once_less(self, curved, monkeypatch,
                                         surface_calls, lever):
        # the projection reads the gradient at the associated point from
        # the closest-point search, so it evaluates the surface only in
        # that search and, with a lever arm, once for the lever arm; its
        # outputs are those of evaluating the associated point again
        def reevaluated(surface, r_Sm, lever_p):
            u, v, s = surface.closest_point(np.subtract(r_Sm, lever_p))
            return (u, v, s) + surface.eval_point(u, v)[1:3]

        ext = (RobotExtrinsics(np.array([0.3, -0.2, 0.5]),
                               quat.from_rotvec(np.array([0.1, 0.2, 0.3])))
               if lever else IDENT)
        evals = surface_calls("eval_point")
        rng = np.random.default_rng(34)
        for _ in range(50):
            t = rng.uniform(-8, 8, size=2)
            state = FilterState(t, rng.uniform(-np.pi, np.pi),
                                random_spd(rng, 3, 1e-3))
            r_Sm = (np.array([*t, curved.eval_point(*t)[0]])
                    + rng.normal(0.0, 0.05, size=3))
            P_m = random_spd(rng, 3, 0.01)
            lever_p = _lever_arm(curved, state, ext)[0]
            evals.clear()
            curved.closest_point(np.subtract(r_Sm, lever_p))
            search = len(evals)
            evals.clear()
            proj = project_position(curved, r_Sm, P_m, ext, state)
            assert len(evals) == search + lever
            with monkeypatch.context() as m:
                m.setattr(projection, "associate_to_surface", reevaluated)
                again = project_position(curved, r_Sm, P_m, ext, state)
            assert proj.z_t == again.z_t and proj.P_t == again.P_t

    def test_update_moves_position_only(self, curved):
        state = FilterState(np.array([1.0, 1.0]), 0.5, np.eye(3) * 0.01)
        r_Sm = curved.chart_to_world(np.array([1.05, 0.95]))
        proj = project_position(curved, r_Sm, np.eye(3) * 1e-4, IDENT, state)
        s2 = projected_position_update(state, proj)
        assert np.linalg.norm(s2.t_R - proj.z_t) < np.linalg.norm(
            state.t_R - proj.z_t)
        np.testing.assert_allclose(s2.gamma_R, state.gamma_R, atol=1e-12)


def make_ramp():
    # z = u over [-10, 10]^2: control points linear in u
    n = 8
    u = np.linspace(-10, 10, n)
    # degree-3 clamped spline with uniform interior knots reproduces
    # linears when control points follow the Greville abscissae
    from meskf import surface_from_grid
    from meskf.surface import BSplineSurface
    surf0 = surface_from_grid(np.zeros((n, n)), (-10, 10), (-10, 10), 3)
    grev = np.array([np.mean(surf0.knots_u[i + 1:i + 4]) for i in range(n)])
    control = np.tile(grev[:, None], (1, n))
    return BSplineSurface(3, 3, surf0.knots_u, surf0.knots_v, control)


def test_ramp_is_linear():
    ramp = make_ramp()
    pts = np.random.default_rng(0).uniform(-9, 9, size=(50, 2))
    np.testing.assert_allclose(ramp.elevation_many(pts), pts[:, 0],
                               atol=1e-10)


class TestSampling:
    def test_isotropic_disk_count(self, flat):
        state = small_state(var=1e-4)
        cfg = SamplingConfig(grid_half_width=3.0, grid_resolution=21)
        pts = sample_sigma_region(state, flat, cfg)
        # direct enumeration oracle: grid nodes inside the disk
        axis = np.linspace(-3, 3, 21)
        gu, gv = np.meshgrid(axis, axis, indexing="ij")
        inside = (gu ** 2 + gv ** 2) <= 9.0 + 1e-12
        assert len(pts) == int(inside.sum())

    def test_small_grid_contains_center(self, flat):
        state = small_state(t=(1.0, 2.0))
        cfg = SamplingConfig(grid_resolution=3)
        pts = sample_sigma_region(state, flat, cfg)
        assert any(np.allclose(p, [1.0, 2.0], atol=1e-12) for p in pts)

    def test_diagonal_covariance_aligns_axes(self, flat):
        state = FilterState(np.zeros(2), 0.0, np.diag([0.04, 0.01, 1.0]))
        pts = sample_sigma_region(state, flat, SamplingConfig())
        assert np.max(np.abs(pts[:, 0])) > np.max(np.abs(pts[:, 1])) + 0.1

    def test_grid_matches_inline_construction(self, curved):
        # the cached whitened grid gives the samples of building it anew
        state = FilterState(np.array([0.5, -0.3]), 0.2,
                            np.array([[0.02, 0.005, 0.0],
                                      [0.005, 0.01, 0.0],
                                      [0.0, 0.0, 0.01]]))
        # and a state whose cloud crosses the domain's corner (10, 10)
        edge = FilterState(np.array([9.8, 9.9]), 0.2, state.P_x)
        for st, w, n in ((state, 3.0, 41), (state, 2.5, 21),
                         (state, 3.0, 41), (edge, 3.0, 41)):
            cfg = SamplingConfig(grid_half_width=w, grid_resolution=n)
            axis = np.linspace(-w, w, n)
            gu, gv = np.meshgrid(axis, axis, indexing="ij")
            g = np.column_stack([gu.ravel(), gv.ravel()])
            g = g[np.einsum("ij,ij->i", g, g) <= w * w + 1e-12]
            L = np.linalg.cholesky(st.P_x[0:2, 0:2])
            ref = st.t_R + g @ L.T
            ref = ref[curved.contains(ref)]
            pts = sample_sigma_region(st, curved, cfg)
            np.testing.assert_array_equal(pts, ref)
            # stored column-major: each coordinate is contiguous
            assert pts.flags.f_contiguous
        # one grid is shared by every call, so no caller may write to it
        grid = projection._whitened_grid(3.0, 41)
        assert grid is projection._whitened_grid(3.0, 41)
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0

    def test_float_cholesky_is_numpys(self):
        # LAPACK's 2x2 potrf arithmetic, bit for bit, on SPD blocks over
        # 8 decades of scale and correlations up to 1 - 1e-6
        rng = np.random.default_rng(41)
        n = 20000
        scale = 10.0 ** rng.uniform(-8.0, 0.0, size=n)
        rho = rng.uniform(-1.0, 1.0, size=n) * (1.0 - 10.0 ** rng.uniform(
            -6.0, 0.0, size=n))
        s0, s1 = np.sqrt(scale * rng.uniform(0.1, 10.0, size=(2, n)))
        P = np.empty((n, 2, 2))
        P[:, 0, 0], P[:, 1, 1] = s0 * s0, s1 * s1
        P[:, 0, 1] = P[:, 1, 0] = rho * s0 * s1
        L = np.linalg.cholesky(P)
        got = np.array([projection._cholesky2(p00, p01, p11)
                        for (p00, p01), (_, p11) in P.tolist()])
        assert got.tobytes() == L.tobytes()

    @pytest.mark.parametrize("block", [
        (0.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 2.0, 1.0),
        (1.0, 0.0, 0.0), (np.nan, 0.0, 1.0), (1.0, np.nan, 1.0),
        (1.0, 0.0, np.nan)], ids=["zero-pivot", "negative-pivot",
                                  "singular", "indefinite", "zero-second",
                                  "nan-p00", "nan-p01", "nan-p11"])
    def test_float_cholesky_refuses_quietly(self, flat, block):
        # LAPACK's test, "not d > 0", on each pivot, NaN included; numpy
        # is not reached, so nothing warns
        p00, p01, p11 = block
        state = FilterState(np.zeros(2), 0.0, [[p00, p01, 0.0],
                                              [p01, p11, 0.0],
                                              [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSamplingError, match="not SPD"):
                sample_sigma_region(state, flat, SamplingConfig())

    def test_determinism(self, curved):
        state = small_state((0.5, 0.5), var=0.01)
        cfg = SamplingConfig()
        p1 = sample_sigma_region(state, curved, cfg)
        p2 = sample_sigma_region(state, curved, cfg)
        np.testing.assert_array_equal(p1, p2)

    def test_degenerate_covariance_raises(self, flat):
        state = FilterState(np.zeros(2), 0.0, np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(DegenerateSamplingError):
            sample_sigma_region(state, flat, SamplingConfig())

    def test_state_off_the_chart_raises(self, flat):
        # the flat chart is [-20, 20]^2; a 3-sigma cloud of 0.3 m around
        # (22, 0) has no node on it
        state = small_state(t=(22.0, 0.0), var=0.01)
        with pytest.raises(DegenerateSamplingError, match="in domain"):
            sample_sigma_region(state, flat, SamplingConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(grid_resolution=4)
        with pytest.raises(ValueError):
            SamplingConfig(grid_half_width=-1.0)
        # refused however the grid cache was warmed
        projection._whitened_grid(3.0, 21)
        for bad in ({"grid_resolution": 21.0}, {"grid_half_width": np.nan},
                    {"shell_tolerance": np.nan}):
            with pytest.raises(ValueError):
                SamplingConfig(**bad)


class TestProjectRangeVariance:
    def test_flat_in_plane_anchor_identity(self, flat):
        state = small_state()
        R_d = 0.0025
        anchor = np.array([5.0, 0.0, 0.0])
        got = project_range_variance(flat, R_d, ZERO_J, state, anchor)
        np.testing.assert_allclose(got, R_d, atol=1e-12)

    def test_flat_anchor_overhead_floors(self, flat):
        state = small_state()
        anchor = np.array([0.0, 0.0, 5.0])
        got = project_range_variance(flat, 0.0025, ZERO_J, state, anchor)
        np.testing.assert_allclose(got, 1e-12)

    def test_matches_vector_formulation(self):
        # the float arithmetic against the same formula in numpy
        # 3-vectors, with a lever arm, on a curved surface
        lever = load_scenario(LEVER_SCENARIO)
        surface, ext = lever.surface, lever.extrinsics
        rng = np.random.default_rng(21)
        for _ in range(20):
            state = FilterState(rng.uniform(-8, 8, size=2),
                                rng.uniform(-np.pi, np.pi),
                                random_spd(rng, 3, 1e-3))
            anchor = rng.uniform([-9, -9, -1], [9, 9, 2])
            _, J = _lever_arm(surface, state, ext)
            d = surface.chart_to_world(state.t_R) - anchor
            n_AS = d / np.linalg.norm(d)
            p_d = n_AS * 0.0025 + lever_jpjt(J, state.P_x) @ n_AS
            normal = surface.tangent_frame(state.t_R)[:, 2]
            p_dT = p_d - normal * (normal @ p_d)
            np.testing.assert_allclose(
                project_range_variance(surface, 0.0025, J, state, anchor),
                np.linalg.norm(p_dT[0:2]), rtol=1e-12)

    def test_coincident_anchor_raises(self, flat):
        state = small_state()
        anchor = flat.chart_to_world(state.t_R)
        with pytest.raises(Exception):
            project_range_variance(flat, 0.0025, ZERO_J, state, anchor)


class TestProjectRange:
    def test_flat_in_plane_matches_euclidean(self, flat):
        state = FilterState(np.zeros(2), 0.0, np.eye(3) * 0.01)
        anchor = np.array([4.0, 3.0, 0.0])
        z_d = 5.0
        proj = project_range(flat, z_d, 0.0025, anchor, IDENT, state,
                             SamplingConfig())
        assert abs(proj.z_dU - z_d) < 0.06   # tol + grid quantization
        np.testing.assert_allclose(proj.t_A_prime, anchor[0:2], atol=1e-9)

    def test_elevated_anchor_pythagorean(self, flat):
        # anchor h above a flat surface: chart distance sqrt(z_d^2 - h^2)
        rng = np.random.default_rng(32)
        cfg = SamplingConfig()
        for _ in range(100):
            t = rng.uniform(-3, 3, size=2)
            state = FilterState(t, rng.uniform(-np.pi, np.pi),
                                np.eye(3) * 0.01)
            h = rng.uniform(0.2, 2.0)
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            chart_dist = rng.uniform(2.0, 6.0)
            anchor = np.concatenate([t + chart_dist * direction, [h]])
            z_d = np.hypot(chart_dist, h)
            R_d = 0.0025
            proj = project_range(flat, z_d, R_d, anchor, IDENT, state, cfg)
            expected = np.sqrt(z_d ** 2 - h ** 2)
            # shell tolerance plus sigma-grid quantization bound
            grid_step = 2 * cfg.grid_half_width * 0.1 / (cfg.grid_resolution
                                                         - 1)
            tol = np.sqrt(R_d) + 3 * grid_step
            assert abs(proj.z_dU - expected) < tol

    def test_shell_miss_raises(self, flat):
        state = FilterState(np.zeros(2), 0.0, np.eye(3) * 1e-4)
        anchor = np.array([5.0, 0.0, 0.0])
        with pytest.raises(NoIntersectionError):
            project_range(flat, 20.0, 1e-4, anchor, IDENT, state,
                          SamplingConfig())

    def test_determinism(self, curved):
        state = FilterState(np.array([0.5, -0.5]), 0.2, np.eye(3) * 0.01)
        anchor = np.array([6.0, 1.0, 0.5])
        z_d = np.linalg.norm(curved.chart_to_world(state.t_R) - anchor)
        a = project_range(curved, z_d, 0.0025, anchor, IDENT, state,
                          SamplingConfig())
        b = project_range(curved, z_d, 0.0025, anchor, IDENT, state,
                          SamplingConfig())
        assert a.z_dU == b.z_dU and a.R_dU == b.R_dU
        np.testing.assert_array_equal(a.t_A_prime, b.t_A_prime)

    def test_shell_matches_world_point_reference(self, curved):
        # the shell written with world points, eval_point elevations and
        # np.linalg.norm gives the same z_dU, bit for bit; a shell 1e-300
        # wide around one sample's distance keeps that sample only if
        # the distance is reproduced to the last bit, and the default
        # tolerance (None) is one range sigma
        rng = np.random.default_rng(33)
        R_d = 0.0025

        def check(state, anchor):
            samples = sample_sigma_region(state, curved,
                                          SamplingConfig(3.0, 41))
            z = [curved.eval_point(u, v)[0] for u, v in samples.tolist()]
            d = np.linalg.norm(np.column_stack([samples, z]) - anchor, axis=1)
            t_A = world_to_chart(curved.closest_point(anchor))
            z_d = float(d[rng.integers(len(d))])
            for tol in (0.05, 1e-300, None):
                t_m = samples[np.abs(d - z_d)
                              <= (np.sqrt(R_d) if tol is None else tol)]
                proj = project_range(curved, z_d, R_d, anchor, IDENT,
                                     state, SamplingConfig(3.0, 41, tol))
                assert proj.z_dU == float(np.mean(np.linalg.norm(
                    t_A - t_m, axis=1)))
            return samples

        for _ in range(20):
            state = FilterState(rng.uniform(-8.5, 8.5, size=2), 0.0,
                                random_spd(rng, 3, 0.01))
            anchor = np.concatenate([rng.uniform(-9, 9, size=2), [0.5]])
            check(state, anchor)
        P = np.array([[0.02, 0.005, 0.0], [0.005, 0.01, 0.0],
                      [0.0, 0.0, 0.01]])
        anchor = np.array([4.0, -3.0, 0.5])
        # a cloud across the domain's corner (10, -10) loses samples
        samples = check(FilterState(np.array([9.8, -9.85]), 0.0, P), anchor)
        assert len(samples) < len(projection._whitened_grid(3.0, 41))
        # a cloud across the knot lines u = 2, v = -6 takes
        # elevation_many's path over several patches
        samples = check(FilterState(np.array([2.0, -6.0]), 0.0, P), anchor)
        for column, knot in zip(samples.T, (2.0, -6.0)):
            assert column.min() < knot < column.max()

    def test_moving_anchor_equals_a_fresh_solve(self, monkeypatch,
                                                surface_calls):
        # every projection's anchor is the closest point of A' solved on
        # that call; with a lever arm A' moves with the state, and with
        # none it is the anchor itself. A separately loaded surface gives
        # the same solve.
        solved = surface_calls("closest_point")
        project = projection.project_range
        projected = []

        def recorded(surface, z_d, R_d, anchor, ext, state, config):
            lever = _lever_arm(surface, state, ext)[0]
            first = len(solved)
            proj = project(surface, z_d, R_d, anchor, ext, state, config)
            projected.append((np.subtract(anchor, lever), solved[first:],
                              proj))
            return proj

        monkeypatch.setattr(projection, "project_range", recorded)
        for path in (REFERENCE_SCENARIO, LEVER_SCENARIO):
            scenario = load_scenario(path)
            scenario.filter_kind, scenario.n_trials = "MP-ESEKF", 1
            fresh = load_scenario(path).surface
            projected.clear()
            run_campaign(scenario)
            assert len(projected) > 100
            for a, calls, proj in projected:
                assert len(calls) == 1
                np.testing.assert_array_equal(calls[0][0], a)
                np.testing.assert_array_equal(
                    proj.t_A_prime, world_to_chart(fresh.closest_point(a)))


class TestProjectedRangeUpdate:
    def test_consistent_measurement_keeps_mean(self):
        state = FilterState(np.array([1.0, 0.0]), 0.0, np.eye(3) * 0.01)
        proj = ProjectedRange(4.0, 0.0025, np.array([5.0, 0.0]))
        s2 = projected_range_update(state, proj)
        np.testing.assert_allclose(s2.t_R, state.t_R, atol=1e-12)

    def test_single_update_is_rank_one(self):
        state = FilterState(np.array([1.0, 0.0]), 0.0, np.eye(3) * 0.01)
        proj = ProjectedRange(3.8, 0.0025, np.array([5.0, 0.0]))
        s2 = projected_range_update(state, proj)
        # variance along the tangential direction is untouched
        np.testing.assert_allclose(s2.P_x[1, 1], state.P_x[1, 1], atol=1e-12)
        assert s2.P_x[0, 0] < state.P_x[0, 0]

    def test_degenerate_equivalent_anchor(self):
        state = FilterState(np.array([1.0, 0.0]), 0.0, np.eye(3) * 0.01)
        proj = ProjectedRange(0.0, 0.0025, state.t_R.copy())
        with pytest.raises(DegenerateGeometryError,
                           match="equivalent anchor"):
            projected_range_update(state, proj)


def test_zero_lever_arm_skips_the_sensor_model(monkeypatch):
    # the shortcut compares the extrinsics' float tuple with a zero tuple
    def refuse(*args, **kwargs):
        raise AssertionError("sensor model evaluated for a zero lever arm")

    monkeypatch.setattr(projection, "_sensor_model", refuse)
    state = FilterState(np.array([1.0, 2.0]), 0.3, np.eye(3) * 0.01)
    for ext in (IDENT, RobotExtrinsics(np.zeros(3), [0.0, 0.0, 0.0, 1.0])):
        p, J = _lever_arm(make_random_surface(77), state, ext)
        assert p == (0.0, 0.0, 0.0) and J is None


def test_lever_arm_computed_once_per_measurement(monkeypatch):
    # with a lever arm, each projection takes p and J from one call
    lever = load_scenario(LEVER_SCENARIO)
    surface, ext = lever.surface, lever.extrinsics
    assert np.any(ext.r_RS)
    calls = []
    real = projection._lever_arm

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(projection, "_lever_arm", counted)
    state = FilterState(np.array([2.0, 1.0]), 0.4, np.eye(3) * 0.01)
    p, J = real(surface, state, ext)
    sensor = surface.chart_to_world(state.t_R) + p
    project_position(surface, sensor + [0.01, -0.02, 0.03],
                     np.eye(3) * 1e-3, ext, state)
    assert len(calls) == 1
    anchor = np.array([9.5, -1.0, 0.1])
    proj = project_range(surface, float(np.linalg.norm(sensor - anchor)),
                         0.0025, anchor, ext, state,
                         SamplingConfig(3.0, 41, 0.02))
    assert len(calls) == 2
    # the variance is the one the lever-arm Jacobian gives
    assert proj.R_dU == project_range_variance(surface, 0.0025, J, state,
                                               anchor - p)
