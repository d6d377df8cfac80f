"""Acceptance gate: the eight package-level criteria.

Each test prints a single PASS/FAIL line (written to the real stdout so
it is visible under pytest capture) and asserts the criterion at the
stated tolerance. Criteria 4, 5 and 7 share one Monte-Carlo campaign on
the bundled curved scenario (N = 100 per filter); criterion 8 runs the
flat-surface self-test campaign.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from meskf import (FilterState, OdometryInput, PoseMeasurement,
                   RobotExtrinsics, flat_surface, world_to_chart)
from meskf import quat
from meskf.sensors3d import pose_update
from meskf.core import propagate, wrap_angle
from meskf.sim.config import load_scenario
from meskf.sim.runner import run_campaign
from meskf.sim.trajectory import generate_ground_truth

from conftest import make_random_surface, random_spd

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SCENARIO = ROOT / "scenarios" / "reference_curved.json"
FLAT_SCENARIO = ROOT / "scenarios" / "flat_selftest.json"
IDENT = RobotExtrinsics.identity()


def report(criterion: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print("\n" + line, flush=True)
    assert ok, line


def campaign_metrics(scenario_path, filter_kind=None, n_trials=None,
                     duration=None):
    sc = load_scenario(scenario_path)
    if filter_kind:
        sc.filter_kind = filter_kind
    if n_trials:
        sc.n_trials = n_trials
    if duration:
        sc.trajectory.duration = duration
        sc.schedule = type(sc.schedule).always_on(duration)
    return run_campaign(sc)[0]


@pytest.fixture(scope="module")
def reference_campaign():
    """N=100 campaigns for all three filters on the bundled scenario."""
    # short warm-up per filter so first-call costs (lazy imports, cold
    # caches) do not leak into the timed corrections of the first trial
    for kind in ("M-ESEKF", "MP-ESEKF", "C-ESEKF"):
        campaign_metrics(REFERENCE_SCENARIO, kind, n_trials=1, duration=3.0)
    start = time.perf_counter()
    out = {kind: campaign_metrics(REFERENCE_SCENARIO, kind)
           for kind in ("M-ESEKF", "MP-ESEKF", "C-ESEKF")}
    out["wall_s"] = time.perf_counter() - start
    return out


def in_bounds_fraction(m):
    lo, hi = m.anees_bounds
    return float(np.mean((m.anees >= lo) & (m.anees <= hi)))


def window(m, a, b):
    return (m.times >= a) & (m.times <= b)


# --------------------------------------------------------------------------
# 1. geometry suite
# --------------------------------------------------------------------------
def test_criterion_1_geometry():
    start = time.perf_counter()
    worst_ortho = worst_normal = worst_grad = worst_orthres = 0.0
    rng = np.random.default_rng(1001)
    for si in range(5):
        surface = make_random_surface(2000 + si, amplitude=1.0)
        pts = rng.uniform(-9.5, 9.5, size=(10_000, 2))
        frames = surface.tangent_frame_many(pts)
        g = surface.gradient_many(pts)
        # orthonormality and normal correctness
        gram = np.einsum("nij,nik->njk", frames, frames)
        worst_ortho = max(worst_ortho,
                          float(np.max(np.abs(gram - np.eye(3)))))
        n_exact = np.column_stack([-g, np.ones(len(g))])
        n_exact /= np.linalg.norm(n_exact, axis=1, keepdims=True)
        worst_normal = max(worst_normal,
                           float(np.max(np.abs(frames[:, :, 2] - n_exact))))
        # gradient vs central finite differences (relative)
        h = 1e-5
        for axis in range(2):
            dp, dm = pts.copy(), pts.copy()
            dp[:, axis] += h
            dm[:, axis] -= h
            fd = (surface.elevation_many(dp)
                  - surface.elevation_many(dm)) / (2 * h)
            rel = np.abs(g[:, axis] - fd) / np.maximum(np.abs(fd), 1e-2)
            worst_grad = max(worst_grad, float(np.max(rel)))
        # closest-point residual orthogonality on a subset
        for k in range(40):
            t0 = rng.uniform(-8, 8, size=2)
            r = surface.chart_to_world(t0) + rng.normal(0, 0.2, size=3)
            p = surface.closest_point(r)
            frame = surface.tangent_frame(world_to_chart(p))
            tang = frame[:, 0:2].T @ (r - p)
            worst_orthres = max(worst_orthres, float(np.max(np.abs(tang))))
    elapsed = time.perf_counter() - start
    ok = (worst_ortho < 1e-9 and worst_normal < 1e-9
          and worst_grad < 1e-4 and worst_orthres < 1e-6 and elapsed < 10.0)
    report(1, ok,
           f"orthonormality {worst_ortho:.2e} (<1e-9), "
           f"normal {worst_normal:.2e} (<1e-9), "
           f"gradient-vs-FD {worst_grad:.2e} (<1e-4), "
           f"closest-point orthogonality {worst_orthres:.2e} (<1e-6), "
           f"{elapsed:.1f}s (<10s)")


# --------------------------------------------------------------------------
# 2. planar-reduction oracle
# --------------------------------------------------------------------------
class PlanarESEKF:
    """Independent textbook planar error-state EKF for the oracle.

    Matches the measurement conventions of the library (quaternion-
    derived heading residual 2*sin(d/2)), but is otherwise coded from
    scratch: analytic Jacobians, explicit Joseph update.
    """

    def __init__(self, x, P):
        self.x = np.asarray(x, dtype=float).copy()   # (x, y, theta)
        self.P = np.asarray(P, dtype=float).copy()

    def propagate(self, v, w, dt, sigma_v, sigma_w):
        th = self.x[2]
        R = np.array([[np.cos(th), -np.sin(th)],
                      [np.sin(th), np.cos(th)]])
        dR = np.array([[-np.sin(th), -np.cos(th)],
                       [np.cos(th), -np.sin(th)]])
        self.x[0:2] += R @ v * dt
        self.x[2] = wrap_angle(self.x[2] + w * dt)
        F = np.eye(3)
        F[0:2, 2] = dR @ v * dt
        G = np.zeros((3, 3))
        G[0:2, 0:2] = -R * dt
        G[2, 2] = dt
        Q = np.zeros((3, 3))
        Q[0:2, 0:2] = sigma_v
        Q[2, 2] = sigma_w
        P = F @ self.P @ F.T + G @ Q @ G.T
        self.P = 0.5 * (P + P.T)

    def update(self, z_xy, z_th, R_p, R_th):
        d = wrap_angle(z_th - self.x[2])
        y = np.array([z_xy[0] - self.x[0], z_xy[1] - self.x[1],
                      2.0 * np.sin(0.5 * d)])
        H = np.zeros((3, 3))
        H[0, 0] = H[1, 1] = 1.0
        H[2, 2] = np.cos(0.5 * d)
        R = np.diag([R_p, R_p, R_th])
        S = H @ self.P @ H.T + R
        K = self.P @ H.T @ np.linalg.inv(S)
        dx = K @ y
        self.x[0:2] += dx[0:2]
        self.x[2] = wrap_angle(self.x[2] + dx[2])
        IKH = np.eye(3) - K @ H
        P = IKH @ self.P @ IKH.T + K @ R @ K.T
        self.P = 0.5 * (P + P.T)


def test_criterion_2_planar_reduction():
    start = time.perf_counter()
    surface = flat_surface(extent=50.0)
    rng = np.random.default_rng(77)
    dt = 0.05
    sigma_v = np.eye(2) * 0.02 ** 2
    sigma_w = 0.01 ** 2
    sp, sth = 0.03, 0.01

    state = FilterState(np.array([0.0, 0.0]), 0.1,
                        np.diag([0.01, 0.01, 0.004]))
    oracle = PlanarESEKF([0.0, 0.0, 0.1], np.diag([0.01, 0.01, 0.004]))

    worst_pos = worst_head = worst_cov = 0.0
    for k in range(1000):
        v = np.array([1.0 + 0.2 * np.sin(0.01 * k), 0.05 * np.cos(0.02 * k)])
        w = 0.3 * np.sin(0.005 * k)
        odom = OdometryInput(v + rng.normal(0, 0.02, 2),
                             w + rng.normal(0, 0.01), sigma_v, sigma_w)
        state = propagate(surface, state, odom, dt)
        oracle.propagate(odom.v_m, odom.omega_m, dt, sigma_v, sigma_w)
        if (k + 1) % 5 == 0:
            z_xy = state.t_R + rng.normal(0, 0.05, 2)
            z_th = state.gamma_R + rng.normal(0, 0.02)
            P_m = np.diag([sp ** 2] * 3 + [sth ** 2] * 3)
            meas = PoseMeasurement(np.array([z_xy[0], z_xy[1], 0.0]),
                                   quat.z_rotation(z_th), P_m)
            state = pose_update(state, surface, IDENT, meas)
            oracle.update(z_xy, z_th, sp ** 2, sth ** 2)
        worst_pos = max(worst_pos,
                        float(np.max(np.abs(state.t_R - oracle.x[0:2]))))
        worst_head = max(worst_head,
                         abs(wrap_angle(state.gamma_R - oracle.x[2])))
        worst_cov = max(worst_cov, float(np.max(np.abs(state.P_x
                                                       - oracle.P))))
    elapsed = time.perf_counter() - start
    ok = worst_pos < 1e-9 and worst_head < 1e-9 and elapsed < 5.0
    report(2, ok,
           f"max |pos diff| {worst_pos:.2e} (<1e-9), "
           f"max |heading diff| {worst_head:.2e} (<1e-9), "
           f"max |P diff| {worst_cov:.2e}, {elapsed:.1f}s (<5s)")


# --------------------------------------------------------------------------
# 3. zero-noise convergence
# --------------------------------------------------------------------------
def test_criterion_3_zero_noise_convergence():
    sc = load_scenario(REFERENCE_SCENARIO)
    truth = generate_ground_truth(sc.surface, sc.trajectory)
    state = FilterState(truth.chart[0] + [0.05, -0.05],
                        truth.gamma[0] + 0.02,
                        np.diag([0.01, 0.01, 0.004]))
    sigma_v = np.eye(2) * 1e-4
    P_m = np.diag([1e-4] * 6)
    for k in range(truth.n_steps):
        odom = OdometryInput(truth.v_m[k], truth.omega[k], sigma_v, 1e-4)
        state = propagate(sc.surface, state, odom, truth.dt)
        if (k + 1) % 4 == 0:    # 5 Hz pose on the 20 Hz odometry grid
            t_true = truth.chart[k + 1]
            from meskf.sensors3d import predict_pose
            pos, q = predict_pose(
                sc.surface,
                FilterState(t_true, truth.gamma[k + 1], np.eye(3)), IDENT)
            state = pose_update(state, sc.surface, IDENT,
                                PoseMeasurement(pos, q, P_m))
    pos_err = float(np.linalg.norm(state.t_R - truth.chart[-1]))
    head_err = abs(wrap_angle(state.gamma_R - truth.gamma[-1]))
    ok = pos_err < 1e-6 and head_err < 1e-6
    report(3, ok, f"final position error {pos_err:.2e} m (<1e-6), "
                  f"heading error {head_err:.2e} rad (<1e-6)")


# --------------------------------------------------------------------------
# 4. reference-campaign accuracy
# --------------------------------------------------------------------------
def test_criterion_4_accuracy(reference_campaign):
    m = reference_campaign["M-ESEKF"]
    # steady-state window: second half of each schedule phase
    phases = [(10.0, 20.0), (30.0, 40.0), (50.0, 60.0)]
    pos = [float(np.max(m.rmse_pos[window(m, a, b)])) for a, b in phases]
    head = [float(np.max(m.rmse_head[window(m, a, b)])) for a, b in phases]
    wall = reference_campaign["wall_s"]
    ok = (all(p <= 0.038 for p in pos) and pos[2] <= 0.03
          and all(h <= 0.01 for h in head)
          and m.n_excluded == 0 and wall <= 600.0)
    report(4, ok,
           f"steady-state pos RMSE per phase {pos[0]:.4f}/{pos[1]:.4f}/"
           f"{pos[2]:.4f} m (<=0.038, combined <=0.03), "
           f"heading RMSE {max(head):.4f} rad (<=0.01), "
           f"excluded {m.n_excluded}, campaign {wall:.0f}s (<=600s)")


# --------------------------------------------------------------------------
# 5. consistency ordering
# --------------------------------------------------------------------------
def test_criterion_5_consistency(reference_campaign):
    mp = reference_campaign["MP-ESEKF"]
    m = reference_campaign["M-ESEKF"]
    c = reference_campaign["C-ESEKF"]
    frac = in_bounds_fraction(mp)
    mean_m = float(np.mean(m.anees))
    mean_c = float(np.mean(c.anees))
    ok = (frac >= 0.80 and 0.5 <= mean_m <= 2.0
          and abs(mean_m - 1.0) < abs(mean_c - 1.0))
    report(5, ok,
           f"MP-ESEKF ANEES in 99% bounds {100 * frac:.1f}% of steps "
           f"(>=80%), mean ANEES M-ESEKF {mean_m:.3f} (in [0.5, 2.0]), "
           f"C-ESEKF {mean_c:.3f} (|M-1| < |C-1|)")


# --------------------------------------------------------------------------
# 6. projection oracles
# --------------------------------------------------------------------------
def test_criterion_6_projection_oracles():
    from meskf import (SamplingConfig, ellipsoid_tangent_intersection,
                       project_position, project_range)
    rng = np.random.default_rng(66)
    # (a) ellipse membership over 1000 random SPD matrices and frames
    worst_member = 0.0
    for _ in range(1000):
        P = random_spd(rng, 3, 0.1)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        Pinv = np.linalg.inv(P)
        for r in ellipsoid_tangent_intersection(P, Q):
            worst_member = max(worst_member, abs(r @ Pinv @ r - 1.0))
    # (b) flat-surface marginalization of project_position
    flat = flat_surface(extent=10.0)
    st = FilterState(np.zeros(2), 0.0, np.eye(3) * 1e-6)
    worst_marg = 0.0
    for _ in range(100):
        P_m = random_spd(rng, 3, 0.01)
        proj = project_position(flat, np.array([0.2, -0.1, 0.05]), P_m,
                                IDENT, st)
        expected = np.linalg.inv(np.linalg.inv(P_m)[0:2, 0:2])
        worst_marg = max(worst_marg,
                         float(np.max(np.abs(proj.P_t - expected))))
    # (c) elevated-anchor projected range on 100 randomized flat configs
    cfg = SamplingConfig()
    worst_rng = 0.0
    worst_bound = 0.0
    for _ in range(100):
        t = rng.uniform(-3, 3, size=2)
        st = FilterState(t, rng.uniform(-np.pi, np.pi), np.eye(3) * 0.01)
        h = rng.uniform(0.2, 2.0)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        chart_dist = rng.uniform(2.0, 6.0)
        anchor = np.concatenate([t + chart_dist * u, [h]])
        z_d = float(np.hypot(chart_dist, h))
        R_d = 0.0025
        proj = project_range(flat, z_d, R_d, anchor, IDENT, st, cfg)
        err = abs(proj.z_dU - np.sqrt(z_d ** 2 - h ** 2))
        grid_step = 2 * cfg.grid_half_width * 0.1 / (cfg.grid_resolution - 1)
        bound = np.sqrt(R_d) + 3 * grid_step
        worst_rng = max(worst_rng, err)
        worst_bound = bound
        assert err < bound
    ok = worst_member < 1e-9 and worst_marg < 1e-9
    report(6, ok,
           f"ellipse membership {worst_member:.2e} (<1e-9), flat "
           f"marginalization {worst_marg:.2e} (<1e-9), elevated-anchor "
           f"range error {worst_rng:.3f} m (< shell+grid bound "
           f"{worst_bound:.3f})")


# --------------------------------------------------------------------------
# 7. performance envelope
# --------------------------------------------------------------------------
def test_criterion_7_performance(reference_campaign):
    def mean_us(metrics, kind):
        vals = [row[2] for row in metrics.timing_rows if row[1] == kind]
        return float(np.mean(vals))

    pose_us = mean_us(reference_campaign["M-ESEKF"], "pose")
    range_us = mean_us(reference_campaign["M-ESEKF"], "range")
    prng_us = mean_us(reference_campaign["MP-ESEKF"], "projected_range")
    ok = pose_us < 100.0 and range_us < 100.0 and prng_us < 6000.0
    report(7, ok,
           f"analytic pose {pose_us:.0f} us, range {range_us:.0f} us "
           f"(<100 us); projected range {prng_us:.0f} us (<6000 us)")


# --------------------------------------------------------------------------
# 8. harness calibration
# --------------------------------------------------------------------------
def test_criterion_8_calibration():
    m = campaign_metrics(FLAT_SCENARIO)
    frac = in_bounds_fraction(m)
    ok = frac >= 0.95 and m.n_excluded == 0
    report(8, ok,
           f"flat pose-only ANEES in 99% bounds {100 * frac:.1f}% of steps "
           f"(>=95%), excluded {m.n_excluded}")
