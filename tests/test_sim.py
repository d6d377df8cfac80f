"""Simulation harness: trajectories, sensor synthesis, metrics."""
import contextlib
import mmap
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.stats import chi2

from meskf import baseline as bl
from meskf import (FILTER_KINDS, ConfigError, FilterState,
                   InitialUncertainty, OdometryInput, OutOfChartError,
                   PoseMeasurement, PseudoMeasurementConfig,
                   RobotExtrinsics, SamplingConfig, flat_surface, make_filter,
                   propagate, quat, wrap_angle)
from meskf.cli import _write_outputs
from meskf.sim import runner
from meskf.sim.config import load_scenario, scenario_from_dict
from meskf.sim.runner import (DIVERGENCE_LIMIT_M, _percentile99,
                              anees_bounds, metrics_from_arrays,
                              run_campaign, run_trial)
from meskf.sim.sensors import (MeasurementStreams, ScheduleSegment,
                               SensorSchedule, SensorSuite,
                               _rng, noise_free_measurements,
                               synthesize_measurements)
from meskf.sensors3d import predict_pose, predict_range
from meskf.sim.trajectory import (GroundTruth, TrajectorySpec,
                                  _cubic_spline, generate_ground_truth)
import oracles
from oracles import chart_map

IDENT = RobotExtrinsics.identity()
REFERENCE_SCENARIO = (Path(__file__).resolve().parents[1] / "scenarios"
                      / "reference_curved.json")


def circle_spec(duration=10.0, dt=0.05, radius=4.0, speed=1.0):
    return TrajectorySpec({"type": "circle", "center": [0.0, 0.0],
                           "radius": radius}, speed, duration, dt)


def suite(anchors=((8.0, 0.0, 0.0),)):
    return SensorSuite(anchors=np.asarray(anchors, dtype=float))


def synthesize(surface, truth, su, sched, seed, trial, extrinsics=IDENT):
    clean = noise_free_measurements(surface, truth, su, sched, extrinsics)
    return synthesize_measurements(clean, seed, trial)


def trial_rows(filt, truth, streams, init, fill=0.0):
    """run_trial on rows of its own, filled with ``fill`` as a campaign's
    block is with zeros: (outcome, errors, covariances)."""
    errors = np.full((truth.n_steps + 1, 3), fill)
    covs = np.full((truth.n_steps + 1, 3, 3), fill)
    return run_trial(filt, truth, streams, init, errors, covs), errors, covs


def default_trial(surface, truth, streams, kind, fill=0.0):
    """One trial of the filter ``kind`` with its default tuning:
    (outcome, errors, covariances)."""
    filt = make_filter(kind, surface, truth.dt, IDENT, SamplingConfig(),
                       PseudoMeasurementConfig())
    return trial_rows(filt, truth, streams, InitialUncertainty(), fill)


class TestGroundTruth:
    def test_zero_noise_reintegration_exact(self, curved, flat):
        # the recovered body velocities re-drive the propagation model
        # back onto the true chart path: a circle on the curved test
        # surface, the reference scenario's waypoint path, and an open
        # waypoint path whose end the vehicle reaches at step 143 of 200,
        # where it stops and keeps the end tangent's heading
        reference = load_scenario(REFERENCE_SCENARIO)
        overrun = TrajectorySpec({"type": "waypoints",
                                  "points": [[0, 0], [3, 1], [6, 0]]},
                                 1.0, 10.0, 0.05)
        for surface, spec in ((curved, circle_spec()),
                              (reference.surface, reference.trajectory),
                              (flat, overrun)):
            truth = generate_ground_truth(surface, spec)
            # a continuous heading: no jump at the end of an open path
            assert np.max(np.abs(truth.omega)) < 1.0
            s = FilterState(truth.chart[0], truth.gamma[0],
                            np.eye(3) * 1e-6)
            sv = np.eye(2) * 1e-6
            for k in range(truth.n_steps):
                o = OdometryInput(truth.v_m[k], truth.omega[k], sv, 1e-6)
                s = propagate(surface, s, o, truth.dt)
                assert np.linalg.norm(s.t_R - truth.chart[k + 1]) < 1e-9
                assert abs(s.gamma_R - truth.gamma[k + 1]) < 1e-9
        assert np.all(truth.chart[143:] == [6.0, 0.0])

    def test_heading_follows_the_path(self, curved):
        # the frame's heading axis R_x(a) R_y(b) (cos g, sin g, 0) is the
        # direction of the circle's world tangent (du, dv, S_u du + S_v dv)
        truth = generate_ground_truth(curved, circle_spec())
        for t, gamma in zip(truth.chart, truth.gamma):
            du, dv = -t[1], t[0]        # counter-clockwise about the origin
            _, s_u, s_v = curved.eval_point(*t)[:3]
            tangent = np.array([du, dv, s_u * du + s_v * dv])
            axis = curved.tangent_frame(t) @ [np.cos(gamma), np.sin(gamma),
                                              0.0]
            assert np.linalg.norm(axis - tangent / np.linalg.norm(tangent)) \
                < 1e-12

    def test_circle_stays_on_radius(self, flat):
        truth = generate_ground_truth(flat, circle_spec(radius=3.0))
        r = np.linalg.norm(truth.chart, axis=1)
        np.testing.assert_allclose(r, 3.0, atol=1e-9)

    def test_waypoint_loop_closes(self, flat):
        pts = [[3, 0], [0, 3], [-3, 0], [0, -3], [3, 0]]
        spec = TrajectorySpec({"type": "waypoints", "points": pts},
                              1.0, 10.0, 0.05)
        truth = generate_ground_truth(flat, spec)
        assert truth.n_steps == 200
        assert np.all(np.abs(truth.chart) < 3.5)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_waypoint_spline_matches_scipy(self, periodic):
        # oracle: scipy's CubicSpline and its first derivative on the
        # same chord parameter, over the reference scenario's waypoints
        # and random ones
        reference = load_scenario(REFERENCE_SCENARIO).trajectory
        rng = np.random.default_rng(3)
        sets = [np.array(reference.path["points"], dtype=float)]
        sets += [rng.uniform(-8.0, 8.0, (n, 2)) for n in (2, 3, 4, 7, 20)]
        for pts in sets:
            if periodic:
                if len(pts) < 3:
                    continue
                pts[-1] = pts[0]
            x = np.concatenate([[0.0], np.cumsum(
                np.linalg.norm(np.diff(pts, axis=0), axis=1))])
            t = np.linspace(0.0, x[-1], 4001)
            oracle = CubicSpline(x, pts, bc_type="periodic" if periodic
                                 else "natural")
            value, tangent = _cubic_spline(x, pts, periodic)(t)
            np.testing.assert_allclose(value, oracle(t), rtol=0, atol=1e-12)
            np.testing.assert_allclose(tangent, oracle(t, 1), rtol=0,
                                       atol=1e-12)

    def test_out_of_domain_path_rejected(self, curved):
        # a scenario error, not an OutOfChartError from deep inside
        with pytest.raises(ConfigError) as e:
            generate_ground_truth(curved, circle_spec(radius=50.0))
        assert e.value.field == "trajectory.path"


class TestSensorSynthesis:
    def test_deterministic_per_seed_and_trial(self, flat):
        truth = generate_ground_truth(flat, circle_spec(duration=5.0))
        sched = SensorSchedule.always_on(5.0)
        a = synthesize(flat, truth, suite(), sched, 7, 3)
        b = synthesize(flat, truth, suite(), sched, 7, 3)
        c = synthesize(flat, truth, suite(), sched, 7, 4)
        k = next(iter(a.pose_events))
        np.testing.assert_array_equal(a.pose_events[k].z_p,
                                      b.pose_events[k].z_p)
        assert not np.array_equal(a.pose_events[k].z_p, c.pose_events[k].z_p)
        np.testing.assert_array_equal(a.odometry[0].v_m, b.odometry[0].v_m)

    def test_draws_hold_python_floats(self, curved):
        # the filters unpack or index a trial's inputs as they are:
        # floats, neither numpy rows nor numpy scalars
        truth = generate_ground_truth(curved, circle_spec(duration=5.0))
        ext = RobotExtrinsics(np.array([0.25, -0.1, 0.4]),
                              np.array([0.99, 0.03, 0.045, 0.14]))
        st = synthesize(curved, truth, suite([[8.0, 0.0, 0.5]]),
                        SensorSchedule.always_on(5.0), 7, 3, ext)
        assert st.pose_events and st.range_events
        odometry = [x for o in st.odometry
                    for x in (*o.v_m, o.omega_m, *o.sigma_v[0],
                              *o.sigma_v[1], o.sigma_omega)]
        poses = [x for m in st.pose_events.values() for x in (*m.z_p, *m.z_q)]
        ranges = [x for events in st.range_events.values() for m in events
                  for x in (*m.r_A, m.z_d)]
        assert len(odometry) == 8 * truth.n_steps
        for values in (odometry, poses, ranges):
            assert {type(x) for x in values} == {float}

    def test_noise_statistics(self, flat):
        # empirical std of the injected noise matches the suite levels
        truth = generate_ground_truth(flat, circle_spec(duration=30.0))
        sched = SensorSchedule.always_on(30.0)
        su = suite()
        vs, ranges = [], []
        for trial in range(20):
            st = synthesize(flat, truth, su, sched, 11, trial)
            vs.append(np.array([o.v_m for o in st.odometry])
                      - truth.v_m)
            for k, events in st.range_events.items():
                pos = flat.chart_to_world(truth.chart[k])
                for m in events:
                    ranges.append(m.z_d - np.linalg.norm(pos - m.r_A))
        v_err = np.concatenate(vs).ravel()
        np.testing.assert_allclose(v_err.std(), su.odometry_linear_std,
                                   rtol=0.05)
        np.testing.assert_allclose(np.std(ranges), su.range_distance_std,
                                   rtol=0.1)
        assert abs(np.mean(ranges)) < 3 * su.range_distance_std / np.sqrt(
            len(ranges)) * 3

    def test_schedule_gates_sensors(self, flat):
        truth = generate_ground_truth(flat, circle_spec(duration=10.0))
        sched = SensorSchedule([
            ScheduleSegment(0.0, 5.0, frozenset({"pose"})),
            ScheduleSegment(5.0, 10.0, frozenset({"range"}))])
        sched.validate(10.0)
        st = synthesize(flat, truth, suite(), sched, 1, 0)
        t = truth.times
        assert all(t[k] < 5.0 for k in st.pose_events)
        assert all(t[k] >= 5.0 for k in st.range_events)

    def test_schedule_gap_rejected(self):
        sched = SensorSchedule([ScheduleSegment(0.0, 4.0, frozenset()),
                                ScheduleSegment(5.0, 10.0, frozenset())])
        with pytest.raises(Exception):
            sched.validate(10.0)

    def test_anchor_round_robin(self, flat):
        truth = generate_ground_truth(flat, circle_spec(duration=5.0))
        sched = SensorSchedule.always_on(5.0)
        anchors = [[8.0, 0, 0], [-8.0, 0, 0]]
        st = synthesize(flat, truth, suite(anchors), sched, 2, 0)
        seen = [m.r_A[0] for k in sorted(st.range_events)
                for m in st.range_events[k]]
        assert seen[0] != seen[1]  # alternates between the two anchors


def old_streams(surface, truth, su, sched, extrinsics, seed, trial):
    """The per-trial synthesis loop as it was before its noise-free part
    moved to the campaign: one predicted pose and one draw per sample."""
    rng = _rng(seed, trial, "odometry")
    n = truth.n_steps
    noise_v = rng.normal(0.0, su.odometry_linear_std, size=(n, 2))
    noise_w = rng.normal(0.0, su.odometry_angular_std, size=n)
    odometry = [(truth.v_m[k] + noise_v[k], truth.omega[k] + noise_w[k])
                for k in range(n)]
    rng = _rng(seed, trial, "pose")
    every = int(round(su.odometry_rate / su.pose_rate))
    pose_events = {}
    for k in range(every, n + 1, every):
        pos_noise = rng.normal(0.0, su.pose_position_std, size=3)
        ang = rng.normal(0.0, su.pose_orientation_std, size=3)
        if not sched.enabled("pose", truth.times[k]):
            continue
        st = FilterState(truth.chart[k], truth.gamma[k], np.eye(3))
        pos, q = predict_pose(surface, st, extrinsics)
        q_noise = quat.from_tait_bryan(ang[0], ang[1], ang[2])
        z_q = quat.canonicalize(quat.multiply(q, q_noise))
        pose_events[k] = (pos + pos_noise, quat.normalize(z_q))
    rng = _rng(seed, trial, "range")
    every = int(round(su.odometry_rate / su.range_rate))
    range_events = {}
    idx = 0
    for k in range(every, n + 1, every):
        noise = rng.normal(0.0, su.range_distance_std)
        anchor = su.anchors[idx % len(su.anchors)]
        idx += 1
        if not sched.enabled("range", truth.times[k]):
            continue
        st = FilterState(truth.chart[k], truth.gamma[k], np.eye(3))
        d = predict_range(surface, st, extrinsics, anchor)
        range_events.setdefault(k, []).append((anchor, max(d + noise, 0.0)))
    return (odometry, pose_events, range_events,
            _rng(seed, trial, "init").normal(size=6))


class TestNoiseFreeSplit:
    SCHED = SensorSchedule([
        ScheduleSegment(0.0, 3.0, frozenset({"pose"})),
        ScheduleSegment(3.0, 6.0, frozenset({"range"})),
        ScheduleSegment(6.0, 10.0, frozenset({"pose", "range"}))])

    def test_streams_bitwise_equal_to_per_trial_loop(self, curved):
        truth = generate_ground_truth(curved, circle_spec(duration=10.0))
        su = suite([[8.0, 0.0, 0.5], [-8.0, 1.0, 0.2]])
        ext = RobotExtrinsics(np.array([0.25, -0.1, 0.4]),
                              np.array([0.99, 0.03, 0.045, 0.14]))
        clean = noise_free_measurements(curved, truth, su, self.SCHED, ext)
        for trial in range(3):
            st = synthesize_measurements(clean, 4, trial)
            odo, poses, ranges, init = old_streams(curved, truth, su,
                                                   self.SCHED, ext, 4, trial)
            for o, (v_m, omega_m) in zip(st.odometry, odo, strict=True):
                np.testing.assert_array_equal(o.v_m, v_m)
                assert o.omega_m == omega_m
            assert st.pose_events.keys() == poses.keys()
            for k, (z_p, z_q) in poses.items():
                np.testing.assert_array_equal(st.pose_events[k].z_p, z_p)
                np.testing.assert_array_equal(st.pose_events[k].z_q, z_q)
            assert st.range_events.keys() == ranges.keys()
            for k, events in ranges.items():
                for m, (anchor, z_d) in zip(st.range_events[k], events,
                                            strict=True):
                    np.testing.assert_array_equal(m.r_A, anchor)
                    assert m.z_d == z_d
            np.testing.assert_array_equal(st.initial_state_noise, init)

    def test_noise_does_not_depend_on_schedule(self, flat):
        # the same slot draws the same noise whichever segments enable it
        truth = generate_ground_truth(flat, circle_spec(duration=10.0))
        su = suite([[8.0, 0.0, 0.0], [-8.0, 0.0, 0.0]])
        on = synthesize(flat, truth, su, SensorSchedule.always_on(10.0), 6, 1)
        part = synthesize(flat, truth, su, self.SCHED, 6, 1)
        assert part.pose_events and part.range_events
        assert len(part.pose_events) < len(on.pose_events)
        for k, m in part.pose_events.items():
            np.testing.assert_array_equal(m.z_p, on.pose_events[k].z_p)
            np.testing.assert_array_equal(m.z_q, on.pose_events[k].z_q)
        for k, events in part.range_events.items():
            for m, ref in zip(events, on.range_events[k], strict=True):
                np.testing.assert_array_equal(m.r_A, ref.r_A)
                assert m.z_d == ref.z_d


class TestMetrics:
    def test_rmse_hand_example(self):
        # two trials with errors 3 and 4 -> RMSE sqrt(12.5)
        times = np.zeros(1)
        errors = np.zeros((2, 1, 3))
        errors[0, 0, 0] = 3.0
        errors[1, 0, 0] = 4.0
        covs = np.broadcast_to(np.eye(3), (2, 1, 3, 3)).copy()
        m = metrics_from_arrays(times, errors, covs,
                                np.array([False, False]), [])
        np.testing.assert_allclose(m.rmse_pos[0], np.sqrt(12.5))
        np.testing.assert_allclose(m.rmse_head[0], 0.0)

    def test_anees_identity_example(self):
        # e^T P^-1 e = 3 for unit errors and identity covariance
        times = np.zeros(1)
        errors = np.ones((4, 1, 3))
        covs = np.broadcast_to(np.eye(3), (4, 1, 3, 3)).copy()
        m = metrics_from_arrays(times, errors, covs, np.zeros(4, bool), [])
        np.testing.assert_allclose(m.anees[0], 1.0)

    def test_diverged_trials_excluded(self):
        times = np.zeros(1)
        errors = np.zeros((3, 1, 3))
        errors[2, 0, 0] = 1e6
        covs = np.broadcast_to(np.eye(3), (3, 1, 3, 3)).copy()
        m = metrics_from_arrays(times, errors, covs,
                                np.array([False, False, True]), [])
        np.testing.assert_allclose(m.rmse_pos[0], 0.0)
        assert m.n_excluded == 1
        np.testing.assert_allclose(m.exclusion_rate, 1 / 3)

    def test_singular_covariance_trial_excluded(self):
        # trial 1's covariance is zero at one step: its NEES cannot be
        # formed, so it is scored as if it had diverged
        rng = np.random.default_rng(3)
        times = np.zeros(4)
        errors = rng.normal(size=(3, 4, 3))
        A = rng.normal(size=(3, 4, 3, 3))
        covs = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(3)
        covs[1, 2] = 0.0
        m = metrics_from_arrays(times, errors, covs, np.zeros(3, bool), [])
        assert m.n_excluded == 1
        alone = metrics_from_arrays(times, errors[[0, 2]], covs[[0, 2]],
                                    np.zeros(2, bool), [])
        for name in ("rmse_pos", "rmse_head", "anees", "anees_bounds"):
            np.testing.assert_array_equal(getattr(m, name),
                                          getattr(alone, name))
        covs[:, 0] = 0.0
        m = metrics_from_arrays(times, errors, covs, np.zeros(3, bool), [])
        assert m.n_excluded == 3
        assert np.isnan(m.anees).all() and np.isnan(m.rmse_pos).all()

    def test_anees_is_the_batched_solve_bit_for_bit(self):
        # one solve per trial gives the bits of one batched solve over
        # all trials: the gufunc solves each matrix on its own
        rng = np.random.default_rng(4)
        times = np.zeros(50)
        errors = rng.normal(size=(6, 50, 3))
        A = rng.normal(size=(6, 50, 3, 3))
        covs = A @ np.swapaxes(A, -1, -2) + 1e-3 * np.eye(3)
        diverged = np.array([False, True, False, False, False, False])
        m = metrics_from_arrays(times, errors, covs, diverged, [])
        e, P = errors[~diverged], covs[~diverged]
        nees = np.sum(e * np.linalg.solve(P, e[..., None])[..., 0], axis=-1)
        np.testing.assert_array_equal(m.anees, np.mean(nees, axis=0) / 3.0)

    def test_scores_are_the_stacked_means_bit_for_bit(self):
        # the per-step sums over kept trials read in place give the bits
        # of np.mean over the stacked kept trials; trial 1 diverged and
        # trial 4's covariance is singular at one step, so both are out
        rng = np.random.default_rng(6)
        times = np.zeros(40)
        errors = rng.normal(size=(9, 40, 3)) * rng.lognormal(0, 2, (9, 1, 3))
        A = rng.normal(size=(9, 40, 3, 3))
        covs = A @ np.swapaxes(A, -1, -2) + 1e-3 * np.eye(3)
        covs[4, 17] = 0.0
        diverged = np.zeros(9, bool)
        diverged[1] = True
        m = metrics_from_arrays(times, errors, covs, diverged, [])
        keep = np.ones(9, bool)
        keep[[1, 4]] = False
        e, P = errors[keep], covs[keep]
        nees = np.sum(e * np.linalg.solve(P, e[..., None])[..., 0], axis=-1)
        expected = {
            "rmse_pos": np.sqrt(np.mean(np.sum(e[:, :, 0:2] ** 2, axis=2),
                                        axis=0)),
            "rmse_head": np.sqrt(np.mean(e[:, :, 2] ** 2, axis=0)),
            "anees": np.mean(nees, axis=0) / 3.0}
        for name, value in expected.items():
            assert getattr(m, name).tobytes() == value.tobytes(), name
        assert m.n_excluded == 2

    def test_anees_bounds_match_scipy(self):
        # oracle: scipy.stats.chi2.ppf, exact down to a single trial and
        # up to 3000 degrees of freedom
        cases = [(n, m) for n in (1, 2, 3, 100, 1000) for m in (1, 2, 3)]
        cases += [(dof, 1) for dof in range(1, 3001)]
        got = np.array([anees_bounds(n, m) for n, m in cases])
        dof = np.array([n * m for n, m in cases])
        np.testing.assert_allclose(
            got, np.column_stack([chi2.ppf(0.005, dof) / dof,
                                  chi2.ppf(0.995, dof) / dof]), rtol=1e-12)

    def test_percentile99_matches_numpy(self):
        # the timing rows' p99 is numpy's default (linear) percentile
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 99, 100, 101, 401, 1200):
            x = rng.lognormal(3.0, 1.0, n)
            assert _percentile99(x) == float(np.percentile(x, 99))

    def test_anees_bounds_frozen_values(self):
        # N=100 trials, m=3 dof, 99% confidence (oracle: chi2.ppf)
        lo, hi = anees_bounds(100, 3)
        np.testing.assert_allclose(lo, 0.80221, atol=2e-4)
        np.testing.assert_allclose(hi, 1.22281, atol=2e-4)
        lo2, hi2 = anees_bounds(100, 1)
        assert lo2 < lo and hi2 > hi  # fewer dof, wider bounds


class TestEndToEnd:
    def test_trial_determinism(self, curved):
        truth = generate_ground_truth(curved, circle_spec(duration=5.0))
        sched = SensorSchedule.always_on(5.0)
        results = []
        for _ in range(2):
            st = synthesize(curved, truth, suite(), sched, 5, 0)
            results.append(default_trial(curved, truth, st, "M-ESEKF"))
        (_, errors0, covs0), (_, errors1, covs1) = results
        np.testing.assert_array_equal(errors0, errors1)
        np.testing.assert_array_equal(covs0, covs1)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_each_filter_tracks(self, curved, kind):
        truth = generate_ground_truth(curved, circle_spec(duration=8.0))
        sched = SensorSchedule.always_on(8.0)
        st = synthesize(curved, truth, suite(), sched, 9, 0)
        res, errors, _ = default_trial(curved, truth, st, kind)
        assert not res.diverged
        assert np.linalg.norm(errors[-1, 0:2]) < 0.3
        assert res.timings

    def test_monte_carlo_aggregates(self, flat):
        spec = circle_spec(duration=5.0)
        sc = scenario_from_dict({
            "surface": {"degree_u": flat.degree_u, "degree_v": flat.degree_v,
                        "knots_u": flat.knots_u.tolist(),
                        "knots_v": flat.knots_v.tolist(),
                        "control_points": flat.control_points.tolist()},
            "trajectory": {"path": spec.path, "speed": spec.speed,
                           "duration": spec.duration, "dt": spec.dt},
            "sensors": {"anchors": [[8.0, 0.0, 0.0]]},
            "filter": "M-ESEKF", "trials": 5, "seed": 3})
        truth = generate_ground_truth(flat, spec)
        m, errors, covs, diverged = run_campaign(sc)
        assert m.n_trials == 5
        assert len(m.rmse_pos) == truth.n_steps + 1
        assert errors.shape == (5, truth.n_steps + 1, 3)
        assert covs.shape == (5, truth.n_steps + 1, 3, 3)
        assert not np.any(diverged)
        assert np.all(np.isfinite(m.anees))
        kinds = {row[1] for row in m.timing_rows}
        assert "pose" in kinds and "range" in kinds

    def test_periodic_correction_follows_every_step(self, flat):
        # 10 Hz odometry, at which a 20 Hz pseudo-measurement rate used
        # to be refused; only the C-ESEKF has a periodic correction
        n, dt = 20, 0.1
        truth = GroundTruth(np.arange(n + 1) * dt, np.zeros((n + 1, 2)),
                            np.zeros(n + 1), np.zeros((n, 2)), np.zeros(n),
                            dt)
        odo = OdometryInput(np.zeros(2), 0.0, np.eye(2) * 1e-4, 1e-6)
        streams = MeasurementStreams([odo] * n, {}, {}, np.zeros(6))
        for kind in FILTER_KINDS:
            res = default_trial(flat, truth, streams, kind)[0]
            assert not res.diverged
            assert len(res.timings.get("pseudo", ())) == (
                n if kind == "C-ESEKF" else 0)

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_drift_past_limit_diverges(self, flat, kind):
        # stationary truth, odometry biased by 0.3 m/s, no pose or range
        # events: the estimate walks off without any MeskfError, so only
        # the chart-error limit can end the trial
        n, dt = 400, 0.1
        truth = GroundTruth(np.arange(n + 1) * dt, np.zeros((n + 1, 2)),
                            np.zeros(n + 1), np.zeros((n, 2)), np.zeros(n),
                            dt)
        odo = OdometryInput(np.array([0.3, 0.0]), 0.0, np.eye(2) * 1e-4,
                            1e-6)
        streams = MeasurementStreams([odo] * n, {}, {}, np.zeros(6))
        res, errors, _ = default_trial(flat, truth, streams, kind)
        dist = np.linalg.norm(errors[:, 0:2], axis=1)
        first = int(np.argmax(dist > DIVERGENCE_LIMIT_M))
        assert res.diverged
        assert 0 < first < n
        assert res.diverged_step == first
        assert res.reason == f"chart position error {dist[first]} m"

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_start_off_the_chart_diverges(self, kind):
        # the start is drawn 30 m off a 5 m chart: scoring step 0 reads
        # the surface there for the C-ESEKF, which raises, so its trial
        # ends at step 0; the chart-space filters score the start from
        # the state alone and end at step 1, in propagation
        s = flat_surface(extent=5.0)
        n, dt = 20, 0.1
        truth = GroundTruth(np.arange(n + 1) * dt, np.zeros((n + 1, 2)),
                            np.zeros(n + 1), np.zeros((n, 2)), np.zeros(n),
                            dt)
        odo = OdometryInput(np.zeros(2), 0.0, np.eye(2) * 1e-4, 1e-6)
        noise = np.zeros(6)
        noise[0] = 30.0 / InitialUncertainty().pos_std
        streams = MeasurementStreams([odo] * n, {}, {}, noise)
        res, errors, _ = default_trial(s, truth, streams, kind)
        assert res.diverged
        assert res.diverged_step == (0 if kind == "C-ESEKF" else 1)
        assert not errors[res.diverged_step + 1:].any()
        assert res.reason == (
            "OutOfChartError: chart point outside domain u:[-5.0,5.0] "
            "v:[-5.0,5.0]")

    @pytest.mark.parametrize("kind", ["M-ESEKF", "C-ESEKF"])
    def test_refused_update_diverges(self, flat, kind):
        # a pose whose covariance has a condition number of 1e13: the
        # 6-row pose update refuses its innovation covariance at step 5
        n, dt = 20, 0.1
        truth = GroundTruth(np.arange(n + 1) * dt, np.zeros((n + 1, 2)),
                            np.zeros(n + 1), np.zeros((n, 2)), np.zeros(n),
                            dt)
        odo = OdometryInput(np.zeros(2), 0.0, np.eye(2) * 1e-4, 1e-6)
        P_m = np.diag([1e13, 1.0, 1.0, 1e13, 1.0, 1.0])
        pose = {5: PoseMeasurement(np.zeros(3), (1.0, 0.0, 0.0, 0.0), P_m)}
        streams = MeasurementStreams([odo] * n, pose, {}, np.zeros(6))
        res, errors, covs = default_trial(flat, truth, streams, kind)
        assert res.diverged
        assert res.diverged_step == 5
        assert res.reason == ("SingularUpdateError: innovation covariance "
                              "is singular")
        # the start is exact, so step 4's errors are zero; its
        # covariance is not
        assert covs[4].any() and not covs[5:].any()
        assert not errors[5:].any()
        # on rows filled with NaN, it forms the same bits into steps
        # 0-4 and leaves steps 5 on as they were given
        again, nan_errors, nan_covs = default_trial(flat, truth, streams,
                                                    kind, fill=np.nan)
        assert again.diverged_step == 5 and again.reason == res.reason
        assert np.isnan(nan_errors[5:]).all() and np.isnan(nan_covs[5:]).all()
        assert nan_errors[:5].tobytes() == errors[:5].tobytes()
        assert nan_covs[:5].tobytes() == covs[:5].tobytes()

    def test_trial_holds_its_rows_once(self):
        # The traced peak of one run_trial call, a 60 s M-ESEKF trial of
        # the reference scenario, against the bytes of the rows it
        # records for scoring, (K+1) x row_width floats. The trial holds
        # those rows (1x), and the score's temporaries and the timing
        # lists (about 0.5x): it reads about 1.5x. Its errors and
        # covariances go into the arrays it is given, made before
        # tracing starts, as a campaign's block is. The bound allows 2x,
        # so that one more copy of the results (errors and covariances,
        # 1x: 12 floats a step, as many as a row) fails; a trial that
        # formed them into zeros of its own, for the caller to copy,
        # read 2.5x. The draws are synthesized, and one call made to
        # warm the code's first-call caches, before tracing starts.
        sc = load_scenario(REFERENCE_SCENARIO)
        assert sc.filter_kind == "M-ESEKF"
        truth = generate_ground_truth(sc.surface, sc.trajectory)
        assert truth.n_steps == 1200
        streams = synthesize(sc.surface, truth, sc.suite, sc.schedule,
                             sc.seed, 0, sc.extrinsics)
        filt = make_filter(sc.filter_kind, sc.surface, truth.dt,
                           sc.extrinsics, sc.sampling, sc.pseudo)
        errors = np.zeros((truth.n_steps + 1, 3))
        covs = np.zeros((truth.n_steps + 1, 3, 3))
        assert not run_trial(filt, truth, streams, sc.init, errors,
                             covs).diverged
        tracemalloc.start()
        try:
            run_trial(filt, truth, streams, sc.init, errors, covs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_bytes = (truth.n_steps + 1) * filt.row_width * 8
        assert peak <= 2.0 * row_bytes, peak / row_bytes


LEVER_SCENARIO = (Path(__file__).resolve().parents[1] / "bench"
                  / "lever_curved.json")


def recorded_states(monkeypatch, filt):
    """The states that run_trial records with ``filt``, in step order (a
    list that fills as they are recorded), each taken before ``record``
    may refuse it."""
    states = []
    real = filt.record

    def record(state, row):
        states.append(state)
        return real(state, row)

    monkeypatch.setattr(filt, "record", record)
    return states


def partway_off_the_chart():
    """(surface, truth, streams) of a C-ESEKF trial that leaves a 5 m
    chart at step 10: a tight pose there puts the estimate 1.5 m past
    the chart's edge, after that step's pseudo-measurement."""
    n, dt = 20, 0.1
    truth = GroundTruth(np.arange(n + 1) * dt,
                        np.tile([4.5, 0.0], (n + 1, 1)), np.full(n + 1, 0.3),
                        np.zeros((n, 2)), np.zeros(n), dt)
    odo = OdometryInput(np.array([0.05, 0.0]), 0.01, np.eye(2) * 1e-4, 1e-6)
    P_m = np.diag([1e-6] * 3 + [1e-4] * 3)
    q = (np.cos(0.15), 0.0, 0.0, np.sin(0.15))
    pose = {k: PoseMeasurement([4.5, 0.0, 0.0], q, P_m) for k in range(1, 10)}
    pose[10] = PoseMeasurement([6.0, 0.0, 0.0], q, P_m)
    noise = np.random.default_rng(4).standard_normal(6)
    return (flat_surface(extent=5.0), truth,
            MeasurementStreams([odo] * n, pose, {}, noise))


class TestChartScoring:
    """The C-ESEKF's rows are scored once per trial, by the batched
    ``baseline.chart_errors``; each must have the bits of the per-state
    map on floats (``oracles.chart_map``)."""

    def check_rows(self, res, errors, covs, states, truth, surface):
        """Every recorded state's rows against the oracle; a state that
        the oracle refuses must be the step the trial diverged at."""
        for k, state in enumerate(states):
            try:
                x, P = chart_map(state, surface)
            except OutOfChartError:
                assert res.diverged and k == res.diverged_step
                assert k == len(states) - 1
                break
            e = np.append(x[0:2] - truth.chart[k],
                          wrap_angle(x[2] - truth.gamma[k]))
            assert errors[k].tobytes() == e.tobytes(), k
            assert covs[k].tobytes() == P.tobytes(), k

    def test_rows_are_the_per_state_map_with_a_lever_arm(self, monkeypatch):
        # the lever-arm, rotated-sensor scenario, every sensor on, long
        # enough that the map takes its rows in more than one block
        sc = load_scenario(LEVER_SCENARIO)
        assert np.any(sc.extrinsics.r_RS) and sc.extrinsics.q_RS[0] < 1.0
        sc.trajectory.duration = 20.0
        sc.schedule = SensorSchedule.always_on(20.0)
        truth = generate_ground_truth(sc.surface, sc.trajectory)
        clean = noise_free_measurements(sc.surface, truth, sc.suite,
                                        sc.schedule, sc.extrinsics)
        filt = make_filter("C-ESEKF", sc.surface, truth.dt, sc.extrinsics,
                           sc.sampling, sc.pseudo)
        states = recorded_states(monkeypatch, filt)
        res, errors, covs = trial_rows(
            filt, truth, synthesize_measurements(clean, 1, 0), sc.init)
        assert not res.diverged
        assert len(states) == truth.n_steps + 1 > 1.5 * bl._CHART_BLOCK
        self.check_rows(res, errors, covs, states, truth, sc.surface)

    def test_leaving_the_chart_partway(self, monkeypatch):
        surface, truth, streams = partway_off_the_chart()
        filt = make_filter("C-ESEKF", surface, truth.dt, IDENT,
                           SamplingConfig(), PseudoMeasurementConfig())
        states = recorded_states(monkeypatch, filt)
        res, errors, covs = trial_rows(filt, truth, streams,
                                       InitialUncertainty())
        # step 10, as when every step's state was mapped as it was made
        assert res.diverged and res.diverged_step == 10
        assert res.reason.startswith("OutOfChartError: ")
        assert len(states) == 11
        self.check_rows(res, errors, covs, states, truth, surface)
        assert errors[9].any()
        assert not errors[10:].any() and not covs[10:].any()


def test_float_step_is_the_array_step():
    # 5 s of the lever-arm, rotated-sensor scenario with every sensor on,
    # so that each step propagates and takes a pose and range updates:
    # the M-ESEKF's state on floats has, after every operation, the bits
    # of the array state (oracles.ArrayState) stepped by the array code
    sc = load_scenario(LEVER_SCENARIO)
    assert np.any(sc.extrinsics.r_RS) and sc.extrinsics.q_RS[0] < 1.0
    sc.trajectory.duration = 5.0
    sc.schedule = SensorSchedule.always_on(5.0)
    truth = generate_ground_truth(sc.surface, sc.trajectory)
    streams = synthesize_measurements(
        noise_free_measurements(sc.surface, truth, sc.suite, sc.schedule,
                                sc.extrinsics), 1, 0)
    filt = make_filter("M-ESEKF", sc.surface, truth.dt, sc.extrinsics,
                       sc.sampling, sc.pseudo)
    init, noise = sc.init, streams.initial_state_noise
    P0 = np.diag([init.pos_std ** 2, init.pos_std ** 2, init.head_std ** 2])
    ref = oracles.ArrayState(truth.chart[0] + init.pos_std * noise[0:2],
                             truth.gamma[0] + init.head_std * noise[2], P0)
    state = filt.start(truth.chart[0], truth.gamma[0], init, noise)
    checked = []

    def check(what):
        assert state.t_R.tobytes() == ref.t_R.tobytes(), what
        assert state.gamma_R == ref.gamma_R, what
        assert state.P_x.tobytes() == ref.P_x.tobytes(), what
        checked.append(what)

    check("start")
    for step in range(1, truth.n_steps + 1):
        state = filt.propagate(state, streams.odometry[step - 1])
        ref = oracles.propagate(sc.surface, ref, streams.odometry[step - 1],
                                truth.dt)
        check((step, "propagate"))
        if step in streams.pose_events:
            meas = streams.pose_events[step]
            state = filt.correct_pose(state, meas)
            ref = oracles.pose_update(ref, sc.surface, sc.extrinsics, meas)
            check((step, "pose"))
        for meas in streams.range_events.get(step, ()):
            state = filt.correct_range(state, meas)
            ref = oracles.range_update(ref, sc.surface, sc.extrinsics, meas)
            check((step, "range"))
    kinds = [c[1] for c in checked[1:]]
    assert kinds.count("propagate") == truth.n_steps == 100
    assert kinds.count("pose") >= 20 and kinds.count("range") >= 40


def short_reference(kind, trials, duration=3.0):
    """The reference scenario cut to ``duration`` s, every sensor on."""
    sc = load_scenario(REFERENCE_SCENARIO)
    sc.filter_kind, sc.n_trials = kind, trials
    sc.trajectory.duration = duration
    sc.schedule = SensorSchedule.always_on(duration)
    return sc


def trial_of(sc, streams):
    """The trial whose draws ``streams`` holds, told by its initial-state
    noise."""
    truth = generate_ground_truth(sc.surface, sc.trajectory)
    clean = noise_free_measurements(sc.surface, truth, sc.suite,
                                    sc.schedule, sc.extrinsics)
    for k in range(sc.n_trials):
        drawn = synthesize_measurements(clean, sc.seed, k)
        if np.array_equal(drawn.initial_state_noise,
                          streams.initial_state_noise):
            return k
    raise AssertionError("streams of no trial of the campaign")


def count_trials(monkeypatch, sc):
    """The trials of ``sc`` that run_trial runs in this process, in the
    order it runs them (a list that fills as they run)."""
    seen = []
    real = runner.run_trial

    def counted(filt, truth, streams, init, errors, covs):
        seen.append(trial_of(sc, streams))
        return real(filt, truth, streams, init, errors, covs)

    monkeypatch.setattr(runner, "run_trial", counted)
    return seen


def run_on_cores(monkeypatch, sc, cores):
    """run_campaign(sc) as on a host whose usable cores are ``cores``;
    the patch is in place before the fork."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)))
    return run_campaign(sc)


# short_reference("M-ESEKF", 4) on two cores, in a fresh interpreter.
# This module is not imported there: scipy imports concurrent.futures.
_FORKED_CAMPAIGN = """
import os
import sys
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
real_fork = os.fork


def fork():
    forks.append(real_fork())
    return forks[-1]


os.fork = fork
from meskf.sim.config import load_scenario
from meskf.sim.runner import run_campaign
from meskf.sim.sensors import SensorSchedule
sc = load_scenario(sys.argv[1])
sc.filter_kind, sc.n_trials = "M-ESEKF", 4
sc.trajectory.duration = 3.0
sc.schedule = SensorSchedule.always_on(3.0)
run_campaign(sc)
assert len(forks) == 1, forks
loaded = [m for m in ("multiprocessing", "concurrent.futures")
          if m in sys.modules]
assert not loaded, loaded
"""


class TwoArgumentError(Exception):
    def __init__(self, what, how):
        super().__init__(f"{what} {how}")


def fail_trials(monkeypatch, sc, failures):
    """Patch run_trial, before any fork, so that trial k of ``sc`` with
    an entry in ``failures`` raises it, or sleeps that many seconds
    first when it is a number."""
    real = runner.run_trial

    def failing(filt, truth, streams, init, errors, covs):
        failure = failures.get(trial_of(sc, streams))
        if isinstance(failure, float):
            time.sleep(failure)
        elif failure is not None:
            raise failure
        return real(filt, truth, streams, init, errors, covs)

    monkeypatch.setattr(runner, "run_trial", failing)


def kill_in_trial(monkeypatch, sc, trial, sig):
    """Patch run_trial, before any fork, so that the process that runs
    trial ``trial`` of ``sc`` sends itself the signal ``sig`` there."""
    real = runner.run_trial

    def dying(filt, truth, streams, init, errors, covs):
        if trial_of(sc, streams) == trial:
            os.kill(os.getpid(), sig)
        return real(filt, truth, streams, init, errors, covs)

    monkeypatch.setattr(runner, "run_trial", dying)


def record_forks(monkeypatch):
    """The pids of the workers that os.fork starts from this process (a
    list that fills as they are forked)."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def record_waits(monkeypatch):
    """pid -> wait status of every child that os.waitpid reaps."""
    statuses = {}
    real = os.waitpid

    def waitpid(pid, options):
        got = real(pid, options)
        if got[0]:
            statuses[got[0]] = got[1]
        return got

    monkeypatch.setattr(os, "waitpid", waitpid)
    return statuses


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds``, so a campaign
    that waits for a dead worker fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def forked_copies_stop():
    """A forked worker that unwound out of the runner into this block
    would go on to run the test suite: it ends here with status 99."""
    caller = os.getpid()
    try:
        yield
    finally:
        if os.getpid() != caller:
            os._exit(99)


class TestParallelCampaign:
    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_outputs_do_not_depend_on_processes(self, kind, monkeypatch):
        # 3 processes is more than this host may have cores
        sc = short_reference(kind, 5)
        runs = {}
        for cores in (1, 2, 3):
            m, errors, covs, diverged = run_on_cores(monkeypatch, sc, cores)
            runs[cores] = (errors.tobytes(), covs.tobytes(),
                           diverged.tobytes(),
                           [row[:2] for row in m.timing_rows],
                           m.rmse_pos.tobytes(), m.rmse_head.tobytes(),
                           m.anees.tobytes())
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]

    def test_divergence_comes_back_from_workers(self, monkeypatch):
        # the walk off the chart of test_cli's test_exit_code_divergence:
        # every trial diverges, at a step of its own
        s = flat_surface(extent=5.0)
        sc = scenario_from_dict({
            "surface": {"degree_u": s.degree_u, "degree_v": s.degree_v,
                        "knots_u": s.knots_u.tolist(),
                        "knots_v": s.knots_v.tolist(),
                        "control_points": s.control_points.tolist()},
            "trajectory": {"path": {"type": "circle", "center": [0, 0],
                                    "radius": 4.5},
                           "speed": 1.0, "duration": 20.0, "dt": 0.05},
            "schedule": [{"start": 0.0, "end": 20.0, "sensors": []}],
            "init": {"pos_std": 2.0},
            "trials": 4,
            "seed": 1})
        stacked = []
        real = runner.stack_results

        def stack(results):
            stacked.append([(r.diverged, r.diverged_step, r.reason)
                            for r in results])
            return real(results)

        monkeypatch.setattr(runner, "stack_results", stack)
        serial = run_on_cores(monkeypatch, sc, 1)
        parallel = run_on_cores(monkeypatch, sc, 2)
        assert stacked[1] == stacked[0]
        # trials 1 and 3 ran in the worker
        assert stacked[1][1][0] and stacked[1][3][0]
        assert all(reason.startswith("OutOfChartError: ")
                   for _, _, reason in stacked[1])
        np.testing.assert_array_equal(parallel[3], serial[3])
        assert parallel[1].tobytes() == serial[1].tobytes()
        assert parallel[2].tobytes() == serial[2].tobytes()
        # a trial that raises at step d records steps 0 to d - 1; its
        # rows from d on are the block's zero fill, in either run
        for k, (_, d, _) in enumerate(stacked[1]):
            for errors, covs in (serial[1:3], parallel[1:3]):
                assert covs[k, d - 1].any(), k
                assert not errors[k, d:].any() and not covs[k, d:].any(), k

    def test_caller_runs_its_share(self, monkeypatch):
        # The benchmark's tracer wraps the layer functions in the calling
        # process only, and the spans of a forked worker are lost with it:
        # a caller that only waited would leave a traced campaign with no
        # trial. So the caller runs trials 0, n, 2n, ... itself.
        sc = short_reference("M-ESEKF", 4)
        seen = count_trials(monkeypatch, sc)
        run_on_cores(monkeypatch, sc, 2)
        assert seen == [0, 2]

    def test_serial_without_affinity(self, monkeypatch):
        # one usable core, or no os.sched_getaffinity (macOS, Windows):
        # nothing is forked
        sc = short_reference("M-ESEKF", 4)
        seen = count_trials(monkeypatch, sc)
        pids = record_forks(monkeypatch)
        run_on_cores(monkeypatch, sc, 1)
        assert seen == [0, 1, 2, 3]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        run_campaign(sc)
        assert seen == [0, 1, 2, 3] * 2
        assert pids == []

    def test_no_worker_outlives_a_campaign(self, monkeypatch):
        pids = record_forks(monkeypatch)
        run_on_cores(monkeypatch, short_reference("M-ESEKF", 4), 3)
        assert len(pids) == 2
        assert_reaped(pids)

    def test_no_worker_outlives_a_failing_trial(self, monkeypatch):
        # patched before the fork, so the worker that runs trial 1
        # raises an error that is not the package's
        sc = short_reference("M-ESEKF", 4)
        fail_trials(monkeypatch, sc, {1: RuntimeError("trial 1 failed")})
        pids = record_forks(monkeypatch)
        with pytest.raises(RuntimeError, match="trial 1 failed"):
            run_on_cores(monkeypatch, sc, 2)
        assert len(pids) == 1
        assert_reaped(pids)

    def test_killed_worker_raises(self, monkeypatch):
        # the worker that runs trial 1 dies as under the out-of-memory
        # killer, with no result sent
        sc = short_reference("M-ESEKF", 4)
        kill_in_trial(monkeypatch, sc, 1, signal.SIGKILL)
        pids = record_forks(monkeypatch)
        with deadline(60), pytest.raises(
                RuntimeError, match=r"from trial 1 .*SIGKILL"):
            run_on_cores(monkeypatch, sc, 2)
        assert len(pids) == 1
        assert_reaped(pids)

    def test_worker_killed_before_its_header_raises(self, monkeypatch):
        # the worker that runs trials 1 and 3 dies as under the
        # out-of-memory killer during trial 3: trial 1's rows are in the
        # block by then, but without the header they are not taken
        sc = short_reference("M-ESEKF", 4)
        kill_in_trial(monkeypatch, sc, 3, signal.SIGKILL)
        pids = record_forks(monkeypatch)
        with deadline(60), pytest.raises(
                RuntimeError, match=r"from trial 1 .*SIGKILL"):
            run_on_cores(monkeypatch, sc, 2)
        assert len(pids) == 1
        assert_reaped(pids)

    @pytest.mark.skipif(not hasattr(signal, "SIGRTMIN"),
                        reason="no real-time signals")
    def test_worker_killed_by_a_realtime_signal_raises(self, monkeypatch):
        # a real-time signal terminates by default and has no name in
        # signal.Signals (SIGRTMIN + 6 is 40 on Linux)
        sig = signal.SIGRTMIN + 6
        sc = short_reference("M-ESEKF", 4)
        kill_in_trial(monkeypatch, sc, 1, sig)
        pids = record_forks(monkeypatch)
        with deadline(60), pytest.raises(
                RuntimeError, match=rf"from trial 1 .*signal {sig}$"):
            run_on_cores(monkeypatch, sc, 2)
        assert len(pids) == 1
        assert_reaped(pids)

    def test_caller_holds_the_results_once(self, monkeypatch, tmp_path):
        # The caller's peak of traced allocations over a forked campaign
        # and the writing of its outputs, against the bytes of its results
        # (errors and covariances). The block that holds them is one
        # mmap, which tracemalloc does not see. The rest (truth,
        # noise-free measurements, one trial's draws and rows in flight,
        # the timing lists) reads about 0.6x on this campaign; the bound
        # allows it 1x, so that one more copy of the covariances (0.75x)
        # held over the trials fails. A caller that unpickled, stacked
        # and serialised copies of the results read 3.0x here.
        # The scoring and the writing come after the trials, when no
        # draws are in flight, so each has a bound of its own: the peak
        # of all traced allocations while it runs reads 0.16x for the
        # scoring and 0.25x for the writing. A copy of the covariances
        # held over the scoring (0.91x) or passed to the writing (0.84x)
        # fails the 0.5x bound, as the 1x bound over the trials did not.
        sc = short_reference("M-ESEKF", 20, duration=20.0)
        phases, peaks = {}, []
        real = runner.metrics_from_arrays

        def traced(name, fn, *args):
            # the peak so far is kept before the phase's own is started
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            out = fn(*args)
            phases[name] = tracemalloc.get_traced_memory()[1]
            peaks.append(phases[name])
            return out

        monkeypatch.setattr(runner, "metrics_from_arrays",
                            lambda *args: traced("scoring", real, *args))
        tracemalloc.start()
        try:
            m, errors, covs, diverged = run_on_cores(monkeypatch, sc, 2)
            traced("writing", _write_outputs, tmp_path, m, errors, covs,
                   diverged)
        finally:
            tracemalloc.stop()
        # both are views of one flat block over one mapping
        assert covs.base is errors.base
        assert isinstance(errors.base.base.obj, mmap.mmap)
        result_bytes = errors.nbytes + covs.nbytes
        assert sorted(phases) == ["scoring", "writing"]
        assert max(peaks) <= 1.0 * result_bytes, max(peaks) / result_bytes
        for name, phase_peak in phases.items():
            assert phase_peak <= 0.5 * result_bytes, (
                name, phase_peak / result_bytes)

    def test_caller_error_kills_the_workers(self, monkeypatch):
        # trial 0 fails in the caller while the worker still runs
        # trial 1, which would take a minute
        sc = short_reference("M-ESEKF", 4)
        fail_trials(monkeypatch, sc, {0: RuntimeError("trial 0 failed"),
                                      1: 60.0})
        pids = record_forks(monkeypatch)
        statuses = record_waits(monkeypatch)
        # a caller that waited for the worker would take the minute
        with forked_copies_stop(), deadline(30), pytest.raises(
                RuntimeError, match="trial 0 failed"):
            run_on_cores(monkeypatch, sc, 2)
        assert len(pids) == 1
        assert_reaped(pids)
        status = statuses[pids[0]]
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGKILL

    # a picklable error is test_no_worker_outlives_a_failing_trial's
    @pytest.mark.parametrize("error, raised, match, exit_code", [
        # a lambda cannot be pickled: sent as a RuntimeError with the
        # type name and message
        (ValueError("trial 1 failed", lambda: None), RuntimeError,
         r"ValueError: \('trial 1 failed'", 0),
        # pickles, but its __init__ cannot load it back
        (TwoArgumentError("trial 1", "failed"), RuntimeError,
         "TwoArgumentError: trial 1 failed", 0),
        # not an Exception: the worker sends nothing and exits
        (SystemExit(5), RuntimeError, r"from trial 1 .*exit status 1", 1),
    ], ids=["unpicklable", "unloadable", "system_exit"])
    def test_worker_error_reaches_the_caller(self, monkeypatch, error,
                                             raised, match, exit_code):
        sc = short_reference("M-ESEKF", 4)
        fail_trials(monkeypatch, sc, {1: error})
        pids = record_forks(monkeypatch)
        statuses = record_waits(monkeypatch)
        with forked_copies_stop(), deadline(60), pytest.raises(
                raised, match=match):
            run_on_cores(monkeypatch, sc, 2)
        assert len(pids) == 1
        assert_reaped(pids)
        status = statuses[pids[0]]
        assert os.WIFEXITED(status)
        assert os.WEXITSTATUS(status) == exit_code

    def test_forked_campaign_imports_no_pool(self):
        # multiprocessing and concurrent.futures cost a forked campaign
        # about 21 ms to import; none of its code needs them
        src = str(Path(runner.__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", _FORKED_CAMPAIGN, str(REFERENCE_SCENARIO)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
