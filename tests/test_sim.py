"""Simulation harness: trajectories, sensor synthesis, metrics."""
import numpy as np
import pytest
from scipy.stats import chi2

from meskf import FilterState, OdometryInput, RobotExtrinsics, propagate
from meskf.sim.config import scenario_from_dict
from meskf.sim.runner import (DIVERGENCE_LIMIT_M, InitialUncertainty,
                              anees_bounds, metrics_from_arrays,
                              run_campaign, run_trial)
from meskf.sim.sensors import (MeasurementStreams, ScheduleSegment,
                               SensorSchedule, SensorSuite,
                               synthesize_measurements)
from meskf.sim.trajectory import (GroundTruth, TrajectorySpec,
                                  generate_ground_truth)

IDENT = RobotExtrinsics.identity()


def circle_spec(duration=10.0, dt=0.05, radius=4.0, speed=1.0):
    return TrajectorySpec({"type": "circle", "center": [0.0, 0.0],
                           "radius": radius}, speed, duration, dt)


def suite(anchors=((8.0, 0.0, 0.0),)):
    return SensorSuite(anchors=np.asarray(anchors, dtype=float))


class TestGroundTruth:
    def test_zero_noise_reintegration_exact(self, curved):
        # the recovered body velocities re-drive the propagation model
        # back onto the true chart path
        truth = generate_ground_truth(curved, circle_spec())
        s = FilterState(truth.chart[0], truth.gamma[0], np.eye(3) * 1e-6)
        sv = np.eye(2) * 1e-6
        for k in range(truth.n_steps):
            o = OdometryInput(truth.v_m[k], truth.omega[k], sv, 1e-6)
            s = propagate(curved, s, o, truth.dt)
            assert np.linalg.norm(s.t_R - truth.chart[k + 1]) < 1e-9
            assert abs(s.gamma_R - truth.gamma[k + 1]) < 1e-9

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

    def test_out_of_domain_path_rejected(self, curved):
        with pytest.raises(Exception):
            generate_ground_truth(curved, circle_spec(radius=50.0))


class TestSensorSynthesis:
    def test_deterministic_per_seed_and_trial(self, flat):
        truth = generate_ground_truth(flat, circle_spec(duration=5.0))
        sched = SensorSchedule.always_on(5.0)
        a = synthesize_measurements(flat, truth, suite(), sched, IDENT, 7, 3)
        b = synthesize_measurements(flat, truth, suite(), sched, IDENT, 7, 3)
        c = synthesize_measurements(flat, truth, suite(), sched, IDENT, 7, 4)
        k = next(iter(a.pose_events))
        np.testing.assert_array_equal(a.pose_events[k].z_p,
                                      b.pose_events[k].z_p)
        assert not np.array_equal(a.pose_events[k].z_p, c.pose_events[k].z_p)
        np.testing.assert_array_equal(a.odometry[0].v_m, b.odometry[0].v_m)

    def test_noise_statistics(self, flat):
        # empirical std of the injected noise matches the suite levels
        truth = generate_ground_truth(flat, circle_spec(duration=30.0))
        sched = SensorSchedule.always_on(30.0)
        su = suite()
        vs, ranges = [], []
        for trial in range(20):
            st = synthesize_measurements(flat, truth, su, sched, IDENT,
                                         11, trial)
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
        st = synthesize_measurements(flat, truth, suite(), sched, IDENT, 1, 0)
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
        st = synthesize_measurements(flat, truth, suite(anchors), sched,
                                     IDENT, 2, 0)
        seen = [m.r_A[0] for k in sorted(st.range_events)
                for m in st.range_events[k]]
        assert seen[0] != seen[1]  # alternates between the two anchors


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
        np.testing.assert_allclose(m.anees_pos[0], 1.0)
        np.testing.assert_allclose(m.anees_head[0], 1.0)

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

    def test_anees_bounds_match_scipy(self):
        # oracle: scipy.stats.chi2.ppf, exact down to a single trial
        for n in (1, 2, 3, 100):
            for m in (1, 2, 3):
                dof = n * m
                lo, hi = anees_bounds(n, m)
                np.testing.assert_allclose(
                    [lo, hi], [chi2.ppf(0.005, dof) / dof,
                               chi2.ppf(0.995, dof) / dof], rtol=1e-9)

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
            st = synthesize_measurements(curved, truth, suite(), sched,
                                         IDENT, 5, 0)
            results.append(run_trial(curved, truth, st, "M-ESEKF"))
        np.testing.assert_array_equal(results[0].errors, results[1].errors)
        np.testing.assert_array_equal(results[0].covariances,
                                      results[1].covariances)

    @pytest.mark.parametrize("kind", ["M-ESEKF", "MP-ESEKF", "C-ESEKF"])
    def test_each_filter_tracks(self, curved, kind):
        truth = generate_ground_truth(curved, circle_spec(duration=8.0))
        sched = SensorSchedule.always_on(8.0)
        st = synthesize_measurements(curved, truth, suite(), sched, IDENT,
                                     9, 0)
        res = run_trial(curved, truth, st, kind)
        assert not res.diverged
        assert np.linalg.norm(res.errors[-1, 0:2]) < 0.3
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

    @pytest.mark.parametrize("kind", ["M-ESEKF", "MP-ESEKF", "C-ESEKF"])
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
        res = run_trial(flat, truth, streams, kind)
        dist = np.linalg.norm(res.errors[:, 0:2], axis=1)
        first = int(np.argmax(dist > DIVERGENCE_LIMIT_M))
        assert res.diverged
        assert 0 < first < n
        assert res.diverged_step == first

    def test_unknown_filter_rejected(self, flat):
        truth = generate_ground_truth(flat, circle_spec(duration=1.0))
        st = synthesize_measurements(flat, truth, suite(),
                                     SensorSchedule.always_on(1.0),
                                     IDENT, 0, 0)
        with pytest.raises(ValueError):
            run_trial(flat, truth, st, "EKF")
