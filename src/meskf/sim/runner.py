"""Trial execution, Monte-Carlo campaigns and metric aggregation.

``run_trial`` is one event loop for all three filters; each filter
family enters it only through a ``_Filter``. ``run_campaign`` runs the
trials of a scenario and scores them.

Every filter variant is scored in the same evaluation space: chart
position error (m) and heading error (rad). The constrained 3-D
baseline is mapped into that space through the chart and the tangent
frame decomposition so the comparison is over shared observables.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import chdtri

from .. import baseline as bl
from .. import projection as prj
from .. import quat
from .. import sensors3d as s3d
from ..core import FilterState, RobotExtrinsics, propagate, wrap_angle
from ..errors import (ConfigError, DegenerateGeometryError,
                      DegenerateSamplingError, MeskfError,
                      NoIntersectionError)
from ..surface import BSplineSurface
from .sensors import (MeasurementStreams, noise_free_measurements,
                      synthesize_measurements)
from .trajectory import GroundTruth, generate_ground_truth

FILTER_KINDS = ("M-ESEKF", "MP-ESEKF", "C-ESEKF")
DIVERGENCE_LIMIT_M = 10.0
ANEES_CONFIDENCE = 0.99


@dataclass
class InitialUncertainty:
    """Standard deviations used to seed the initial estimate and P0."""
    pos_std: float = 0.05     # chart position, m
    head_std: float = 0.02    # heading, rad
    z_std: float = 0.05       # baseline elevation, m
    rp_std: float = 0.02      # baseline roll/pitch, rad

    def __post_init__(self):
        for name in ("pos_std", "head_std", "z_std", "rp_std"):
            std = getattr(self, name)
            if not (math.isfinite(std) and std > 0):
                # a zero std makes P0 singular, and with it every NEES
                raise ConfigError("must be finite and positive",
                                  field=f"init.{name}")


@dataclass
class TrialResult:
    errors: np.ndarray        # (K+1, 3) chart position + heading error
    covariances: np.ndarray   # (K+1, 3, 3) in the evaluation space
    timings: dict             # correction type -> list of seconds
    diverged: bool
    diverged_step: int | None = None


@dataclass
class TrialMetrics:
    """Per-step Monte-Carlo metrics with chi-square consistency bounds."""
    times: np.ndarray
    rmse_pos: np.ndarray
    rmse_head: np.ndarray
    anees: np.ndarray         # combined, m = 3
    anees_pos: np.ndarray     # position only, m = 2
    anees_head: np.ndarray    # heading only, m = 1
    anees_bounds: tuple       # (lo, hi) for the combined ANEES
    anees_bounds_pos: tuple
    anees_bounds_head: tuple
    n_trials: int
    n_excluded: int
    timing_rows: list         # (trial, correction_type, mean_us, p99_us)

    @property
    def exclusion_rate(self):
        return self.n_excluded / max(self.n_trials, 1)


def anees_bounds(n_trials: int, m: int):
    """Exact two-sided chi-square bounds on the ANEES of m-dof errors,
    at ``ANEES_CONFIDENCE``."""
    # chdtri(dof, p) is the x with P(chi2_dof > x) = p
    dof = n_trials * m
    alpha = 0.5 * (1.0 - ANEES_CONFIDENCE)
    return chdtri(dof, 1.0 - alpha) / dof, chdtri(dof, alpha) / dof


class _Filter(NamedTuple):
    """What one filter family gives the shared trial loop.

    Each correction is a (timing label, function) pair; ``pose`` and
    ``range`` take (state, measurement), ``periodic`` takes the state
    and runs every ``every`` steps. ``to_eval`` maps a state to the
    evaluation space (t, gamma, P_eval).
    """
    state: object
    propagate: Callable           # (state, odometry) -> state
    pose: tuple
    range: tuple
    to_eval: Callable
    periodic: tuple = (None, 0, None)   # (label, every, fn), C-ESEKF


def _manifold_filter(surface, truth, noise, projected, sampling,
                     extrinsics, init) -> _Filter:
    P0 = np.diag([init.pos_std ** 2, init.pos_std ** 2, init.head_std ** 2])
    t0 = truth.chart[0] + init.pos_std * noise[0:2]
    g0 = truth.gamma[0] + init.head_std * noise[2]

    if projected:
        def pose(st, meas):
            p = prj.project_position(surface, meas.z_p, meas.P_m[0:3, 0:3],
                                     extrinsics, st)
            st = prj.projected_position_update(st, surface, p)
            return s3d.orientation_update(st, surface, extrinsics, meas)

        def rng(st, meas):
            try:
                pr = prj.project_range(surface, meas.z_d, meas.R_d,
                                       meas.r_A, extrinsics, st, sampling)
                return prj.projected_range_update(st, surface, pr)
            except (NoIntersectionError, DegenerateSamplingError,
                    DegenerateGeometryError):
                return s3d.range_update(st, surface, extrinsics, meas)
        labels = ("projected_position", "projected_range")
    else:
        def pose(st, meas):
            return s3d.pose_update(st, surface, extrinsics, meas)

        def rng(st, meas):
            return s3d.range_update(st, surface, extrinsics, meas)
        labels = ("pose", "range")

    return _Filter(
        FilterState(t0, g0, P0),
        lambda st, odo: propagate(surface, st, odo, truth.dt),
        (labels[0], pose), (labels[1], rng),
        lambda st: (st.t_R, st.gamma_R, st.P_x))


def _baseline_filter(surface, truth, noise, pseudo, extrinsics,
                     init) -> _Filter:
    p0, q_true = s3d.predict_pose(
        surface, FilterState(truth.chart[0], truth.gamma[0], np.eye(3)),
        RobotExtrinsics.identity())
    p0 = p0 + np.array([init.pos_std * noise[0], init.pos_std * noise[1],
                        init.z_std * noise[3]])
    dq = quat.from_rotvec(np.array([init.rp_std * noise[4],
                                    init.rp_std * noise[5],
                                    init.head_std * noise[2]]))
    P0 = np.diag([init.pos_std ** 2, init.pos_std ** 2, init.z_std ** 2,
                  init.rp_std ** 2, init.rp_std ** 2, init.head_std ** 2])

    def to_eval(st):
        x, P_eval = bl.chart_errors(st, surface)
        return x[0:2], x[2], P_eval

    return _Filter(
        bl.FullPoseState(p0, quat.multiply(q_true, dq), P0),
        lambda st, odo: bl.propagate_3d(st, odo, truth.dt),
        ("pose", lambda st, meas: bl.pose_update_3d(st, extrinsics, meas)),
        ("range", lambda st, meas: bl.range_update_3d(st, extrinsics,
                                                      meas)),
        to_eval,
        ("pseudo", max(int(round(1.0 / (pseudo.rate * truth.dt))), 1),
         lambda st: bl.pseudo_update(st, surface, pseudo)))


def run_trial(surface: BSplineSurface, truth: GroundTruth,
              streams: MeasurementStreams, filter_kind: str,
              sampling=None, pseudo=None, extrinsics=None,
              init=None) -> TrialResult:
    """Event-driven execution of one trial with the selected filter.

    Each step propagates on the odometry, then applies the periodic
    correction when due, the pose event, and the range events of the
    step, timing each correction. A package error or a chart position
    error above ``DIVERGENCE_LIMIT_M`` ends the trial as diverged.
    """
    if filter_kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {filter_kind!r}")
    extrinsics = extrinsics or RobotExtrinsics.identity()
    init = init or InitialUncertainty()
    noise = streams.initial_state_noise
    if filter_kind == "C-ESEKF":
        f = _baseline_filter(surface, truth, noise,
                             pseudo or bl.PseudoMeasurementConfig(),
                             extrinsics, init)
    else:
        f = _manifold_filter(surface, truth, noise,
                             filter_kind == "MP-ESEKF",
                             sampling or prj.SamplingConfig(),
                             extrinsics, init)
    (pose_key, pose), (range_key, rng) = f.pose, f.range
    periodic_key, every, periodic = f.periodic

    n = truth.n_steps
    errors = np.zeros((n + 1, 3))
    covs = np.zeros((n + 1, 3, 3))
    timings = {}

    def timed(key, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        timings.setdefault(key, []).append(time.perf_counter() - start)
        return out

    def record(k, st):
        t, gamma, P_eval = f.to_eval(st)
        errors[k, 0:2] = t - truth.chart[k]
        errors[k, 2] = wrap_angle(gamma - truth.gamma[k])
        covs[k] = P_eval

    state = f.state
    record(0, state)
    for step in range(1, n + 1):
        try:
            state = f.propagate(state, streams.odometry[step - 1])
            if every and step % every == 0:
                state = timed(periodic_key, periodic, state)
            if step in streams.pose_events:
                state = timed(pose_key, pose, state,
                              streams.pose_events[step])
            for meas in streams.range_events.get(step, ()):
                state = timed(range_key, rng, state, meas)
            record(step, state)
        except MeskfError:
            return TrialResult(errors, covs, timings, True, step)
        if np.linalg.norm(errors[step, 0:2]) > DIVERGENCE_LIMIT_M:
            return TrialResult(errors, covs, timings, True, step)
    return TrialResult(errors, covs, timings, False)


def metrics_from_arrays(times: np.ndarray, errors: np.ndarray,
                        covariances: np.ndarray, diverged: np.ndarray,
                        timing_rows: list) -> TrialMetrics:
    """RMSE_k and ANEES_k from stacked per-trial arrays.

    Diverged trials are excluded from the averages and reported through
    the exclusion rate.
    """
    keep = ~np.asarray(diverged, dtype=bool)
    n_steps = len(times)
    if np.any(keep):
        e = errors[keep]                                # (N, K+1, 3)
        P = covariances[keep]                           # (N, K+1, 3, 3)
        rmse_pos = np.sqrt(np.mean(np.sum(e[:, :, 0:2] ** 2, axis=2), axis=0))
        rmse_head = np.sqrt(np.mean(e[:, :, 2] ** 2, axis=0))
        Pinv = np.linalg.inv(P)
        nees = np.einsum("nki,nkij,nkj->nk", e, Pinv, e)
        anees = np.mean(nees, axis=0) / 3.0
        Pp = P[:, :, 0:2, 0:2]
        nees_p = np.einsum("nki,nkij,nkj->nk", e[:, :, 0:2],
                           np.linalg.inv(Pp), e[:, :, 0:2])
        anees_pos = np.mean(nees_p, axis=0) / 2.0
        anees_head = np.mean(e[:, :, 2] ** 2 / P[:, :, 2, 2], axis=0)
    else:
        rmse_pos = rmse_head = np.full(n_steps, np.nan)
        anees = anees_pos = anees_head = np.full(n_steps, np.nan)

    n_kept = max(int(np.sum(keep)), 1)
    return TrialMetrics(
        times=times,
        rmse_pos=rmse_pos, rmse_head=rmse_head,
        anees=anees, anees_pos=anees_pos, anees_head=anees_head,
        anees_bounds=anees_bounds(n_kept, 3),
        anees_bounds_pos=anees_bounds(n_kept, 2),
        anees_bounds_head=anees_bounds(n_kept, 1),
        n_trials=len(diverged), n_excluded=int(np.sum(~keep)),
        timing_rows=timing_rows)


def stack_results(results: list):
    """(errors, covariances, diverged, timing_rows) arrays from trials."""
    errors = np.stack([r.errors for r in results])
    covs = np.stack([r.covariances for r in results])
    diverged = np.array([r.diverged for r in results], dtype=bool)
    timing_rows = []
    for i, r in enumerate(results):
        for key, vals in sorted(r.timings.items()):
            arr = np.asarray(vals) * 1e6
            timing_rows.append((i, key, float(np.mean(arr)),
                                float(np.percentile(arr, 99))))
    return errors, covs, diverged, timing_rows


def run_campaign(scenario):
    """All trials of a scenario (``sim.config.Scenario``).

    The ground truth and the noise-free measurements are built once;
    each trial then draws its measurement noise from (seed, trial) and
    runs the scenario's filter.
    Returns (metrics, errors, covariances, diverged), the last three
    stacked over trials as ``trials.npz`` stores them.
    """
    sc = scenario
    truth = generate_ground_truth(sc.surface, sc.trajectory)
    clean = noise_free_measurements(sc.surface, truth, sc.suite,
                                    sc.schedule, sc.extrinsics)
    results = []
    for trial in range(sc.n_trials):
        streams = synthesize_measurements(clean, sc.seed, trial)
        results.append(run_trial(sc.surface, truth, streams,
                                 sc.filter_kind, sc.sampling, sc.pseudo,
                                 sc.extrinsics, sc.init))
    errors, covs, diverged, timing_rows = stack_results(results)
    metrics = metrics_from_arrays(truth.times, errors, covs, diverged,
                                  timing_rows)
    return metrics, errors, covs, diverged
