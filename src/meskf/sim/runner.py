"""Trial execution, Monte-Carlo campaigns and metric aggregation.

``run_trial`` is one event loop for all three filters of
``meskf.filters``. ``run_campaign`` builds the scenario's filter once,
runs the trials of the scenario with it, on every usable core, and
scores them.

Every filter is scored in the same evaluation space, chart position
error (m) and heading error (rad). A trial records each step's state
as one row of floats (the filter's ``record``) and maps all its rows
into that space once, after its loop (the filter's ``score``).
"""

import math
import mmap
import os
import pickle
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core import wrap_angle
from ..errors import MeskfError
from ..filters import InitialUncertainty, make_filter
from .sensors import (MeasurementStreams, noise_free_measurements,
                      synthesize_measurements)
from .trajectory import GroundTruth, generate_ground_truth

DIVERGENCE_LIMIT_M = 10.0
ANEES_CONFIDENCE = 0.99


class TrialOutcome(NamedTuple):
    """What ``run_trial`` returns of a trial besides its rows, which it
    forms into the arrays it is given; what a worker's header carries
    per trial."""
    diverged: bool
    diverged_step: int | None
    timings: dict             # correction type -> list of seconds
    # why it diverged: "<exception class>: <message>" for a package
    # error, "chart position error <metres> m" for the limit
    reason: str | None


@dataclass
class TrialMetrics:
    """Per-step Monte-Carlo metrics with chi-square consistency bounds."""
    times: np.ndarray
    rmse_pos: np.ndarray
    rmse_head: np.ndarray
    anees: np.ndarray         # chart position and heading, m = 3
    anees_bounds: tuple       # (lo, hi) for the ANEES
    n_trials: int
    n_excluded: int
    timing_rows: list         # (trial, correction_type, mean_us, p99_us)

    @property
    def exclusion_rate(self):
        return self.n_excluded / max(self.n_trials, 1)


def _gamma_pq(a: float, x: float):
    """The regularized incomplete gamma functions (P(a, x), Q(a, x)) for
    a > 0, x >= 0: P by its series for x < a + 1, otherwise Q by its
    continued fraction (modified Lentz), the one that converges fast
    there; the other is its complement (Numerical Recipes, 3rd ed.,
    section 6.2)."""
    if x <= 0.0:
        return 0.0, 1.0
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        p = scale * total
        return p, 1.0 - p
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    f = d
    for i in range(1, 100_000):
        an = i * (a - i)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = scale * f
    return 1.0 - q, q


def _chi2_isf(q: float, dof: float) -> float:
    """The x with P(chi-square_dof > x) = q, for 0 < q < 1.

    Halley steps on the regularized incomplete gamma function of a =
    dof/2, from the Wilson-Hilferty start for a > 1 (Numerical Recipes,
    3rd ed., section 6.2.1). The equation is written on the smaller
    tail, P(a, x) = 1 - q below the median and Q(a, x) = q above it, so
    both ends keep full relative accuracy.
    """
    a = 0.5 * dof
    p = 1.0 - q
    lower = p < 0.5
    lg = math.lgamma(a)
    if a > 1.0:
        # normal quantile of the smaller tail, rational approximation
        t = math.sqrt(-2.0 * math.log(min(p, q)))
        z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
        z = -z if lower else z
        x = max(1e-3, a * (1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a)))
                ** 3)
    else:
        t = 1.0 - a * (0.253 + 0.12 * a)
        x = ((p / t) ** (1.0 / a) if p < t
             else 1.0 - math.log(1.0 - (p - t) / (1.0 - t)))
    for _ in range(100):
        gp, gq = _gamma_pq(a, x)
        err = gp - p if lower else q - gq
        dens = math.exp((a - 1.0) * math.log(x) - x - lg)
        u = err / dens
        step = u / (1.0 - 0.5 * min(1.0, u * ((a - 1.0) / x - 1.0)))
        x_new = x - step
        x = 0.5 * x if x_new <= 0.0 else x_new
        if abs(step) < 1e-10 * x:
            break
    return 2.0 * x


def anees_bounds(n_trials: int, m: int):
    """Exact two-sided chi-square bounds on the ANEES of m-dof errors,
    at ``ANEES_CONFIDENCE``."""
    dof = n_trials * m
    alpha = 0.5 * (1.0 - ANEES_CONFIDENCE)
    return _chi2_isf(1.0 - alpha, dof) / dof, _chi2_isf(alpha, dof) / dof


def run_trial(filt, truth: GroundTruth, streams: MeasurementStreams,
              init: InitialUncertainty, errors: np.ndarray,
              covs: np.ndarray) -> TrialOutcome:
    """Event-driven execution of one trial with the filter ``filt``
    (``meskf.filters``), started from ``init`` and the trial's draws.
    Its chart position and heading errors are formed into ``errors``
    (K+1, 3) and its covariances in the evaluation space into ``covs``
    (K+1, 3, 3), in place: in a campaign, the trial's rows of the
    shared block.

    Each step propagates on the odometry, then applies the periodic
    correction if the filter has one, the pose event, and the range
    events of the step, timing each correction, and records the state:
    ``filt.record`` stores the floats that scoring reads into the
    step's row of one array, and returns the chart position, from which
    the divergence test takes the chart position error. A package error
    or a chart position error above ``DIVERGENCE_LIMIT_M`` ends the
    trial as diverged at that step; a package error in the start or in
    recording it (a start off the chart) ends it at step 0. The reason
    is kept: the exception's class and message, or the chart error.

    Once the loop ends, one ``filt.score`` call maps the recorded rows
    to the scoring space, and the errors against the truth are formed
    on those columns. The rows of the steps not recorded are left as
    given (a campaign's block is zero-filled): after the step that
    passed the limit, and from the step that raised on. Returns the
    trial's ``TrialOutcome``.
    """
    n = truth.n_steps
    rows = np.zeros((n + 1, filt.row_width))
    timings = {}

    def timed(key, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        timings.setdefault(key, []).append(time.perf_counter() - start)
        return out

    def record(k, st):
        """Store step k's row; return the chart position error."""
        u, v = filt.record(st, rows[k])
        tu, tv = truth.chart[k].tolist()
        return math.hypot(u - tu, v - tv)

    step, recorded, reason = 0, n + 1, None
    try:
        state = filt.start(truth.chart[0], truth.gamma[0], init,
                           streams.initial_state_noise)
        record(0, state)
        for step in range(1, n + 1):
            state = filt.propagate(state, streams.odometry[step - 1])
            if filt.periodic_label:
                state = timed(filt.periodic_label, filt.correct_periodic,
                              state)
            if step in streams.pose_events:
                state = timed(filt.pose_label, filt.correct_pose, state,
                              streams.pose_events[step])
            for meas in streams.range_events.get(step, ()):
                state = timed(filt.range_label, filt.correct_range, state,
                              meas)
            err = record(step, state)
            if err > DIVERGENCE_LIMIT_M:
                recorded = step + 1
                reason = f"chart position error {err} m"
                break
    except MeskfError as exc:
        recorded = step
        reason = f"{type(exc).__name__}: {exc}"
    if recorded:
        t, gamma, P_eval = filt.score(rows[:recorded])
        e = errors[:recorded]
        np.subtract(t, truth.chart[:recorded], out=e[:, 0:2])
        e[:, 2] = wrap_angle(gamma - truth.gamma[:recorded])
        covs[:recorded] = P_eval
    if reason is None:
        return TrialOutcome(False, None, timings, None)
    return TrialOutcome(True, step, timings, reason)


def metrics_from_arrays(times: np.ndarray, errors: np.ndarray,
                        covariances: np.ndarray, diverged: np.ndarray,
                        timing_rows: list) -> TrialMetrics:
    """RMSE_k and ANEES_k from stacked per-trial arrays.

    Diverged trials are excluded from the averages and reported through
    the exclusion rate; so is a trial with a covariance that is singular
    in floating point, whose NEES cannot be formed.

    The kept trials are read one at a time, in place, and their squared
    errors and NEES summed per step in trial order from zero. That is
    the order in which ``np.mean(..., axis=0)`` over the stacked kept
    trials sums them when a trial has more than one step, so the
    results are its bits, without a copy of the kept trials.
    """
    keep = ~np.asarray(diverged, dtype=bool)
    n_steps = len(times)
    sum_pos, sum_head, sum_nees = (np.zeros(n_steps) for _ in range(3))
    for k in np.flatnonzero(keep):
        e_k = errors[k]
        try:
            x = np.linalg.solve(covariances[k], e_k[..., None])[..., 0]
        except np.linalg.LinAlgError:
            keep[k] = False
            continue
        sum_nees += np.sum(e_k * x, axis=-1)
        sum_pos += np.sum(e_k[:, 0:2] ** 2, axis=1)
        sum_head += e_k[:, 2] ** 2
    n_kept = int(np.sum(keep))
    if n_kept:
        rmse_pos = np.sqrt(sum_pos / n_kept)
        rmse_head = np.sqrt(sum_head / n_kept)
        anees = sum_nees / n_kept / 3.0
    else:
        rmse_pos = rmse_head = np.full(n_steps, np.nan)
        anees = np.full(n_steps, np.nan)

    n_kept = max(n_kept, 1)
    return TrialMetrics(
        times=times,
        rmse_pos=rmse_pos, rmse_head=rmse_head,
        anees=anees, anees_bounds=anees_bounds(n_kept, 3),
        n_trials=len(diverged), n_excluded=int(np.sum(~keep)),
        timing_rows=timing_rows)


def _percentile99(values) -> float:
    """``np.percentile(values, 99)``, linear between order statistics,
    written out: np.percentile imports numpy.ma on its first call, which
    would cost each campaign about 10 ms."""
    a = np.sort(values)
    idx = (len(a) - 1) * 0.99
    lo = math.floor(idx)
    t = idx - lo
    lower, upper = float(a[lo]), float(a[min(lo + 1, len(a) - 1)])
    step = upper - lower
    # numpy's lerp: from whichever end is nearer
    return upper - step * (1.0 - t) if t >= 0.5 else lower + step * t


def stack_results(outcomes: list):
    """(diverged, timing_rows) from the trials' outcomes, in trial order:
    the divergence flags as an array, and one (trial, correction type,
    mean µs, p99 µs) row per trial and correction type. The trials'
    errors and covariances are not here: they are already in the
    campaign's block."""
    diverged = np.array([r.diverged for r in outcomes], dtype=bool)
    timing_rows = []
    for i, r in enumerate(outcomes):
        for key, vals in sorted(r.timings.items()):
            arr = np.asarray(vals) * 1e6
            timing_rows.append((i, key, float(np.mean(arr)),
                                _percentile99(arr)))
    return diverged, timing_rows


def run_campaign(scenario):
    """All trials of a scenario (``sim.config.Scenario``).

    The ground truth and the noise-free measurements are built once;
    each trial then draws its measurement noise from (seed, trial) and
    runs the scenario's filter. The campaign's errors (N, K+1, 3) and
    covariances (N, K+1, 3, 3) are two views of one anonymous shared
    mapping, zero-filled, made once before any fork. ``run_trial``
    forms every trial's rows into it in place, in the process that runs
    the trial, and nothing holds a copy of them; the rows after a
    trial's divergence keep the block's zeros.

    The trials run on n = min(usable cores, trials) processes, the
    usable cores being those this process may run on
    (``os.sched_getaffinity``). The split is static and interleaved:
    this process runs trials 0, n, 2n, ... itself, and n - 1 workers
    forked from it run the rest (``_run_processes``). The workers
    inherit the filter, the truth, the noise-free measurements and the
    mapping through the fork. Each writes its trials' rows into the
    mapping, then sends back, on its own pipe, a small pickled header
    (each trial's divergence and timings, or its exception), the
    record that its rows are all written. A worker's exception is
    raised here; a worker that ends without its header (killed by
    SIGKILL, the out-of-memory killer) raises a RuntimeError naming
    its first trial and the signal. No worker outlives the call.
    Every trial draws from its own stream and its rows have their own
    place in the block, so the outputs are bitwise the same for any n.
    With n = 1 nothing is forked; to run serially from the command
    line, limit the affinity (``taskset -c 0 meskf simulate ...``).
    Where ``os.sched_getaffinity`` is missing (macOS, Windows: the
    platforms where forking is missing or unsafe) the trials run
    serially.

    Returns (metrics, errors, covariances, diverged), the last three
    stacked over trials as ``trials.npz`` stores them.
    """
    sc = scenario
    n = 1
    if hasattr(os, "sched_getaffinity"):
        n = min(len(os.sched_getaffinity(0)), sc.n_trials)
    truth = generate_ground_truth(sc.surface, sc.trajectory)
    clean = noise_free_measurements(sc.surface, truth, sc.suite,
                                    sc.schedule, sc.extrinsics)
    filt = make_filter(sc.filter_kind, sc.surface, truth.dt, sc.extrinsics,
                       sc.sampling, sc.pseudo)
    rows = (sc.n_trials, truth.n_steps + 1)
    n_errors = math.prod(rows) * 3
    # the errors, then three times as many covariance entries, float64
    block = np.frombuffer(mmap.mmap(-1, 4 * n_errors * 8))
    errors = block[:n_errors].reshape(rows + (3,))
    covs = block[n_errors:].reshape(rows + (3, 3))
    shared = (filt, truth, clean, sc.seed, sc.init, errors, covs)
    diverged, timing_rows = stack_results(_run_processes(shared, n))
    metrics = metrics_from_arrays(truth.times, errors, covs, diverged,
                                  timing_rows)
    return metrics, errors, covs, diverged


def _run_share(shared, first: int, step: int) -> list:
    """Trials first, first + step, ... of the campaign ``shared``, in
    order. Each trial forms its errors and covariances into its own
    rows of the campaign's block (the last two items of ``shared``);
    the trials' ``TrialOutcome``s are returned. ``run_trial`` is called
    through this module, where the benchmark's tracer wraps it."""
    filt, truth, clean, seed, init, errors, covs = shared
    return [run_trial(filt, truth, synthesize_measurements(clean, seed, k),
                      init, errors[k], covs[k])
            for k in range(first, len(errors), step)]


def _run_processes(shared, n: int) -> list:
    """The campaign's outcomes on n processes: this one runs trials
    0, n, 2n, ... while n - 1 workers, each one ``os.fork`` with one
    pipe, run trials j, j + n, ... for j = 1, ..., n - 1; with n = 1
    nothing is forked. Every process stores its trials' rows into the
    shared block itself. A worker sends its header once all its rows
    are written, or its exception, and exits (``_work``); this process
    reads the headers in trial order, reaps each worker with
    ``os.waitpid`` (so the rusage of children counts their CPU) and
    re-raises a worker's exception. A worker that ends without its
    header, or with a nonzero status (killed by a signal: SIGKILL from
    the out-of-memory killer, say), raises a RuntimeError that names
    its first trial and its wait status, so its rows are never taken
    as written. On any error, its own included, this process kills the
    workers it has not read, closes every pipe and reaps every worker:
    none outlives the call. The benchmark's tracer wraps the layer
    functions in this process only, so the caller's share is what it
    sees of a campaign."""
    outcomes = [None] * len(shared[-2])
    workers = {}                  # pid -> (first trial, read end), unreaped
    try:
        for j in range(1, n):
            r, w = os.pipe()
            others = [r] + [fd for _, fd in workers.values()]
            try:
                pid = os.fork()
                if pid == 0:
                    _work(shared, j, n, w, others)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            workers[pid] = (j, r)
        outcomes[0::n] = _run_share(shared, 0, n)
        for pid in list(workers):
            j, r = workers[pid]
            try:
                # until the worker closes its end
                with open(r, "rb", closefd=False) as pipe:
                    header = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                header = None
            del workers[pid]
            os.close(r)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code or header is None:
                raise RuntimeError(
                    f"the campaign worker from trial {j} ended without its "
                    f"results: {_exit_reason(code)}")
            ok, value = header
            if not ok:
                exc, trace = value
                raise exc from RuntimeError(
                    f"in the campaign worker from trial {j}:\n{trace}")
            outcomes[j::n] = value
    finally:
        if workers:
            # only on an error: imported here, so that no campaign that
            # succeeds pays for it
            import signal
            for pid in workers:
                os.kill(pid, signal.SIGKILL)
            for _, r in workers.values():
                os.close(r)
            for pid in workers:
                os.waitpid(pid, 0)
    return outcomes


def _work(shared, first: int, step: int, w: int, others: list):
    """A forked worker's whole life: trials first, first + step, ...
    of ``shared``, their rows stored into the shared block, then the
    pickled header (True, outcomes) sent on the pipe end ``w``; or the
    header (False, (exception, traceback text)) if a trial raised. No
    array crosses the pipe. It closes the pipe ends ``others``, which
    are not its own, and never returns: whatever happens, it ends in
    ``os._exit``, so it cannot unwind into the caller's stack. An
    exception that cannot be pickled is sent as a RuntimeError with its
    type name and message."""
    status = 1
    try:
        for fd in others:
            os.close(fd)
        try:
            header = (True, _run_share(shared, first, step))
        except Exception as exc:
            import traceback
            trace = "".join(traceback.format_exception(exc))
            header = (False, (exc, trace))
            try:
                # one that pickles can still fail to load: an __init__
                # whose arguments differ from its args
                pickle.loads(pickle.dumps(header))
            except Exception:
                header = (False, (RuntimeError(
                    f"{type(exc).__name__}: {exc}"), trace))
        with open(w, "wb") as pipe:
            pickle.dump(header, pipe)
        status = 0
    finally:
        os._exit(status)


def _exit_reason(code: int) -> str:
    """A worker's exit code, as ``os.waitstatus_to_exitcode`` gives it,
    in words."""
    if code >= 0:
        return f"exit status {code}"
    import signal                 # only on an error, like the kill above
    try:
        return f"killed by signal {-code} ({signal.Signals(-code).name})"
    except ValueError:            # a real-time signal has no name
        return f"killed by signal {-code}"
