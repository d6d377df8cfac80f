"""Synthetic sensor streams from ground truth.

A campaign computes the noise-free measurements once
(``noise_free_measurements``); each trial draws its noise and adds it
(``synthesize_measurements``). Noise comes from counter-based Philox
generators keyed by (seed, trial, sensor id), so streams are bitwise
reproducible and independent of evaluation order. Noise is drawn for
every sample of the whole duration and then filtered by the schedule,
which keeps a given sensor's noise sequence independent of which
segments enable it.

Orientation noise is generated as Tait-Bryan angles and converted to
quaternions.
"""

import sys
from dataclasses import dataclass, field

import numpy as np

from .. import quat
from ..core import FilterState, OdometryInput, RobotExtrinsics
from ..errors import ConfigError, divisor, finite_array, number_fields
from ..sensors3d import (PoseMeasurement, RangeMeasurement, predict_pose,
                         predict_range)
from ..surface import BSplineSurface
from .trajectory import GroundTruth

_SENSOR_IDS = {"odometry": 0, "pose": 1, "range": 2, "init": 3}


@dataclass
class SensorSuite:
    """Sensor rates and noise levels of the simulated platform."""
    odometry_rate: float = 20.0          # Hz
    odometry_linear_std: float = 0.02    # m/s
    odometry_angular_std: float = 0.01   # rad/s
    pose_rate: float = 5.0               # Hz
    pose_position_std: float = 0.03      # m
    pose_orientation_std: float = 0.01   # rad
    range_rate: float = 10.0             # Hz
    range_distance_std: float = 0.05     # m
    anchors: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        number_fields(self, "sensors", float,
                      ("odometry_rate", "pose_rate", "range_rate"), gt=0)
        # a measurement's noise covariance must be invertible, so its
        # variance a positive normal float; the odometry's only enters
        # the propagated covariance
        number_fields(self, "sensors", float,
                      ("odometry_linear_std", "odometry_angular_std"), ge=0)
        measured = ("pose_position_std", "pose_orientation_std",
                    "range_distance_std")
        number_fields(self, "sensors", float, measured, gt=0)
        for name in measured:
            var = getattr(self, name) * getattr(self, name)
            if not sys.float_info.min <= var <= sys.float_info.max:
                raise ConfigError(
                    f"its square {var!r} is not a positive normal float",
                    field=f"sensors.{name}")
        # one anchor may be given as a bare 3-vector, none as []
        anchors = finite_array(self.anchors, "sensors.anchors")
        anchors = (anchors.reshape(0, 3) if anchors.size == 0
                   else np.atleast_2d(anchors))
        if anchors.ndim != 2 or anchors.shape[1] != 3:
            raise ConfigError("anchors must be (N, 3) positions",
                              field="sensors.anchors")
        self.anchors = anchors


@dataclass
class ScheduleSegment:
    start: float
    end: float
    sensors: frozenset


@dataclass
class SensorSchedule:
    """Contiguous, non-overlapping segments covering the full duration."""
    segments: list

    def validate(self, duration: float):
        if not self.segments:
            raise ConfigError("schedule has no segments", field="schedule")
        t = 0.0
        for i, seg in enumerate(self.segments):
            if abs(seg.start - t) > 1e-9:
                raise ConfigError("segments must be contiguous from 0",
                                  field=f"schedule[{i}]")
            if seg.end <= seg.start:
                raise ConfigError("segment end must exceed start",
                                  field=f"schedule[{i}]")
            unknown = seg.sensors - {"odometry", "pose", "range"}
            if unknown:
                raise ConfigError(f"unknown sensors {sorted(unknown)}",
                                  field=f"schedule[{i}]")
            t = seg.end
        if t < duration - 1e-9:
            raise ConfigError("schedule does not cover the duration",
                              field="schedule")

    def enabled(self, sensor: str, time: float) -> bool:
        for seg in self.segments:
            if seg.start <= time < seg.end or (time >= seg.end
                                               and seg is self.segments[-1]):
                return sensor in seg.sensors
        return False

    @staticmethod
    def always_on(duration: float):
        return SensorSchedule(
            [ScheduleSegment(0.0, duration, frozenset(("pose", "range")))])


@dataclass
class MeasurementStreams:
    """Timestamped sensor events of a single trial, keyed by truth step."""
    odometry: list                        # OdometryInput per step
    pose_events: dict                     # step index -> PoseMeasurement
    range_events: dict                    # step index -> [RangeMeasurement]
    initial_state_noise: np.ndarray       # (6,) standard-normal draws


def _rng(seed: int, trial: int, sensor: str) -> np.random.Generator:
    key = np.array([np.uint64(seed),
                    (np.uint64(trial) << np.uint64(8))
                    | np.uint64(_SENSOR_IDS[sensor])], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class NoiseFreeMeasurements:
    """The noise-free part of a campaign's sensor streams.

    Built once per campaign by ``noise_free_measurements``; each trial's
    ``synthesize_measurements`` only draws and adds its noise. Pose and
    range sample on their own grids of truth steps, their slots. Every
    slot draws noise, enabled or not; only the enabled ones are kept
    here, with their slot number so that they pick out their draws.
    """
    truth: GroundTruth
    suite: SensorSuite
    n_pose_slots: int
    pose_slots: np.ndarray        # (m,) slot number of each enabled slot
    pose_steps: list              # (m,) truth step of each
    pose_p: np.ndarray            # (m, 3) true sensor position
    pose_q: np.ndarray            # (m, 4) true sensor orientation
    n_range_slots: int
    range_slots: np.ndarray
    range_steps: list
    range_anchors: list           # (m,) anchor of each, a shared tuple
    range_d: np.ndarray           # (m,) true distance to it


def noise_free_measurements(surface: BSplineSurface, truth: GroundTruth,
                            suite: SensorSuite, schedule: SensorSchedule,
                            extrinsics: RobotExtrinsics
                            ) -> NoiseFreeMeasurements:
    """True sensor pose at each enabled pose slot and true distance at
    each enabled range slot, by ``predict_pose`` and ``predict_range`` at
    the true state; ranges visit the anchors round-robin, one per slot,
    whether or not the slot is enabled."""
    duration = truth.times[-1]
    schedule.validate(duration)
    if abs(suite.odometry_rate * truth.dt - 1.0) > 1e-9:
        raise ConfigError("odometry rate must equal 1/dt of the trajectory",
                          field="sensors.odometry_rate")
    n = truth.n_steps

    def enabled(sensor):
        every = divisor(getattr(suite, f"{sensor}_rate"),
                        suite.odometry_rate, f"sensors.{sensor}_rate")
        steps = range(every, n + 1, every)
        slots = [i for i, k in enumerate(steps)
                 if schedule.enabled(sensor, truth.times[k])]
        return len(steps), slots, [steps[i] for i in slots]

    chart, gamma = truth.chart.tolist(), truth.gamma.tolist()

    def true_state(k):
        # the models read u, v and gamma alone; P is the identity's
        return FilterState.from_floats(*chart[k], gamma[k],
                                       (1.0, 0.0, 0.0, 1.0, 0.0, 1.0))

    n_pose, pose_slots, pose_steps = enabled("pose")
    poses = [predict_pose(surface, true_state(k), extrinsics)
             for k in pose_steps]
    n_range, range_slots, range_steps = enabled("range")
    anchors = [tuple(a) for a in suite.anchors.tolist()]
    if not anchors:
        range_slots, range_steps = [], []
    anchors = [anchors[i % len(anchors)] for i in range_slots]
    d = [predict_range(surface, true_state(k), extrinsics, a)
         for k, a in zip(range_steps, anchors)]
    return NoiseFreeMeasurements(
        truth, suite,
        n_pose, np.array(pose_slots, dtype=int), pose_steps,
        np.array([p for p, _ in poses]).reshape(-1, 3),
        np.array([q for _, q in poses]).reshape(-1, 4),
        n_range, np.array(range_slots, dtype=int), range_steps,
        anchors, np.array(d, dtype=float))


def synthesize_measurements(clean: NoiseFreeMeasurements, seed: int,
                            trial: int = 0) -> MeasurementStreams:
    """One trial's streams: the noise of (seed, trial) on ``clean``.

    Each stream's noise is drawn in one call, in sample order: per pose
    slot three position then three orientation draws, one draw per
    range slot. Drawn one sample at a time, the noise would be bitwise
    the same.
    """
    truth, suite = clean.truth, clean.suite

    # odometry: every truth step
    rng = _rng(seed, trial, "odometry")
    n = truth.n_steps
    noise_v = rng.normal(0.0, suite.odometry_linear_std, size=(n, 2))
    noise_w = rng.normal(0.0, suite.odometry_angular_std, size=n)
    var_v = suite.odometry_linear_std ** 2
    sigma_v = ((var_v, 0.0), (0.0, var_v))
    sigma_w = suite.odometry_angular_std ** 2
    vx, vy = (truth.v_m + noise_v).T.tolist()
    omega = (truth.omega + noise_w).tolist()
    odometry_input = OdometryInput.from_floats
    odometry = [odometry_input((x, y), w, sigma_v, sigma_w)
                for x, y, w in zip(vx, vy, omega)]

    # pose: position noise added, Tait-Bryan orientation noise composed
    scale = ([suite.pose_position_std] * 3
             + [suite.pose_orientation_std] * 3)
    noise = _rng(seed, trial, "pose").normal(
        0.0, scale, size=(clean.n_pose_slots, 6))[clean.pose_slots]
    z_p = (clean.pose_p + noise[:, 0:3]).tolist()
    P_m = np.diag([suite.pose_position_std ** 2] * 3
                  + [suite.pose_orientation_std ** 2] * 3)
    pose_events = {}
    for k, z_p_k, q, (roll, pitch, yaw) in zip(
            clean.pose_steps, z_p, clean.pose_q.tolist(),
            noise[:, 3:6].tolist()):
        q_noise = quat.from_tait_bryan(roll, pitch, yaw)
        z_q = quat.canonicalize(quat.multiply(q, q_noise))
        pose_events[k] = PoseMeasurement(z_p_k, z_q, P_m)

    # range: one draw per slot
    noise = _rng(seed, trial, "range").normal(
        0.0, suite.range_distance_std, size=clean.n_range_slots)
    z_d = np.maximum(clean.range_d + noise[clean.range_slots], 0.0).tolist()
    R_d = suite.range_distance_std ** 2
    range_events = {}
    for k, anchor, d in zip(clean.range_steps, clean.range_anchors, z_d):
        range_events.setdefault(k, []).append(RangeMeasurement(anchor, d, R_d))

    init_noise = _rng(seed, trial, "init").normal(size=6)
    return MeasurementStreams(odometry, pose_events, range_events, init_noise)
