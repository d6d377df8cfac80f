"""Scenario configuration files (JSON) for the simulation CLI.

A scenario bundles the surface, trajectory, sensor suite, schedule,
filter selection and all tuning blocks. Validation errors carry the
dotted field path of the offending entry.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..baseline import PseudoMeasurementConfig
from ..core import RobotExtrinsics
from ..errors import ConfigError
from ..projection import SamplingConfig
from ..surface import BSplineSurface, load_surface, surface_from_dict
from .runner import FILTER_KINDS, InitialUncertainty
from .sensors import ScheduleSegment, SensorSchedule, SensorSuite
from .trajectory import TrajectorySpec


@dataclass
class Scenario:
    surface: BSplineSurface
    trajectory: TrajectorySpec
    suite: SensorSuite
    schedule: SensorSchedule
    sampling: SamplingConfig
    pseudo: PseudoMeasurementConfig
    extrinsics: RobotExtrinsics
    init: InitialUncertainty
    filter_kind: str
    n_trials: int
    seed: int


def check_seed(seed, field: str):
    """A noise seed keys the Philox generators as an unsigned 64-bit
    integer; one out of that range is a ConfigError naming ``field``."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must be an integer in [0, 2**64)",
                          field=field)


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError("missing required field", field=f"{path}.{key}")
    return data[key]


def _number(kind, value, field: str):
    """``kind(value)`` for kind int or float. A value it refuses, a float
    that is not finite, a boolean, or a fraction where an int is asked
    for is a ConfigError naming ``field``."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ConfigError(f"must be {kind.__name__}, not {value!r}",
                          field=field)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(str(e), field=field) from e
    if kind is float and not math.isfinite(number):
        raise ConfigError("must be finite", field=field)
    return number


def _build(cls, data: dict, path: str, **extra):
    try:
        return cls(**{**data, **extra})
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field=path) from e


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(str(e), field=str(path)) from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e}", field=str(path)) from e
    return scenario_from_dict(data, base_dir=path.parent)


def scenario_from_dict(data: dict, base_dir=Path(".")) -> Scenario:
    surf_spec = _require(data, "surface", "config")
    if isinstance(surf_spec, str):
        surface = load_surface(Path(base_dir) / surf_spec)
    elif isinstance(surf_spec, dict):
        surface = surface_from_dict(surf_spec)
    else:
        raise ConfigError("surface must be a path or an inline object",
                          field="surface")

    traj = _require(data, "trajectory", "config")
    trajectory = _build(TrajectorySpec, traj, "trajectory")

    suite = _build(SensorSuite, data.get("sensors", {}), "sensors")

    sched_raw = data.get("schedule")
    if sched_raw is None:
        schedule = SensorSchedule.always_on(trajectory.duration)
    else:
        segments = []
        for i, seg in enumerate(sched_raw):
            path = f"schedule[{i}]"
            segments.append(ScheduleSegment(
                _number(float, _require(seg, "start", path), f"{path}.start"),
                _number(float, _require(seg, "end", path), f"{path}.end"),
                frozenset(_require(seg, "sensors", path))))
        schedule = SensorSchedule(segments)
    schedule.validate(trajectory.duration)

    sampling = _build(SamplingConfig, data.get("sampling", {}), "sampling")
    pseudo = _build(PseudoMeasurementConfig, data.get("pseudo", {}), "pseudo")
    init = _build(InitialUncertainty, data.get("init", {}), "init")

    ext_raw = data.get("extrinsics")
    if ext_raw is None:
        extrinsics = RobotExtrinsics.identity()
    else:
        extrinsics = _build(
            RobotExtrinsics,
            {"r_RS": np.asarray(_require(ext_raw, "r_RS", "extrinsics"),
                                dtype=float),
             "q_RS": np.asarray(ext_raw.get("q_RS", [1, 0, 0, 0]),
                                dtype=float)},
            "extrinsics")

    filter_kind = data.get("filter", "M-ESEKF")
    if filter_kind not in FILTER_KINDS:
        raise ConfigError(f"filter must be one of {FILTER_KINDS}",
                          field="filter")
    n_trials = _number(int, data.get("trials", 1), "trials")
    if n_trials < 1:
        raise ConfigError("trials must be >= 1", field="trials")
    seed = _number(int, data.get("seed", 0), "seed")
    check_seed(seed, "seed")
    return Scenario(surface, trajectory, suite, schedule, sampling, pseudo,
                    extrinsics, init, filter_kind, n_trials, seed)
