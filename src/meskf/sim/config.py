"""Scenario configuration files (JSON) for the simulation CLI.

A scenario bundles the surface, trajectory, sensor suite, schedule,
filter selection and all tuning blocks. Validation errors carry the
dotted field path of the offending entry.
"""

from dataclasses import dataclass
from pathlib import Path

from ..baseline import PseudoMeasurementConfig
from ..core import RobotExtrinsics
from ..errors import ConfigError, build, number, read_json, require
from ..filters import FILTER_KINDS, InitialUncertainty
from ..projection import SamplingConfig
from ..surface import BSplineSurface, load_surface, surface_from_dict
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


def campaign_setting(name: str, value, field: str = None):
    """The top-level setting ``name``, checked: "filter" one of
    FILTER_KINDS, "trials" an int >= 1, "seed" an int in [0, 2**64) (the
    Philox key). A bad value is a ConfigError naming ``field or name``."""
    field = field or name
    if name == "filter":
        if value not in FILTER_KINDS:
            raise ConfigError(f"must be one of {FILTER_KINDS}", field=field)
        return value
    if name == "trials":
        return number(int, value, field, ge=1)
    return number(int, value, field, ge=0, lt=2 ** 64)


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path), base_dir=Path(path).parent)


def scenario_from_dict(data: dict, base_dir=Path(".")) -> Scenario:
    surf_spec = require(data, "surface", "config")
    if isinstance(surf_spec, str):
        surface = load_surface(Path(base_dir) / surf_spec)
    elif isinstance(surf_spec, dict):
        surface = surface_from_dict(surf_spec)
    else:
        raise ConfigError("surface must be a path or an inline object",
                          field="surface")

    trajectory = build(TrajectorySpec, require(data, "trajectory", "config"),
                       "trajectory")
    suite = build(SensorSuite, data.get("sensors", {}), "sensors")

    sched_raw = data.get("schedule")
    if sched_raw is None:
        schedule = SensorSchedule.always_on(trajectory.duration)
    else:
        if not isinstance(sched_raw, list):
            raise ConfigError("must be a list", field="schedule")
        segments = []
        for i, seg in enumerate(sched_raw):
            path = f"schedule[{i}]"
            sensors = require(seg, "sensors", path)
            if not (isinstance(sensors, list)
                    and all(isinstance(name, str) for name in sensors)):
                raise ConfigError("must be a list of sensor names",
                                  field=f"{path}.sensors")
            segments.append(ScheduleSegment(
                number(float, require(seg, "start", path), f"{path}.start"),
                number(float, require(seg, "end", path), f"{path}.end"),
                frozenset(sensors)))
        schedule = SensorSchedule(segments)
    schedule.validate(trajectory.duration)

    sampling = build(SamplingConfig, data.get("sampling", {}), "sampling")
    pseudo = build(PseudoMeasurementConfig, data.get("pseudo", {}), "pseudo")
    init = build(InitialUncertainty, data.get("init", {}), "init")

    ext_raw = data.get("extrinsics")
    extrinsics = (RobotExtrinsics.identity() if ext_raw is None else
                  build(RobotExtrinsics, ext_raw, "extrinsics",
                        q_RS=[1, 0, 0, 0]))
    return Scenario(surface, trajectory, suite, schedule, sampling, pseudo,
                    extrinsics, init,
                    campaign_setting("filter", data.get("filter", "M-ESEKF")),
                    campaign_setting("trials", data.get("trials", 1)),
                    campaign_setting("seed", data.get("seed", 0)))
