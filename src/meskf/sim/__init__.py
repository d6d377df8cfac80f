from .config import Scenario, load_scenario, scenario_from_dict
from .runner import (FILTER_KINDS, InitialUncertainty, TrialMetrics,
                     TrialResult, anees_bounds, run_campaign, run_trial)
from .sensors import (MeasurementStreams, ScheduleSegment, SensorSchedule,
                      SensorSuite, synthesize_measurements)
from .trajectory import GroundTruth, TrajectorySpec, generate_ground_truth

__all__ = [
    "FILTER_KINDS", "GroundTruth", "InitialUncertainty",
    "MeasurementStreams", "Scenario", "ScheduleSegment", "SensorSchedule",
    "SensorSuite", "TrajectorySpec", "TrialMetrics", "TrialResult",
    "anees_bounds", "generate_ground_truth", "load_scenario",
    "run_campaign", "run_trial", "scenario_from_dict",
    "synthesize_measurements",
]
