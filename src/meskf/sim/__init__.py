from .config import Scenario, load_scenario, scenario_from_dict
from .runner import (TrialMetrics, TrialOutcome, anees_bounds, run_campaign,
                     run_trial)
from .sensors import (MeasurementStreams, NoiseFreeMeasurements,
                      ScheduleSegment, SensorSchedule, SensorSuite,
                      noise_free_measurements, synthesize_measurements)
from .trajectory import GroundTruth, TrajectorySpec, generate_ground_truth

__all__ = [
    "GroundTruth", "MeasurementStreams", "NoiseFreeMeasurements", "Scenario",
    "ScheduleSegment", "SensorSchedule", "SensorSuite", "TrajectorySpec",
    "TrialMetrics", "TrialOutcome", "anees_bounds", "generate_ground_truth",
    "load_scenario", "noise_free_measurements", "run_campaign", "run_trial",
    "scenario_from_dict", "synthesize_measurements",
]
