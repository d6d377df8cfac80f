"""Scenario configuration parsing and validation."""
import numpy as np
import pytest

from meskf import ConfigError
from meskf.errors import build, finite_array, number
from meskf.sim import SensorSuite
from meskf.sim.config import scenario_from_dict


def minimal(**over):
    cfg = {
        "surface": {
            "degree_u": 1, "degree_v": 1,
            "knots_u": [-5.0, -5.0, 5.0, 5.0],
            "knots_v": [-5.0, -5.0, 5.0, 5.0],
            "control_points": [[0.0, 0.0], [0.0, 0.0]],
        },
        "trajectory": {"path": {"type": "circle", "center": [0, 0],
                                "radius": 2.0},
                       "speed": 0.5, "duration": 4.0, "dt": 0.05},
    }
    cfg.update(over)
    return cfg


def test_minimal_scenario_defaults():
    s = scenario_from_dict(minimal())
    assert s.filter_kind == "M-ESEKF"
    assert s.n_trials == 1
    assert s.seed == 0
    assert s.schedule.segments[0].start == 0.0


def test_missing_surface_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict({"trajectory": {}})


def test_bad_filter_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(filter="UKF"))


def test_bad_schedule_rejected():
    cfg = minimal(schedule=[{"start": 0.0, "end": 2.0, "sensors": ["pose"]}])
    with pytest.raises(ConfigError):
        scenario_from_dict(cfg)   # does not cover the duration


def test_bad_trials_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(trials=0))


def test_extrinsics_parsed():
    cfg = minimal(extrinsics={"r_RS": [0.1, 0.0, 0.2]})
    s = scenario_from_dict(cfg)
    np.testing.assert_allclose(s.extrinsics.r_RS, [0.1, 0.0, 0.2])
    np.testing.assert_allclose(s.extrinsics.q_RS, [1, 0, 0, 0])


def test_unknown_sampling_key_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal(sampling={"grid_size": 5}))


@pytest.mark.parametrize("kind, value, bounds", [
    (float, True, {}), (float, "5", {}), (float, None, {}),
    (float, float("nan"), {}), (float, float("inf"), {}),
    (float, 10 ** 400, {}), (int, 21.0, {}), (int, 2.5, {}),
    (int, np.bool_(True), {}), (int, "2", {}), (float, 0.0, {"gt": 0}),
    (float, -1e-300, {"ge": 0}), (int, 2 ** 64, {"ge": 0, "lt": 2 ** 64}),
])
def test_number_refuses(kind, value, bounds):
    with pytest.raises(ConfigError) as e:
        number(kind, value, "block.key", **bounds)
    assert e.value.field == "block.key"
    assert isinstance(e.value, ValueError)


def test_number_accepts():
    for kind, value, bounds, want in [
            (float, 5, {"gt": 0}, 5.0), (float, np.float32(0.5), {}, 0.5),
            (float, 0, {"ge": 0}, 0.0), (int, np.int64(21), {"ge": 3}, 21),
            (int, 2 ** 64 - 1, {"ge": 0, "lt": 2 ** 64}, 2 ** 64 - 1)]:
        got = number(kind, value, "block.key", **bounds)
        assert got == want and type(got) is kind


@pytest.mark.parametrize("value", ["abc", [1.0, "2"], [True, 0.0],
                                   [[1.0, 2.0], [3.0]], [0.0, np.nan], None])
def test_finite_array_refuses(value):
    with pytest.raises(ConfigError) as e:
        finite_array(value, "block.key")
    assert e.value.field == "block.key"


def test_build_passes_field_errors_through():
    with pytest.raises(ConfigError) as e:
        build(SensorSuite, {"pose_rate": -1.0}, "sensors")
    assert e.value.field == "sensors.pose_rate"
    with pytest.raises(ConfigError) as e:     # an unknown key
        build(SensorSuite, {"rate": 1.0}, "sensors")
    assert e.value.field == "sensors"
