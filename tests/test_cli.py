"""Command-line interface: output contract and exit codes."""
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meskf import flat_surface, save_surface
from meskf.cli import main

METRICS_HEADER = ["step", "time_s", "rmse_pos_m", "rmse_head_rad",
                  "anees", "anees_lo", "anees_hi"]
TIMINGS_HEADER = ["trial", "correction_type", "mean_us", "p99_us"]


@pytest.fixture()
def scenario(tmp_path):
    surf = tmp_path / "surf.json"
    save_surface(flat_surface(extent=10.0), surf)
    cfg = {
        "surface": "surf.json",
        "trajectory": {"path": {"type": "circle", "center": [0, 0],
                                "radius": 4.0},
                       "speed": 1.0, "duration": 5.0, "dt": 0.05},
        "sensors": {"anchors": [[8.0, 0.0, 0.0]]},
        "filter": "M-ESEKF",
        "trials": 3,
        "seed": 5,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        return header, list(reader)


def test_simulate_outputs_and_headers(scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(scenario),
                 "--out", str(out)]) == 0
    header, rows = read_rows(out / "metrics.csv")
    assert header == METRICS_HEADER
    assert len(rows) == 101          # K+1 steps for 5 s at 20 Hz
    assert rows[0][0] == "0"
    assert float(rows[0][1]) == 0.0
    theader, trows = read_rows(out / "timings.csv")
    assert theader == TIMINGS_HEADER
    assert {r[1] for r in trows} == {"pose", "range"}
    assert {int(r[0]) for r in trows} == {0, 1, 2}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_trials"] == 3
    assert (out / "trials.npz").exists()


def test_simulate_deterministic(scenario, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(scenario), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(scenario), "--out", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == \
        (b / "summary.json").read_bytes()


def test_metrics_recompute_idempotent(scenario, tmp_path, capsys):
    out = tmp_path / "out"
    main(["simulate", "--config", str(scenario), "--out", str(out)])
    # the printed mean ANEES is the one summary.json records
    summary = json.loads((out / "summary.json").read_text())
    assert f"mean ANEES {summary['mean_anees']:.3f}," in \
        capsys.readouterr().out
    names = ("metrics.csv", "timings.csv", "summary.json")
    before = {n: (out / n).read_bytes() for n in names}
    redo = tmp_path / "redo"
    assert main(["metrics", "--in", str(out), "--out", str(redo)]) == 0
    for n in names:
        assert (redo / n).read_bytes() == before[n]
    assert sorted(p.name for p in redo.iterdir()) == sorted(names)


def test_filter_and_trials_overrides(scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(scenario), "--filter", "C-ESEKF",
                 "--trials", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_trials"] == 2
    _, trows = read_rows(out / "timings.csv")
    assert "pseudo" in {r[1] for r in trows}


def test_unknown_filter_override_is_config_error(scenario, tmp_path,
                                                 capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(scenario), "--filter", "UKF",
                 "--out", str(out)]) == 2
    assert "--filter" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_trials_override_below_one_is_config_error(scenario, tmp_path,
                                                   capsys, trials):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(scenario), "--trials", trials,
                 "--out", str(out)]) == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_reference_campaign_script_refuses_zero_trials(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "run_reference_campaign.py"
    out = tmp_path / "out"
    # refused before any trial runs; the timeout stops a full campaign
    proc = subprocess.run([sys.executable, str(script), "--trials", "0",
                           "--out", str(out)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert "--trials" in proc.stderr
    assert not out.exists()


def test_metrics_refuses_pickled_arrays(scenario, tmp_path, capsys):
    out = tmp_path / "out"
    main(["simulate", "--config", str(scenario), "--out", str(out)])
    with np.load(out / "trials.npz", allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    # an object array is stored as a pickle; loading it would run
    # whatever the pickle's reducer names, so it must never be loaded
    arrays["timing_kind"] = np.array([_Unpickled()], dtype=object)
    np.savez_compressed(out / "trials.npz", **arrays)
    _Unpickled.loaded = False
    assert main(["metrics", "--in", str(out),
                 "--out", str(tmp_path / "redo")]) == 2
    assert not _Unpickled.loaded
    assert "trials.npz" in capsys.readouterr().err


def test_metrics_names_missing_array(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    np.savez_compressed(out / "trials.npz", times=np.zeros(3))
    assert main(["metrics", "--in", str(out),
                 "--out", str(tmp_path / "redo")]) == 2
    err = capsys.readouterr().err
    assert "trials.npz" in err and "timing_trial" in err


class _Unpickled:
    loaded = False

    def __reduce__(self):
        return (_mark_loaded, ())


def _mark_loaded():
    _Unpickled.loaded = True
    return "pose"


def test_surface_info(scenario, capsys):
    assert main(["surface-info", "--config", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert "domain" in out and "elevation range" in out


def test_exit_code_usage_error():
    assert main(["no-such-command"]) != 0
    assert main([]) != 0


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"surface\": \"missing.json\"}")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert main(["simulate", "--config", str(notjson),
                 "--out", str(tmp_path / "o2")]) == 2


@pytest.mark.parametrize("extrinsics", [
    {"r_RS": [0.1, 0.0, 0.2], "q_RS": [0, 0, 0, 0]},
    {"r_RS": [0.1, 0.0, 0.2], "q_RS": [1, 0, 0, float("nan")]},
    {"r_RS": [float("inf"), 0.0, 0.2]},
])
def test_bad_extrinsics_is_config_error(scenario, tmp_path, extrinsics,
                                        capsys):
    cfg = json.loads(scenario.read_text())
    cfg["extrinsics"] = extrinsics
    scenario.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(scenario),
                 "--out", str(out)]) == 2
    assert "extrinsics" in capsys.readouterr().err
    assert not out.exists()


def _simulate_with(scenario, tmp_path, key, value, *extra):
    cfg = json.loads(scenario.read_text())
    cfg[key] = value
    scenario.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(scenario), "--out", str(out),
                 *extra])
    assert not out.exists()
    return code


@pytest.mark.parametrize("name, value", [
    ("pose_position_std", -0.1),
    ("range_distance_std", float("nan")),
    ("odometry_linear_std", float("inf")),
])
def test_bad_sensor_noise_is_config_error(scenario, tmp_path, capsys, name,
                                          value):
    # a negative std used to end in "ValueError: scale < 0"
    sensors = {"anchors": [[8.0, 0.0, 0.0]], name: value}
    assert _simulate_with(scenario, tmp_path, "sensors", sensors) == 2
    assert f"sensors.{name}" in capsys.readouterr().err


@pytest.mark.parametrize("anchors", [
    [[8.0, 0.0]],
    [[8.0, 0.0, float("nan")]],
    [[8.0, 0.0, 0.0], [1.0, 2.0]],
    [[[8.0, 0.0, 0.0]]],
])
def test_bad_anchors_is_config_error(scenario, tmp_path, capsys, anchors):
    # anchors of the wrong shape used to end in a broadcasting traceback
    assert _simulate_with(scenario, tmp_path, "sensors",
                          {"anchors": anchors}) == 2
    assert "sensors" in capsys.readouterr().err


def test_negative_seed_in_scenario_is_config_error(scenario, tmp_path,
                                                   capsys):
    # used to end in an OverflowError from np.uint64
    assert _simulate_with(scenario, tmp_path, "seed", -1) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_override_out_of_range_is_config_error(scenario, tmp_path,
                                                    capsys, seed):
    assert _simulate_with(scenario, tmp_path, "seed", 5,
                          "--seed", seed) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("init", [{"pos_std": 0}, {"head_std": -0.02},
                                  {"rp_std": float("inf")}])
def test_bad_initial_uncertainty_is_config_error(scenario, tmp_path, capsys,
                                                 init):
    # a zero std made P0 singular, and the metrics raised LinAlgError
    assert _simulate_with(scenario, tmp_path, "init", init) == 2
    assert f"init.{next(iter(init))}" in capsys.readouterr().err


def _all_zero(data):
    data["knots_u"] = [0.0] * len(data["knots_u"])


def _nan_knot(data):
    data["knots_v"][5] = float("nan")


def _nan_control(data):
    data["control_points"][1][2] = float("nan")


def _inf_control(data):
    data["control_points"][2][1] = float("inf")


@pytest.mark.parametrize("spoil", [_all_zero, _nan_knot, _nan_control,
                                   _inf_control])
def test_bad_surface_is_config_error(scenario, tmp_path, spoil, capsys):
    # all-zero knots used to end in a bare ZeroDivisionError, and a NaN
    # control point in NaN everywhere without an error
    surf = tmp_path / "surf.json"
    data = json.loads(surf.read_text())
    spoil(data)
    surf.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(scenario),
                 "--out", str(out)]) == 2
    assert "surface" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["M-ESEKF", "MP-ESEKF", "C-ESEKF"])
def test_exit_code_divergence(tmp_path, kind):
    # dead-reckoning near the chart boundary with a large seeded initial
    # offset walks out of the domain: the trial is flagged diverged
    surf = tmp_path / "surf.json"
    save_surface(flat_surface(extent=5.0), surf)
    cfg = {
        "surface": "surf.json",
        "trajectory": {"path": {"type": "circle", "center": [0, 0],
                                "radius": 4.5},
                       "speed": 1.0, "duration": 20.0, "dt": 0.05},
        "schedule": [{"start": 0.0, "end": 20.0, "sensors": []}],
        "init": {"pos_std": 2.0},
        "trials": 4,
        "seed": 1,
    }
    path = tmp_path / "div.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--filter", kind,
                 "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exclusion_rate"] > 0
