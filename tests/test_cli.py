"""Command-line interface: output contract and exit codes."""
import csv
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import meskf
from meskf import FILTER_KINDS, flat_surface, save_surface
from meskf.cli import TRIALS_ARRAYS, _write_outputs, main
from meskf.sim.config import load_scenario
from meskf.sim.runner import run_campaign

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


def test_compare_outputs_script(scenario, tmp_path):
    # scripts/compare_outputs.py: same results apart from the measured
    # timings exit 0; any other array or file that differs exits 1
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "compare_outputs.py"
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--config", str(scenario),
                     "--out", str(out)]) == 0

    def compare():
        done = subprocess.run([sys.executable, str(script), str(a), str(b)],
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout

    with np.load(b / "trials.npz") as f:
        arrays = dict(f)
    arrays["timing_mean_us"] = arrays["timing_mean_us"] + 1.0
    np.savez(b / "trials.npz", **arrays)
    assert compare()[0] == 0
    errors = arrays["errors"]
    arrays["errors"] = errors.copy()
    arrays["errors"][1, 3, 1] = np.nextafter(errors[1, 3, 1], np.inf)
    np.savez(b / "trials.npz", **arrays)
    code, out = compare()
    assert code == 1
    d = abs(arrays["errors"][1, 3, 1] - errors[1, 3, 1])
    scale = np.abs(errors).max()
    assert out.splitlines() == [
        f"trials.npz[errors]: largest difference {d:.6g}, "
        f"{d / scale:.3g} of the largest magnitude"]
    arrays["errors"] = errors
    np.savez(b / "trials.npz", **arrays)
    (b / "summary.json").write_text(
        (a / "summary.json").read_text() + " ")
    assert compare() == (1, "summary.json: contents differ\n")


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


def test_unknown_filter_in_scenario_is_config_error(scenario, tmp_path,
                                                    capsys):
    assert _simulate_with(scenario, tmp_path, "filter", "UKF") == 2
    assert "config error: filter" in capsys.readouterr().err


@pytest.mark.parametrize("rate", [7.0, 15.0, 30.0, 40.0])
def test_pseudo_rate_must_divide_odometry_rate(scenario, tmp_path, capsys,
                                               rate):
    # at 20 Hz odometry, 15 and 30 Hz once ran at 20 Hz, 7 Hz at 6.67 Hz,
    # with no word; pseudo.rate is now refused whatever its value
    assert _simulate_with(scenario, tmp_path, "pseudo", {"rate": rate},
                          "--filter", "C-ESEKF") == 2
    err = capsys.readouterr().err
    assert "config error: pseudo" in err and "rate" in err


def test_pseudo_rate_is_config_error(scenario, tmp_path, capsys):
    # the pseudo-measurement follows every propagation step; a scenario
    # that still names its old rate is refused
    assert _simulate_with(scenario, tmp_path, "pseudo", {"rate": 20.0},
                          "--filter", "C-ESEKF") == 2
    err = capsys.readouterr().err
    assert "config error: pseudo" in err and "rate" in err


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


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None       # any scipy import now fails
from meskf import FILTER_KINDS
from meskf.cli import main
for kind in FILTER_KINDS:
    code = main(["simulate", "--config", sys.argv[1], "--filter", kind,
                 "--trials", "1", "--out", sys.argv[2] + "/" + kind])
    assert code == 0, (kind, code)
loaded = [m for m, v in sys.modules.items()
          if m.split(".")[0] == "scipy" and v is not None]
assert not loaded, loaded
"""


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test-only dependency: the CLI imports and runs every
    # filter with scipy blocked
    config = Path(__file__).resolve().parents[1] / "scenarios" / \
        "flat_selftest.json"
    src = str(Path(meskf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(config),
                           str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


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
    # no trials.npz at all
    assert main(["metrics", "--in", str(out),
                 "--out", str(tmp_path / "redo")]) == 2
    assert "trials.npz not found" in capsys.readouterr().err
    np.savez_compressed(out / "trials.npz", times=np.zeros(3))
    assert main(["metrics", "--in", str(out),
                 "--out", str(tmp_path / "redo")]) == 2
    err = capsys.readouterr().err
    assert "trials.npz" in err and "timing_trial" in err


def test_metrics_refuses_malformed_arrays(scenario, tmp_path, capsys):
    # errors cut to 10 steps no longer broadcast against times: the
    # file's fault, so a config error naming it
    out = tmp_path / "out"
    main(["simulate", "--config", str(scenario), "--out", str(out)])
    with np.load(out / "trials.npz", allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["errors"] = arrays["errors"][:, 0:10]
    np.savez_compressed(out / "trials.npz", **arrays)
    assert main(["metrics", "--in", str(out),
                 "--out", str(tmp_path / "redo")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "trials.npz" in err


def test_singular_covariance_is_excluded_in_scoring(tmp_path):
    # the reference scenario cut to 5 s: with a pose orientation std of
    # 1e-20 (a variance of 1e-40, a normal float) the M-ESEKF's covariance
    # becomes singular in floating point, which used to raise LinAlgError
    # in scoring (exit 1). Which trials it hits depends on the rounding
    # of the host's LAPACK, so only the exclusion is asserted (exit 3).
    ref = Path(__file__).resolve().parents[1] / "scenarios"
    cfg = json.loads((ref / "reference_curved.json").read_text())
    cfg["surface"] = str(ref / cfg["surface"])
    cfg["trajectory"]["duration"] = 5.0
    del cfg["schedule"]
    cfg.update(trials=2, filter="M-ESEKF")
    cfg["sensors"]["pose_orientation_std"] = 1e-20
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    summary = (out / "summary.json").read_text()
    assert json.loads(summary)["exclusion_rate"] > 0
    # meskf metrics recomputes the same exclusion from trials.npz, also
    # for covariances zeroed at one step, which are singular on any host
    redo = tmp_path / "redo"
    assert main(["metrics", "--in", str(out), "--out", str(redo)]) == 0
    assert (redo / "summary.json").read_text() == summary
    with np.load(out / "trials.npz", allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["covariances"][:, 5] = 0.0
    np.savez(out / "trials.npz", **arrays)
    assert main(["metrics", "--in", str(out), "--out", str(redo)]) == 0
    assert json.loads((redo / "summary.json").read_text())[
        "exclusion_rate"] == 1.0


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


def _simulate_with(scenario, tmp_path, key, value, *extra):
    cfg = json.loads(scenario.read_text())
    cfg[key] = value
    scenario.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(scenario), "--out", str(out),
                 *extra])
    assert not out.exists()
    return code


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


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_override_out_of_range_is_config_error(scenario, tmp_path,
                                                    capsys, seed):
    assert _simulate_with(scenario, tmp_path, "seed", 5,
                          "--seed", seed) == 2
    assert "--seed" in capsys.readouterr().err


def test_ramp_fraction_is_config_error(scenario, tmp_path, capsys):
    # the speed ramp is a constant, not a trajectory option
    traj = json.loads(scenario.read_text())["trajectory"]
    assert _simulate_with(scenario, tmp_path, "trajectory",
                          {**traj, "ramp_fraction": 0.3}) == 2
    assert "ramp_fraction" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")
_SEGMENT = {"start": 0.0, "end": 5.0, "sensors": ["range"]}

# (block, key, value, field named on stderr); a block of None sets the
# top-level key. Rule: an int field takes an integer, a float field an
# integer or a float, each finite and in range; booleans and strings
# are refused everywhere.
BAD_NUMBERS = [
    ("sensors", "pose_position_std", -0.1, "sensors.pose_position_std"),
    ("sensors", "range_distance_std", NAN, "sensors.range_distance_std"),
    ("sensors", "odometry_linear_std", INF, "sensors.odometry_linear_std"),
    ("init", "pos_std", 0, "init.pos_std"),
    ("init", "head_std", -0.02, "init.head_std"),
    ("init", "rp_std", INF, "init.rp_std"),
    ("pseudo", "rate", NAN, "pseudo"),
    ("pseudo", "sigma_z", NAN, "pseudo"),
    ("pseudo", "sigma_rp", INF, "pseudo"),
    ("pseudo", "rate", INF, "pseudo"),
    ("pseudo", "sigma_z", 0.0, "pseudo"),
    *[(None, "trials", v, "trials")
      for v in ("two", None, [3], INF, 2.5, True)],
    *[(None, "seed", v, "seed") for v in (10 ** 400, 1.5, True, "five", -1)],
    *[(None, "schedule", [{**_SEGMENT, key: v}], f"schedule[0].{key}")
      for key, v in (("start", "zero"), ("end", "five"), ("end", None),
                     ("start", NAN))],
    (None, "schedule", [5], "schedule[0]"),
    (None, "schedule", 5, "schedule"),
    *[(None, "schedule", [{**_SEGMENT, "sensors": v}], "schedule[0].sensors")
      for v in (5, "range", [["range"]])],
    *[(None, "extrinsics", v, "extrinsics") for v in (
        {"r_RS": [0.1, 0.0, 0.2], "q_RS": [0, 0, 0, 0]},
        {"r_RS": [0.1, 0.0, 0.2], "q_RS": [1, 0, 0, NAN]},
        {"r_RS": [INF, 0.0, 0.2]})],
    ("trajectory", "duration", NAN, "trajectory.duration"),
    ("trajectory", "dt", NAN, "trajectory.dt"),
    ("trajectory", "speed", NAN, "trajectory.speed"),
    ("trajectory", "speed", INF, "trajectory.speed"),
    ("trajectory", "speed", "1", "trajectory.speed"),
    ("trajectory", "path", "circle", "trajectory.path"),
    ("trajectory", "path", {"type": "circle", "radius": 2.0},
     "trajectory.path.center"),
    ("trajectory", "path", {"type": "circle", "center": [0, 0],
                            "radius": -2.0}, "trajectory.path.radius"),
    ("trajectory", "path", {"type": "waypoints",
                            "points": [[4, 0], [NAN, 4], [-4, 0]]},
     "trajectory.path.points"),
    *[("trajectory", "path", {"type": "waypoints", "points": v},
       "trajectory.path.points") for v in (
        [[4, 0], [0, 4], [0, 4], [-4, 0]], [[0, 0], [0, 0]])],
    # leaves the chart [-10, 10]^2
    ("trajectory", "path", {"type": "circle", "center": [0, 0],
                            "radius": 50.0}, "trajectory.path"),
    ("sampling", "grid_half_width", NAN, "sampling.grid_half_width"),
    ("sampling", "shell_tolerance", NAN, "sampling.shell_tolerance"),
    ("sampling", "grid_resolution", 21.0, "sampling.grid_resolution"),
    ("sensors", "pose_rate", True, "sensors.pose_rate"),
    ("sensors", "pose_rate", "5", "sensors.pose_rate"),
    # 3 Hz does not divide the 20 Hz odometry rate
    ("sensors", "pose_rate", 3.0, "sensors.pose_rate"),
    # the odometry rate is 1/dt of the trajectory, 20 Hz
    ("sensors", "odometry_rate", 10.0, "sensors.odometry_rate"),
    (None, "schedule", [], "schedule"),
    (None, "schedule", [{**_SEGMENT, "end": 0.0}], "schedule[0]"),
    (None, "schedule", [{**_SEGMENT, "sensors": ["lidar"]}], "schedule[0]"),
    ("trajectory", "path", {"type": "circle", "center": [0, 0, 0],
                            "radius": 2.0}, "trajectory.path.center"),
    ("trajectory", "path", {"type": "waypoints", "points": [[0, 0]]},
     "trajectory.path.points"),
    ("trajectory", "path", {"type": "spiral"}, "trajectory.path.type"),
    (None, "surface", 5, "surface"),
    ("surface", "control_points", [0.0] * 7, "surface"),
    ("surface", "control_points", [[0.0] * 6] * 7, "surface"),
    ("extrinsics", "r_RS", "abc", "extrinsics.r_RS"),
    ("surface", "degree_u", 3.7, "surface.degree_u"),
    (None, "trials", "2", "trials"),
    # a duration is a whole number of dt = 0.05 s steps, at least one
    *[("trajectory", "duration", v, "trajectory.duration")
      for v in (1.03, 20.02, 0.01)],
    # a measurement's noise covariance must be invertible: its variance
    # a positive normal float (1e-170 squares to 0, 1e200 to inf)
    *[("sensors", key, v, f"sensors.{key}") for key in (
        "pose_position_std", "pose_orientation_std", "range_distance_std")
      for v in (0.0, 1e-170, 1e200)],
]


@pytest.mark.parametrize("block, key, value, field", BAD_NUMBERS, ids=[
    f"{b + '.' if b else ''}{k}={v!r:.60}" for b, k, v, _ in BAD_NUMBERS])
def test_bad_scenario_number_is_config_error(scenario, tmp_path, capsys,
                                             block, key, value, field):
    cfg = json.loads(scenario.read_text())
    if block is not None:
        # a surface given as a file name is inlined
        given = cfg.get(block, {})
        if isinstance(given, str):
            given = json.loads((scenario.parent / given).read_text())
        key, value = block, {**given, key: value}
    assert _simulate_with(scenario, tmp_path, key, value) == 2
    assert f"config error: {field}" in capsys.readouterr().err


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


def divergence_scenario(tmp_path, pos_std):
    """Dead-reckoning near the edge of a 5 m chart, no sensors, with the
    start drawn ``pos_std`` m off the truth."""
    surf = tmp_path / "surf.json"
    save_surface(flat_surface(extent=5.0), surf)
    cfg = {
        "surface": "surf.json",
        "trajectory": {"path": {"type": "circle", "center": [0, 0],
                                "radius": 4.5},
                       "speed": 1.0, "duration": 20.0, "dt": 0.05},
        "schedule": [{"start": 0.0, "end": 20.0, "sensors": []}],
        "init": {"pos_std": pos_std},
        "trials": 4,
        "seed": 1,
    }
    path = tmp_path / "div.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("kind", FILTER_KINDS)
def test_exit_code_divergence(tmp_path, kind):
    # dead-reckoning near the chart boundary with a large seeded initial
    # offset walks out of the domain: the trial is flagged diverged
    path = divergence_scenario(tmp_path, 2.0)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--filter", kind,
                 "--out", str(out)]) == 3
    # strict JSON: an undefined value is null, never a bare NaN
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_refuse_constant)
    assert summary["exclusion_rate"] > 0


@pytest.mark.parametrize("kind", FILTER_KINDS)
def test_start_off_the_chart_is_divergence(tmp_path, kind):
    # a start drawn up to tens of metres off the chart ends its trial as
    # diverged (at step 0 for the C-ESEKF, whose scoring reads the
    # surface under the start), never in a traceback
    path = divergence_scenario(tmp_path, 20.0)
    assert main(["simulate", "--config", str(path), "--filter", kind,
                 "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("diverging", [False, True],
                         ids=["tracking", "all_diverge"])
def test_trials_npz_is_what_savez_writes(scenario, tmp_path, diverging):
    # trials.npz holds, member for member, the bytes that np.savez writes
    # for the same eight arrays, so np.load(allow_pickle=False) reads each
    # back bitwise with its dtype and shape; also when every trial
    # diverged and the timing table has no row
    sc = load_scenario(divergence_scenario(tmp_path, 20.0) if diverging
                       else scenario)
    metrics, errors, covs, diverged = run_campaign(sc)
    rows = metrics.timing_rows
    assert diverged.all() == diverging and (len(rows) == 0) == diverging
    arrays = {"times": metrics.times, "errors": errors, "covariances": covs,
              "diverged": diverged,
              "timing_trial": np.array([r[0] for r in rows], dtype=int),
              "timing_kind": np.array([r[1] for r in rows], dtype=str),
              "timing_mean_us": np.array([r[2] for r in rows]),
              "timing_p99_us": np.array([r[3] for r in rows])}
    np.savez(tmp_path / "savez.npz", **arrays)
    _write_outputs(tmp_path / "out", metrics, errors, covs, diverged)
    with zipfile.ZipFile(tmp_path / "savez.npz") as ref, \
            zipfile.ZipFile(tmp_path / "out" / "trials.npz") as got:
        assert got.namelist() == ref.namelist() == [
            f"{name}.npy" for name in TRIALS_ARRAYS]
        for info in got.infolist():
            assert info.compress_type == zipfile.ZIP_STORED
            assert got.read(info) == ref.read(info.filename), info.filename
    with np.load(tmp_path / "out" / "trials.npz", allow_pickle=False) as f:
        for name, value in arrays.items():
            assert f[name].dtype == value.dtype
            assert f[name].shape == value.shape
            assert f[name].tobytes() == value.tobytes(), name


def _refuse_constant(name):
    raise ValueError(f"summary.json holds {name}, which is not JSON")
