"""Command-line entry points: simulate, metrics, surface-info.

Exit codes: 0 success, 1 usage error, 2 configuration error,
3 divergence threshold exceeded during simulation.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .sim.config import campaign_setting, load_scenario
from .sim.runner import metrics_from_arrays, run_campaign

METRICS_HEADER = "step,time_s,rmse_pos_m,rmse_head_rad,anees,anees_lo,anees_hi"
TIMINGS_HEADER = "trial,correction_type,mean_us,p99_us"
TRIALS_ARRAYS = ("times", "errors", "covariances", "diverged",
                 "timing_trial", "timing_kind", "timing_mean_us",
                 "timing_p99_us")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x) -> str:
    return format(float(x), ".12g")


def write_metrics_csv(path, metrics):
    lo, hi = metrics.anees_bounds
    lines = [METRICS_HEADER]
    for k in range(len(metrics.times)):
        lines.append(",".join([
            str(k), _fmt(metrics.times[k]), _fmt(metrics.rmse_pos[k]),
            _fmt(metrics.rmse_head[k]), _fmt(metrics.anees[k]),
            _fmt(lo), _fmt(hi)]))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_timings_csv(path, metrics):
    lines = [TIMINGS_HEADER]
    for trial, kind, mean_us, p99_us in metrics.timing_rows:
        lines.append(f"{trial},{kind},{_fmt(mean_us)},{_fmt(p99_us)}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _defined(x):
    """float(x), or None (JSON null) where x is not finite, as when
    every trial diverged."""
    x = float(x)
    return x if math.isfinite(x) else None


def summary_dict(metrics):
    lo, hi = metrics.anees_bounds
    anees = metrics.anees[np.isfinite(metrics.anees)]
    violations = (np.sum((anees < lo) | (anees > hi)) / len(anees)
                  if len(anees) else math.nan)
    return {
        "final_rmse_pos_m": _defined(metrics.rmse_pos[-1]),
        "final_rmse_head_rad": _defined(metrics.rmse_head[-1]),
        "mean_anees": float(np.mean(anees)) if len(anees) else None,
        "anees_bounds": [float(lo), float(hi)],
        "bound_violation_fraction": _defined(violations),
        "exclusion_rate": float(metrics.exclusion_rate),
        "n_trials": metrics.n_trials,
    }


def write_summary_json(path, metrics):
    Path(path).write_text(json.dumps(summary_dict(metrics), indent=2,
                                     sort_keys=True, allow_nan=False) + "\n")


def _write_outputs(out_dir, metrics, errors=None, covs=None, diverged=None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_dir / "metrics.csv", metrics)
    write_timings_csv(out_dir / "timings.csv", metrics)
    write_summary_json(out_dir / "summary.json", metrics)
    if errors is not None:
        rows = metrics.timing_rows
        np.savez(
            out_dir / "trials.npz",
            times=metrics.times, errors=errors, covariances=covs,
            diverged=diverged,
            timing_trial=np.array([r[0] for r in rows], dtype=int),
            timing_kind=np.array([r[1] for r in rows], dtype=str),
            timing_mean_us=np.array([r[2] for r in rows]),
            timing_p99_us=np.array([r[3] for r in rows]))


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    for name, attr in (("filter", "filter_kind"), ("trials", "n_trials"),
                       ("seed", "seed")):
        value = getattr(args, name)
        if value is not None:
            setattr(scenario, attr,
                    campaign_setting(name, value, f"--{name}"))

    metrics, errors, covs, diverged = run_campaign(scenario)
    _write_outputs(args.out, metrics, errors, covs, diverged)
    mean_anees = summary_dict(metrics)["mean_anees"]
    if mean_anees is None:
        mean_anees = float("nan")
    print(f"{scenario.filter_kind}: {scenario.n_trials} trials, "
          f"final RMSE {metrics.rmse_pos[-1]:.4f} m / "
          f"{metrics.rmse_head[-1]:.4f} rad, "
          f"mean ANEES {mean_anees:.3f}, "
          f"excluded {metrics.n_excluded}")
    return 3 if metrics.n_excluded > 0 else 0


def cmd_metrics(args) -> int:
    in_dir = Path(args.in_dir)
    npz_path = in_dir / "trials.npz"
    if not npz_path.exists():
        raise ConfigError("trials.npz not found", field=str(npz_path))
    try:    # no pickles: unpickling an object array can run any code
        with np.load(npz_path, allow_pickle=False) as f:
            data = dict(f)
    except ValueError as e:
        raise ConfigError(str(e), field=str(npz_path)) from e
    missing = [k for k in TRIALS_ARRAYS if k not in data]
    if missing:
        raise ConfigError(f"missing arrays {', '.join(missing)}",
                          field=str(npz_path))
    n_trials, n_steps, n_rows = (
        data[name].size for name in ("diverged", "times", "timing_trial"))
    expected = {"times": (n_steps,), "errors": (n_trials, n_steps, 3),
                "covariances": (n_trials, n_steps, 3, 3),
                "diverged": (n_trials,),
                **{name: (n_rows,) for name in TRIALS_ARRAYS[4:]}}
    wrong = [f"{name} {data[name].shape} not {shape}"
             for name, shape in expected.items() if data[name].shape != shape]
    if wrong:
        raise ConfigError(f"array shapes disagree: {', '.join(wrong)}",
                          field=str(npz_path))
    timing_rows = list(zip(
        (int(t) for t in data["timing_trial"]),
        (str(k) for k in data["timing_kind"]),
        data["timing_mean_us"], data["timing_p99_us"]))
    metrics = metrics_from_arrays(
        data["times"], data["errors"], data["covariances"],
        data["diverged"], timing_rows)
    out_dir = Path(args.out) if args.out else in_dir
    _write_outputs(out_dir, metrics)
    print(f"recomputed metrics for {metrics.n_trials} trials -> {out_dir}")
    return 0


def cmd_surface_info(args) -> int:
    scenario = load_scenario(args.config)
    surface = scenario.surface
    (u0, u1), (v0, v1) = surface.domain
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [0, 1], dtype=np.uint64)))
    pts = np.column_stack([rng.uniform(u0, u1, 2000),
                           rng.uniform(v0, v1, 2000)])
    grads = surface.gradient_many(pts)
    slopes = np.linalg.norm(grads, axis=1)
    frames = surface.tangent_frame_many(pts)
    ortho = np.max(np.abs(
        np.einsum("nij,nik->njk", frames, frames) - np.eye(3)))
    z = surface.elevation_many(pts)
    print(f"domain: u in [{u0}, {u1}], v in [{v0}, {v1}]")
    print(f"elevation range: [{z.min():.4f}, {z.max():.4f}] m")
    print(f"slope |grad S| range: [{slopes.min():.4f}, {slopes.max():.4f}]")
    print(f"tangent frame max |R^T R - I|: {ortho:.3e}")
    print(f"degrees: ({surface.degree_u}, {surface.degree_v}), control grid: "
          f"{surface.control_points.shape}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="meskf",
                     description="Surface-bound vehicle localization "
                                 "simulation and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte-Carlo campaign")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument("--filter", help="override filter kind "
                                      "(M-ESEKF, MP-ESEKF, C-ESEKF)")
    sim.add_argument("--trials", type=int, help="override trial count")
    sim.add_argument("--seed", type=int, help="override RNG seed")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    met = sub.add_parser("metrics", help="recompute aggregates from raw "
                                         "trial output")
    met.add_argument("--in", dest="in_dir", required=True,
                     help="directory containing trials.npz")
    met.add_argument("--out", help="output directory (default: input dir)")
    met.set_defaults(func=cmd_metrics)

    info = sub.add_parser("surface-info", help="inspect a scenario surface")
    info.add_argument("--config", required=True, help="scenario JSON file")
    info.set_defaults(func=cmd_surface_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 1
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
