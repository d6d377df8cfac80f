#!/usr/bin/env python3
"""Run the bundled Monte-Carlo evaluation campaign and print a summary.

Runs all three filters (M-ESEKF, MP-ESEKF, C-ESEKF) on the curved
reference scenario plus the flat-surface calibration self-test, writes
the usual CLI outputs (metrics.csv, timings.csv, summary.json,
trials.npz) into one subdirectory per run, and prints a comparison
table: steady-state RMSE per schedule phase, mean ANEES, the fraction
of steps inside the 99% chi-square bounds, and mean correction times.

Example:
    python scripts/run_reference_campaign.py --out results/ --trials 100
"""
import argparse
import csv
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from meskf import FILTER_KINDS  # noqa: E402
from meskf.cli import main as cli_main  # noqa: E402

PHASES = ((10.0, 20.0), (30.0, 40.0), (50.0, 60.0))


def load_metrics(out_dir: Path):
    with open(out_dir / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    cols = {k: np.array([float(r[k]) for r in rows])
            for k in ("time_s", "rmse_pos_m", "rmse_head_rad",
                      "anees", "anees_lo", "anees_hi")}
    with open(out_dir / "timings.csv", newline="") as f:
        trows = list(csv.DictReader(f))
    timings = {}
    for r in trows:
        timings.setdefault(r["correction_type"], []).append(
            float(r["mean_us"]))
    return cols, {k: float(np.mean(v)) for k, v in timings.items()}


def phase_max(cols, key, a, b):
    w = (cols["time_s"] >= a) & (cols["time_s"] <= b)
    return float(np.max(cols[key][w]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--trials", type=int, default=None,
                    help="override trial count (default: scenario value)")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    out_root = Path(args.out)

    runs = [(k, ROOT / "scenarios" / "reference_curved.json")
            for k in FILTER_KINDS]
    runs.append(("flat-selftest", ROOT / "scenarios" / "flat_selftest.json"))

    for name, scenario in runs:
        out = out_root / name
        argv = ["simulate", "--config", str(scenario), "--out", str(out)]
        if name in FILTER_KINDS:
            argv += ["--filter", name]
        if args.trials is not None:
            argv += ["--trials", str(args.trials)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        code = cli_main(argv)
        if code not in (0, 3):
            sys.exit(code)

    print("\n== curved reference scenario (steady-state windows "
          "10-20 / 30-40 / 50-60 s) ==")
    header = (f"{'filter':<10} {'pos RMSE max [m]':<24} "
              f"{'head RMSE max [rad]':<26} {'mean ANEES':>10} "
              f"{'in bounds':>10}")
    print(header)
    for name in FILTER_KINDS:
        cols, timings = load_metrics(out_root / name)
        pos = "/".join(f"{phase_max(cols, 'rmse_pos_m', a, b):.4f}"
                       for a, b in PHASES)
        head = "/".join(f"{phase_max(cols, 'rmse_head_rad', a, b):.4f}"
                        for a, b in PHASES)
        inb = np.mean((cols["anees"] >= cols["anees_lo"])
                      & (cols["anees"] <= cols["anees_hi"]))
        print(f"{name:<10} {pos:<24} {head:<26} "
              f"{np.mean(cols['anees']):>10.3f} {100 * inb:>9.1f}%")
        t = ", ".join(f"{k} {v:.0f} us" for k, v in sorted(timings.items()))
        print(f"{'':<10} mean correction times: {t}")

    cols, _ = load_metrics(out_root / "flat-selftest")
    inb = np.mean((cols["anees"] >= cols["anees_lo"])
                  & (cols["anees"] <= cols["anees_hi"]))
    print(f"\n== flat self-test == ANEES in bounds {100 * inb:.1f}% of "
          f"steps, mean {np.mean(cols['anees']):.3f}")


if __name__ == "__main__":
    main()
