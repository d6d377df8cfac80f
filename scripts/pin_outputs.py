#!/usr/bin/env python3
"""Write the small campaign's outputs that tier-1 pins.

    python3 scripts/pin_outputs.py [--out tests/pinned_outputs.npz]

Runs every filter on ``scenarios/reference_curved.json`` and on
``bench/lever_curved.json`` (read, not edited) with ``TRIALS`` trials
of the scenario's own 60 s and seed, and stores every ``STRIDE``-th
step's errors and covariances, the final step included, and each
trial's divergence flag: about 70 KB. ``tests/test_pinned_outputs.py``
recomputes the same arrays with ``pinned_outputs`` and compares them
with the file.

A change that moves outputs on purpose regenerates the file with this
script and says so, with ``scripts/compare_outputs.py``'s verdict.
"""
import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from meskf import FILTER_KINDS  # noqa: E402
from meskf.sim import load_scenario, run_campaign  # noqa: E402

SCENARIOS = ("scenarios/reference_curved.json", "bench/lever_curved.json")
TRIALS, STRIDE = 2, 20
DEFAULT_OUT = ROOT / "tests" / "pinned_outputs.npz"


def pinned_outputs() -> dict:
    """The pinned arrays, keyed ``<scenario>.<filter>.<array>``:
    ``errors`` (TRIALS, K, 3), ``covs`` (TRIALS, K, 3, 3) over every
    ``STRIDE``-th step, and ``diverged`` (TRIALS,)."""
    out = {}
    for path in SCENARIOS:
        base = load_scenario(ROOT / path)
        for kind in FILTER_KINDS:
            scenario = dataclasses.replace(base, filter_kind=kind,
                                           n_trials=TRIALS)
            _, errors, covs, diverged = run_campaign(scenario)
            key = f"{Path(path).stem}.{kind}"
            out[f"{key}.errors"] = errors[:, ::STRIDE].copy()
            out[f"{key}.covs"] = covs[:, ::STRIDE].copy()
            out[f"{key}.diverged"] = diverged
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    arrays = pinned_outputs()
    np.savez(args.out, **arrays)
    print(f"wrote {len(arrays)} arrays to {args.out} "
          f"({args.out.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
