#!/usr/bin/env python3
"""Check that two ``meskf simulate`` output directories hold the same run.

    python3 scripts/compare_outputs.py DIR_A DIR_B

Every array of ``trials.npz`` except the measured timings
(``timing_mean_us``, ``timing_p99_us``) must be bitwise equal, and
``metrics.csv`` and ``summary.json`` byte-equal. Exits 0 when they are.
Otherwise prints one line per array or file that differs, with the
largest difference for a numeric array, absolute and relative to the
largest magnitude in either array, and exits 1.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

MEASURED = ("timing_mean_us", "timing_p99_us")
BYTE_EQUAL = ("metrics.csv", "summary.json")


def _load(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as f:
        return {k: f[k] for k in f.files if k not in MEASURED}


def _difference(a: np.ndarray, b: np.ndarray):
    """None when a and b are bitwise equal, else what differs."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"{a.dtype}{list(a.shape)} against {b.dtype}{list(b.shape)}"
    if a.tobytes() == b.tobytes():
        return None
    if a.dtype.kind in "biuf":
        a, b = a.astype(float), b.astype(float)
        # fmax skips the NaN of a NaN on either side
        d = np.fmax.reduce(np.abs(a - b), axis=None)
        scale = np.fmax.reduce(np.fmax(np.abs(a), np.abs(b)), axis=None)
        # scale is 0 only when every entry is a zero, so d is 0 too
        rel = d / scale if scale else 0.0
        return (f"largest difference {d:.6g}, "
                f"{rel:.3g} of the largest magnitude")
    return f"{int(np.sum(a != b))} of {a.size} entries differ"


def compare(dir_a: Path, dir_b: Path) -> list:
    """One line for each difference between two output directories."""
    names = ("trials.npz",) + BYTE_EQUAL
    missing = [d / n for n in names for d in (dir_a, dir_b)
               if not (d / n).is_file()]
    if missing:
        return [f"missing {p}" for p in missing]
    out = []
    a, b = _load(dir_a / "trials.npz"), _load(dir_b / "trials.npz")
    for key in sorted(a.keys() | b.keys()):
        diff = (_difference(a[key], b[key]) if key in a and key in b
                else "in one directory only")
        if diff is not None:
            out.append(f"trials.npz[{key}]: {diff}")
    for name in BYTE_EQUAL:
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            out.append(f"{name}: contents differ")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    lines = compare(args.dir_a, args.dir_b)
    for line in lines:
        print(line)
    if not lines:
        print(f"{args.dir_a} and {args.dir_b} hold the same results")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
