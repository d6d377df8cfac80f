#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against this checkout.

    python3 scripts/bench_pairs.py --base REV --pairs N --seconds S \\
        [--workload W ...] --label L

The base revision is exported from the local git repository
(``git archive``) into a temporary directory, which is removed at the
end. The change is this checkout's working tree, as it stands. For each
workload (default: every workload of ``BENCHMARK.json``), each pair runs
``bench/run.py --trace 0 --seconds S`` once in either tree, on one fresh
seed shared by both sides; the side that runs first alternates from
pair to pair. Then both trees run ``meskf simulate`` on each workload's
round 0 (the scenario's own seed, filter and trial count), and
``scripts/compare_outputs.py`` compares the two outputs.

Writes ``BENCH_<label>.json`` at the root of this checkout: the
environment, both revisions, every run's ``correct``, ``attempted``,
``failed`` and metrics, each side's median and quartiles of every
end-to-end metric, the per-pair ratios (change / base) with the count
of pairs in which the change read lower, the verdicts, and the output
comparison.

Verdicts, per workload and end-to-end metric, use ``BENCHMARK.json``'s
bounds and add none:

- ``gain``: the change is better in at least nine tenths of the pairs
  (ties count for neither), its median is better than the base's by more
  than the base's quartile spread, every run is correct and no more
  trials failed than at the base;
- ``regression``: ``worse`` when the change's median is worse than the
  base's by more than the bound (a fraction of the base's median);
  ``unresolved`` when either side's quartile spread, as a fraction of
  its median, is wider than the bound, unless every run of the change
  is better than every run of the base; ``none`` otherwise.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
# bench/run.py's pins, so that the simulate runs match the benchmark's
ENV_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
RSS_NOTE = ("peak_rss_mb is the VmHWM of the benchmark's campaign process "
            "only; the forked campaign workers' pages are not counted "
            "(ROADMAP item 7)")


def _git(*args, **kwargs):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, **kwargs).stdout


def revisions(base):
    """The base's commit and this checkout's: its HEAD, and whether the
    working tree differs from it in tracked files."""
    head = _git("rev-parse", "HEAD", text=True).strip()
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no",
                      text=True).strip())
    return {"base": _git("rev-parse", "--verify", f"{base}^{{commit}}",
                         text=True).strip(),
            "change": {"head": head, "uncommitted_changes": dirty}}


def export(rev, dest):
    """The files of commit ``rev`` written under ``dest``."""
    Path(dest).mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], check=True,
                   input=_git("archive", "--format=tar", rev))


def environment():
    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": numba,
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": bool(
            os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "note": RSS_NOTE,
    }


def _version(name):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def bench_run(tree, workload, seed, seconds):
    """One ``bench/run.py`` run in ``tree``: its last output line, or a
    failed record with the tail of its error output."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode == 0:
            return {"correct": out["correct"], "attempted": out["attempted"],
                    "failed": out["failed"],
                    "metrics": {k: m["value"]
                                for k, m in out["metrics"].items()}}
    except (IndexError, ValueError, KeyError):
        pass
    return {"correct": False, "attempted": 0, "failed": None, "metrics": {},
            "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}


def pair_order(index):
    """The sides of pair ``index`` in the order they run."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _relative(a, b):
    """(a - b) / |b|; against a zero b, 0 or an infinity of a's sign."""
    if b == 0:
        return math.copysign(math.inf, a) if a else 0.0
    return (a - b) / abs(b)


def metric_verdict(base, change, better, bound, healthy):
    """The verdicts on one metric of one workload from the paired values:
    ``base`` and ``change`` hold one value per pair, in pair order."""
    sign = 1.0 if better == "lower" else -1.0
    (b1, bm, b3), (c1, cm, c3) = _quartiles(base), _quartiles(change)
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if better == "lower":
        separated = max(change) < min(base)
    else:
        separated = min(change) > max(base)
    if spread > bound and not separated:
        regression = "unresolved"
    else:
        regression = "worse" if sign * _relative(cm, bm) > bound else "none"
    return {
        "base": {"q1": b1, "median": bm, "q3": b3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "median_ratio": cm / bm if bm else None,
        "ratios": [c / b if b else None for b, c in zip(base, change)],
        "change_lower": sum(c < b for b, c in zip(base, change)),
        "change_better": wins, "change_worse": losses,
        "pairs": len(base),
        "gain": bool(healthy and 10 * wins >= 9 * len(base)
                     and sign * (bm - cm) > b3 - b1),
        "bound": bound, "regression": regression,
    }


def aggregate(runs, end_to_end):
    """Per workload: each side's run counts and quartiles, and the
    per-metric verdicts over the pairs in which both sides ran.

    ``runs`` are run records (workload, pair, seed, side and
    ``bench_run``'s fields); ``end_to_end`` is ``BENCHMARK.json``'s list.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [by_pair[i] for i in sorted(by_pair)
                 if set(by_pair[i]) == set(SIDES)]
        sides = {s: {"runs": sum(r["side"] == s for r in mine),
                     "correct": all(r["correct"] for r in mine
                                    if r["side"] == s),
                     "attempted": sum(r["attempted"] for r in mine
                                      if r["side"] == s),
                     "failed": sum(r["failed"] or 0 for r in mine
                                   if r["side"] == s)} for s in SIDES}
        healthy = (sides["base"]["correct"] and sides["change"]["correct"]
                   and sides["change"]["failed"] <= sides["base"]["failed"]
                   and all(r["failed"] is not None for r in mine))
        metrics = {}
        for spec in end_to_end:
            name = spec["name"]
            base = [p["base"]["metrics"].get(name) for p in pairs]
            change = [p["change"]["metrics"].get(name) for p in pairs]
            keep = [i for i, (b, c) in enumerate(zip(base, change))
                    if b is not None and c is not None]
            if not keep:
                continue
            metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                             **metric_verdict([base[i] for i in keep],
                                              [change[i] for i in keep],
                                              spec["better"], spec["bound"],
                                              healthy)}
        out[workload] = {"sides": sides,
                         "seeds": [p["base"]["seed"] for p in pairs],
                         "metrics": metrics}
    return out


def _bench_workloads():
    """``bench/run.py``'s workload table of this checkout."""
    bench = str(ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        spec = importlib.util.spec_from_file_location("bench_run",
                                                      ROOT / "bench/run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench)
    return module


def compare_round0(trees, workloads, scratch):
    """``compare_outputs.compare`` on each workload's round 0, run as
    ``meskf simulate`` in both trees."""
    from compare_outputs import compare
    bench = _bench_workloads()
    verdicts = {}
    for name in workloads:
        w = bench.WORKLOADS[name]
        scenario = w.scenario.relative_to(ROOT)
        dirs = []
        for side in SIDES:
            out = scratch / f"{name}-{side}"
            cmd = [sys.executable, "-c",
                   "import sys; from meskf.cli import main; "
                   "sys.exit(main(sys.argv[1:]))",
                   "simulate", "--config", str(trees[side] / scenario),
                   "--filter", w.filter_kind, "--trials", str(w.trials),
                   "--seed", str(bench.scenario_seed(w.scenario)),
                   "--out", str(out)]
            env = {**os.environ, **ENV_PINS,
                   "PYTHONPATH": str(trees[side] / "src")}
            proc = subprocess.run(cmd, cwd=trees[side], env=env,
                                  capture_output=True, text=True)
            if proc.returncode not in (0, 3):
                dirs = None
                verdicts[name] = {"equal": False, "differences": [
                    f"{side}: simulate exited {proc.returncode}: "
                    f"{proc.stderr[-500:]}"]}
                break
            dirs.append(out)
        if dirs:
            lines = compare(*dirs)
            verdicts[name] = {"equal": not lines, "differences": lines}
    return verdicts


def parse_args(argv):
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        p.error("--pairs and --seconds must be >= 1")
    args.workload = args.workload or names
    return args


def main(argv=None):
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    revs = revisions(args.base)
    seeds = random.SystemRandom().sample(range(1000, 1_000_000), args.pairs)
    started = time.time()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = Path(tmp)
        trees = {"base": tmp / "base", "change": ROOT}
        export(revs["base"], trees["base"])
        for name in args.workload:
            for i, seed in enumerate(seeds):
                for side in pair_order(i):
                    rec = bench_run(trees[side], name, seed, args.seconds)
                    runs.append({"workload": name, "pair": i, "seed": seed,
                                 "side": side, **rec})
                    print(f"{name} pair {i} {side}: correct "
                          f"{rec['correct']}, campaign_s "
                          f"{rec['metrics'].get('campaign_s')}",
                          file=sys.stderr)
        outputs = compare_round0(trees, args.workload, tmp / "outputs")
    record = {
        "label": args.label,
        "command": ["scripts/bench_pairs.py", *(argv or sys.argv[1:])],
        "environment": environment(),
        "revisions": revs,
        "settings": {"pairs": args.pairs, "seconds": args.seconds,
                     "trace": 0, "seeds": seeds,
                     "order": "base first in even pairs, change first in "
                              "odd pairs"},
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                     time.gmtime(started)),
        "wall_s": round(time.time() - started, 1),
        "workloads": aggregate(runs, benchmark["end_to_end"]),
        "outputs_round0": outputs,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
