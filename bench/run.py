#!/usr/bin/env python3
"""meskf benchmark: Monte-Carlo campaigns through `meskf simulate`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; meskf is imported from its
``src`` directory. A run repeats whole rounds until S seconds have
passed. Each round is one campaign of the workload's trials in a fresh
interpreter (``bench/child.py``), one process at a time, so set-up time
and peak memory belong to the round. After each round the outputs are
checked (``bench/checks.py``) and removed.

Round 0 always runs the scenario's own seed: the accuracy metrics and
the accuracy checks come from it, so they are the same in every run.
Later rounds take their noise seed from --seed and the round index.

Times are in reference seconds: ``bench/hostspeed.py`` measures the
host's speed during each round and scales the round's set-up, wall and
CPU times to a host of fixed speed, because this host's speed drifts
by up to 2x. The times as measured are printed and recorded too.

--trace 0 prints the end-to-end metrics. --trace 1 runs pairs of
rounds on one seed, untraced then traced (``bench/tracer.py``), checks
that tracing leaves the outputs bitwise equal, and prints the
per-layer metrics with the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (trials) and ``metrics``. Span files and a
record of each run stay under ``bench/out/``.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

from checks import (CheckError, check_accuracy, check_campaign, load_trials,
                    steady_state)
from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = ROOT / "scenarios" / "reference_curved.json"
RUN_LIMIT_S = 170.0
MIN_ROUND_TIMEOUT_S = 30.0
# one interpreter, one BLAS thread: the load is a single process
ENV_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    scenario: Path
    filter_kind: str
    trials: int          # per round: 3-7 s a round on 2 shared vCPUs


WORKLOADS = {
    "m-esekf-curved": Workload(REFERENCE, "M-ESEKF", 20),
    "mp-esekf-curved": Workload(REFERENCE, "MP-ESEKF", 3),
    "c-esekf-curved": Workload(REFERENCE, "C-ESEKF", 3),
    "mp-esekf-lever": Workload(BENCH / "lever_curved.json", "MP-ESEKF", 3),
}


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(ENV_PINS["OPENBLAS_NUM_THREADS"]),
    }


def scenario_seed(path):
    return int(json.loads(Path(path).read_text()).get("seed", 0))


def check_lever_scenario():
    """The lever scenario must stay the reference plus extrinsics."""
    lever = json.loads((BENCH / "lever_curved.json").read_text())
    ref = json.loads(REFERENCE.read_text())
    if "extrinsics" not in lever or "extrinsics" in ref:
        raise SystemExit("lever_curved.json must add an extrinsics block")
    lever_surface = (BENCH / lever.pop("surface")).resolve()
    ref_surface = (REFERENCE.parent / ref.pop("surface")).resolve()
    lever.pop("extrinsics")
    if lever != ref or lever_surface != ref_surface:
        raise SystemExit("lever_curved.json no longer matches "
                         "scenarios/reference_curved.json")


class Run:
    def __init__(self, name, seed, seconds, trace):
        self.w = WORKLOADS[name]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.dir = OUT / f"{name}-seed{seed}{'-trace' if trace else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = {**os.environ, **ENV_PINS}
        self.start = _monotonic()
        self.rounds = []
        self.problems = []
        self.attempted = self.failed = 0

    def round_seed(self, index):
        if index == 0:
            return scenario_seed(self.w.scenario)
        return 100_000 + 1000 * self.seed + index

    def campaign(self, tag, seed, traced):
        """One campaign in a fresh interpreter; returns its record with
        the per-step statistics, or None when it could not be checked."""
        rdir = self.dir / tag
        rdir.mkdir()
        result = rdir / "round.json"
        spans = rdir / "spans.npz"
        cmd = [sys.executable, str(BENCH / "child.py"), "", str(result)]
        if traced:
            cmd += ["--trace", str(spans)]
        cmd += ["--", "--config", str(self.w.scenario),
                "--filter", self.w.filter_kind,
                "--trials", str(self.w.trials), "--seed", str(seed),
                "--out", str(rdir / "campaign")]
        timeout = max(MIN_ROUND_TIMEOUT_S,
                      RUN_LIMIT_S - (_monotonic() - self.start))
        self.attempted += self.w.trials
        spawn_t = _monotonic()
        cmd[2] = repr(spawn_t)
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._fail(tag, f"no result within {timeout:.0f} s")
        if proc.returncode != 0 or not result.exists():
            return self._fail(tag, f"child exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-2000:]}")
        rec = json.loads(result.read_text())
        rec.update(tag=tag, seed=seed, traced=traced,
                   spans=str(spans) if traced else None)
        if rec["rc"] not in (0, 3):
            return self._fail(tag, f"meskf simulate exited {rec['rc']}")
        try:
            ok, stats = check_campaign(rdir / "campaign", self.w.trials,
                                       self.w.filter_kind)
            # kept only to compare a traced campaign with its pair
            arrays = load_trials(rdir / "campaign") if self.trace else None
        except (CheckError, OSError, KeyError, ValueError) as e:
            return self._fail(tag, f"output check: {e}")
        shutil.rmtree(rdir / "campaign")
        bad = int(self.w.trials - ok.sum())
        self.failed += bad
        if bad:
            rec["failed_trials"] = [int(i) for i in (~ok).nonzero()[0]]
        if rec["rc"] == 3 and not bad:
            self.problems.append(f"{tag}: exit 3 with no diverged trial")
        rec["stats"], rec["arrays"] = stats, arrays
        self.rounds.append(rec)
        return rec

    def _fail(self, tag, why):
        self.failed += self.w.trials
        self.problems.append(f"{tag}: {why}")
        return None

    def elapsed(self):
        return _monotonic() - self.start

    def measure(self):
        """Whole rounds (pairs when tracing), at least two, while the
        next one is expected to end within the run's seconds."""
        index, last = 0, 0.0
        while index < 2 or self.elapsed() + last <= self.seconds:
            begin = _monotonic()
            seed = self.round_seed(index)
            if not self.trace:
                self.campaign(f"round{index}", seed, False)
            else:
                plain = self.campaign(f"pair{index}-plain", seed, False)
                traced = self.campaign(f"pair{index}-traced", seed, True)
                if plain and traced:
                    for key in ("errors", "covariances", "diverged"):
                        if not (plain["arrays"][key].tobytes()
                                == traced["arrays"][key].tobytes()):
                            self.problems.append(
                                f"pair{index}: tracing changed {key}")
                    del plain["arrays"], traced["arrays"]
            last = _monotonic() - begin
            index += 1
            if self.problems:
                break

    def end_to_end(self):
        ref = self.rounds[0] if self.rounds else None
        if ref is None or ref["tag"] != "round0" or ref["stats"] is None:
            self.problems.append("round 0 gave no accuracy figures")
            return {}
        try:
            check_accuracy(ref["stats"], self.w.filter_kind)
        except CheckError as e:
            self.problems.append(f"round0: {e}")
        pos, head = steady_state(ref["stats"])

        def med(key):
            return statistics.median(r[key] for r in self.rounds)
        return {
            "setup_s": (med("setup_s"), "s"),
            "campaign_s": (med("campaign_s"), "s"),
            "cpu_s": (med("cpu_s"), "s"),
            "peak_rss_mb": (med("peak_rss_mb"), "MB"),
            "rmse_pos_m": (max(pos), "m"),
            "rmse_head_rad": (max(head), "rad"),
        }

    def per_layer(self):
        traced = [r for r in self.rounds if r["traced"]]
        plain = [r for r in self.rounds if not r["traced"]]
        if not traced or not plain:
            self.problems.append("no traced and untraced pair completed")
            return {}
        metrics = layer_metrics([r["spans"] for r in traced])
        metrics["host.probe_ms"] = (
            statistics.median(r["probe_ms"] for r in plain), "ms")
        metrics["host.campaign_raw_s"] = (
            statistics.median(r["campaign_raw_s"] for r in plain), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(r["campaign_s"] for r in traced)
            - statistics.median(r["campaign_s"] for r in plain), "s")
        return metrics

    def record(self, metrics, env):
        rounds = [{k: v for k, v in r.items() if k not in ("stats", "arrays")}
                  for r in self.rounds]
        (self.dir / "run.json").write_text(json.dumps({
            "environment": env, "workload": self.w.__dict__ | {
                "scenario": str(self.w.scenario.relative_to(ROOT))},
            "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "rounds": rounds,
            "problems": self.problems,
            "metrics": {k: v for k, (v, _) in metrics.items()}},
            indent=1, default=str))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "meskf" / "cli.py", REFERENCE)
               if not p.exists()]
    if missing:
        print(f"not a meskf source checkout: {missing[0]} is missing",
              file=sys.stderr)
        return 2
    check_lever_scenario()
    env = environment()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.measure()
    metrics = run.per_layer() if run.trace else run.end_to_end()
    run.record(metrics, env)

    print(f"workload {args.workload}: {run.w.filter_kind}, "
          f"{run.w.trials} trials per round, seed {args.seed}, "
          f"{len(run.rounds)} rounds in {run.elapsed():.1f} s")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if run.rounds:
        print("as measured, before scaling to reference seconds:")
        for key in ("setup_raw_s", "campaign_raw_s", "cpu_raw_s"):
            value = statistics.median(r[key] for r in run.rounds)
            print(f"  {key:40s} {value:14.6g} s")
    print(f"trials attempted {run.attempted}, failed {run.failed}")
    for problem in run.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
