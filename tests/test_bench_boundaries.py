"""The benchmark's names for the program's parts resolve in the package.

``bench/tracer.py`` wraps each function it names in ``BOUNDARIES`` and
refuses to trace when one is missing, so deleting or renaming such a
function breaks ``bench/run.py --trace 1``. ``bench/checks.py`` refuses
a campaign whose ``timings.csv`` correction types differ from its
``CORRECTIONS``, so a new or renamed timing label fails the benchmark.
Both are read from the benchmark itself, not copied.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from meskf import FILTER_KINDS
from meskf.sim.config import load_scenario
from meskf.sim.runner import run_campaign

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_SCENARIO = ROOT / "scenarios" / "reference_curved.json"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracer = bench_module("tracer")
    assert tracer.BOUNDARIES
    missing = []
    for _, modname, qual in tracer.BOUNDARIES:
        obj = importlib.import_module(modname)
        for attr in qual.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{modname}.{qual}")
    assert not missing, missing


@pytest.mark.parametrize("kind", FILTER_KINDS)
def test_correction_labels_match_benchmark(kind):
    # one 3 s trial with every sensor on, as the acceptance warm-up runs
    corrections = bench_module("checks").CORRECTIONS
    sc = load_scenario(REFERENCE_SCENARIO)
    sc.filter_kind, sc.n_trials = kind, 1
    sc.trajectory.duration = 3.0
    sc.schedule = type(sc.schedule).always_on(3.0)
    metrics = run_campaign(sc)[0]
    assert {row[1] for row in metrics.timing_rows} == corrections[kind]
