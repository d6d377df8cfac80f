"""The benchmark's traced layer boundaries resolve in the package.

``bench/tracer.py`` wraps each function it names in ``BOUNDARIES`` and
refuses to trace when one is missing, so deleting or renaming such a
function breaks ``bench/run.py --trace 1``. The list is read from the
benchmark itself, not copied.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BOUNDARIES
    missing = []
    for _, modname, qual in tracer.BOUNDARIES:
        obj = importlib.import_module(modname)
        for attr in qual.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{modname}.{qual}")
    assert not missing, missing
