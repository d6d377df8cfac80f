"""A small campaign's outputs against the file that pins them.

``scripts/pin_outputs.py`` wrote ``tests/pinned_outputs.npz``: every
filter on the reference scenario and on the benchmark's lever-arm
scenario, 2 trials of 60 s, every 20th step's errors and covariances
and the divergence flags. The campaign is run again here and compared
at a tolerance that rounding passes and a model change does not: a
change that moves the outputs on purpose regenerates the file with the
script.
"""
import importlib.util
import math
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from meskf.sim import load_scenario

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("pinned_outputs.npz")


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "pin_outputs", ROOT / "scripts" / "pin_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pin = _load_script()


@pytest.fixture(scope="module")
def computed():
    return pin.pinned_outputs()


@pytest.fixture(scope="module")
def pinned():
    with np.load(PINNED, allow_pickle=False) as f:
        return {k: f[k] for k in f.files}


def tolerances():
    """(errors, covariances) tolerances, absolute and relative to a
    trial's largest covariance entry.

    A filter step's arithmetic is exact to a few ulp of the largest
    quantity it carries: chart coordinates within the surface's domain,
    m, and headings within pi, rad, for the errors; the covariance's
    own entries for the covariances. A step's rounding is not amplified
    by the later steps of a stable filter, so at worst the differences
    of every step add up. Sixteen ulp a step over a trial's steps gives
    about 4e-11 m, above the 8.8e-15 m by which a reordering of float
    arithmetic has moved these outputs, and far below what a changed
    model term, sign or draw does to them.
    """
    n_steps, extent = 0, math.pi
    for path in pin.SCENARIOS:
        sc = load_scenario(ROOT / path)
        n_steps = max(n_steps,
                      round(sc.trajectory.duration / sc.trajectory.dt))
        extent = max(extent, *map(abs, chain(*sc.surface.domain)))
    per_step = 16 * np.finfo(float).eps
    return n_steps * per_step * extent, n_steps * per_step


def test_file_holds_every_filter_and_scenario(pinned, computed):
    assert sorted(pinned) == sorted(computed)
    for key, a in computed.items():
        assert pinned[key].shape == a.shape and pinned[key].dtype == a.dtype
    # errors, covariances and flags of 3 filters on 2 scenarios
    assert len(pinned) == 3 * 3 * len(pin.SCENARIOS)


def test_outputs_equal_the_pinned_ones_to_rounding(pinned, computed):
    atol_err, rtol_cov = tolerances()
    off = []
    for key in sorted(computed):
        a, ref = computed[key], pinned[key]
        if key.endswith(".diverged"):
            if not np.array_equal(a, ref):
                off.append(f"{key}: {a.tolist()} against {ref.tolist()}")
            continue
        # a covariance is compared with its trial's largest entry
        atol = (atol_err if key.endswith(".errors") else rtol_cov
                * np.abs(ref).max(axis=tuple(range(1, ref.ndim)),
                                  keepdims=True))
        excess = np.abs(a - ref) - atol
        if not (excess <= 0).all():
            off.append(f"{key}: largest difference "
                       f"{np.abs(a - ref).max():.3g}, "
                       f"{int((excess > 0).sum())} of {a.size} entries "
                       f"beyond the tolerance")
    assert not off, "\n".join(off)
