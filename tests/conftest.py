"""Shared fixtures: deterministic surfaces and filter states."""
import numpy as np
import pytest

from meskf import BSplineSurface, FilterState, flat_surface, surface_from_grid


def make_random_surface(seed: int, extent: float = 10.0, size: int = 8,
                        degree: int = 3, amplitude: float = 1.0
                        ) -> BSplineSurface:
    """Deterministic pseudo-random cubic patch with bounded slopes."""
    rng = np.random.default_rng(seed)
    control = amplitude * rng.standard_normal((size, size))
    return surface_from_grid(control, (-extent, extent), (-extent, extent),
                             degree)


@pytest.fixture(scope="session")
def flat() -> BSplineSurface:
    return flat_surface(extent=20.0)


@pytest.fixture(scope="session")
def curved() -> BSplineSurface:
    return make_random_surface(42, amplitude=0.8)


@pytest.fixture()
def surface_calls(monkeypatch):
    """``surface_calls(name)`` patches ``BSplineSurface.name``, such as
    ``eval_point`` or ``closest_point``, for the test and returns a list
    that gains the arguments of each later call."""
    def record(name):
        calls = []
        real = getattr(BSplineSurface, name)

        def recorded(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(BSplineSurface, name, recorded)
        return calls
    return record


@pytest.fixture()
def state() -> FilterState:
    P = np.diag([0.04, 0.09, 0.01])
    return FilterState(np.array([0.3, -0.4]), 0.7, P)


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0
               ) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T + n * np.eye(n))
