"""Exception hierarchy, and the checks that make a bad scenario entry a
``ConfigError`` naming its field."""

import json
import math
import reprlib
from numbers import Integral, Real
from operator import ge, gt, lt

import numpy as np


class MeskfError(Exception):
    """Base class for all package errors."""


class OutOfChartError(MeskfError):
    """A chart query fell outside the surface's parameter rectangle."""


class NumericalFailureError(MeskfError):
    """An iterative solver failed to converge.

    Carries the best iterate found so far in ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class SingularUpdateError(MeskfError):
    """Innovation covariance is not positive definite or is numerically
    singular; the trial loop ends the trial as diverged."""


class DegenerateGeometryError(MeskfError):
    """Measurement geometry is degenerate (e.g. anchor at sensor)."""


class DegenerateCovarianceError(MeskfError):
    """A covariance required to be positive definite is singular."""


class DegenerateSamplingError(MeskfError):
    """Sigma-region sampling produced no usable chart points."""


class NoIntersectionError(MeskfError):
    """Range-sphere shell does not intersect the sampled surface region."""


class ConfigError(MeskfError, ValueError):
    """A configuration entry failed validation.

    ``field`` names the offending entry (dotted path). As a bad
    argument to a config class, it is a ValueError too.
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


def number(kind, value, field: str, **bounds):
    """``kind(value)`` for kind int or float. An int field takes an
    integer, a float field an integer or a float; a boolean, a string or
    any other type, a float that is not finite, or a value outside
    ``bounds`` (``gt``, ``ge``, ``lt``) is a ConfigError naming ``field``.
    """
    if isinstance(value, bool) or not isinstance(
            value, Integral if kind is int else Real):
        raise ConfigError(f"must be {kind.__name__}, not {value!r}",
                          field=field)
    try:
        x = kind(value)
    except OverflowError as e:
        raise ConfigError(str(e), field=field) from e
    if kind is float and not math.isfinite(x):
        raise ConfigError(f"must be finite, not {value!r}", field=field)
    for holds, sign in ((gt, ">"), (ge, ">="), (lt, "<")):
        bound = bounds.get(holds.__name__)
        if bound is not None and not holds(x, bound):
            raise ConfigError(f"must be {sign} {bound}, not {value!r}",
                              field=field)
    return x


def number_fields(obj, block: str, kind, names, **bounds):
    """Replace each attribute ``name`` of ``obj`` by its ``number``,
    checked as the field ``block.name``."""
    for name in names:
        setattr(obj, name, number(kind, getattr(obj, name),
                                  f"{block}.{name}", **bounds))


def divisor(rate: float, base_rate: float, field: str) -> int:
    """The whole number of ``base_rate`` ticks per tick at ``rate``; a
    rate that does not divide ``base_rate``, the odometry rate, is a
    ConfigError naming ``field``."""
    every = int(round(base_rate / rate))
    if abs(every * rate - base_rate) > 1e-9:
        raise ConfigError("must divide the odometry rate", field=field)
    return every


def finite_array(value, field: str) -> np.ndarray:
    """``value``, a number or nested lists of them, as a float array. A
    boolean, a string, a ragged list or an entry that is not finite is a
    ConfigError naming ``field``, as in ``number(float, ...)``."""
    try:
        a = np.asarray(value)
    except ValueError as e:
        raise ConfigError(str(e), field=field) from e
    if a.dtype.kind not in "iuf" or not np.all(np.isfinite(a)) or any(
            isinstance(x, bool) for x in np.asarray(value, object).flat):
        raise ConfigError(f"must be finite numbers, not {reprlib.repr(value)}",
                          field=field)
    return np.array(a, dtype=float)


def require(data: dict, key: str, block: str):
    """``data[key]``. A ``data`` that is not an object is a ConfigError
    naming ``block``, a missing key one naming ``block.key``."""
    if not isinstance(data, dict):
        raise ConfigError("must be an object", field=block)
    if key not in data:
        raise ConfigError("missing required field", field=f"{block}.{key}")
    return data[key]


def read_json(path):
    """The JSON file ``path``; one that cannot be read, decoded or parsed
    is a ConfigError naming the file."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:    # JSONDecodeError is a ValueError
        raise ConfigError(str(e), field=str(path)) from e


def build(cls, data: dict, field: str, **defaults):
    """``cls(**defaults, **data)``. A ConfigError passes unchanged; any
    other TypeError or ValueError (an unknown key, say) becomes a
    ConfigError naming the block ``field``."""
    try:
        return cls(**{**defaults, **data})
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field=field) from e
