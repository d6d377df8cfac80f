"""Exception hierarchy shared across the package."""


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


class ConfigError(MeskfError):
    """A configuration file failed schema validation.

    ``field`` names the offending entry (dotted path).
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
