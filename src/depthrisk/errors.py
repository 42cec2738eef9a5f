"""Exception types shared across the package.

Everything raised deliberately by this package derives from
:class:`DepthRiskError`, so callers can catch one base class at the
boundary and still discriminate on the specific failure.
"""


class DepthRiskError(Exception):
    """Base class for all errors raised by this package."""


class NotSymmetric(DepthRiskError):
    """Matrix input is not symmetric within tolerance."""


class NotPositiveDefinite(DepthRiskError):
    """Cholesky factorization met a pivot at or below the floor."""


class DimensionMismatch(DepthRiskError):
    """Operands have incompatible shapes or dimensions."""


class DomainError(DepthRiskError):
    """Scalar argument lies outside the mathematical domain of the operation."""


class AlreadyHasCosts(DepthRiskError):
    """Costs were attached to a sample that already carries costs."""


class MissingCosts(DepthRiskError):
    """The operation needs a sample with costs attached."""


class DegenerateSample(DepthRiskError):
    """Sample too small or too flat to fit a positive definite covariance."""


class NoMass(DepthRiskError):
    """The target region holds too little mass: no Monte Carlo draw landed
    in it, or its exact probability is below what can be computed."""


class NonPositiveStatistic(DepthRiskError):
    """Log-scale rate fitting requires strictly positive statistics."""


class ConfigError(DepthRiskError):
    """Invalid configuration; the message lists every violated field."""


class IoError(DepthRiskError):
    """A file could not be read, parsed, or written."""
