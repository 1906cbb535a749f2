"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input outside the library's domain: a point outside the closed
    unit disk, or an angle that is not a finite real (a complex array
    included), whether given for evaluation or to build a boundary set. A
    ValueError, so callers that catch ValueError catch it too."""


class NoContractionError(ArithmeticError):
    """An off-arc modulus estimate reached 1, so no power can contract it,
    the power that contracts it exceeds ``fatou.MAX_POWER``, or points are
    too close for a cluster's arc to hold them in floating point.

    Raised instead of silently capping the estimate or the power; the caller
    must separate close boundary points, reduce the safety margin or raise
    the budget eta.
    """


class CertificationError(RuntimeError):
    """A measured quantity violated the bound its certificate promises."""
