"""Exception types shared across the package."""


class DomainError(ValueError):
    """Evaluation requested outside the closed unit disk."""


class NoContractionError(ArithmeticError):
    """An off-arc modulus estimate reached 1, so no power can contract it, or
    points are too close for a cluster's arc to hold them in floating point.

    Raised instead of silently capping the estimate; the caller must
    separate close boundary points or reduce the safety margin.
    """


class CertificationError(RuntimeError):
    """A measured quantity violated the bound its certificate promises."""
