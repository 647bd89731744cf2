"""Exception types shared across the package."""


class DomainError(ValueError):
    """A design point (or its linear predictor) lies outside the model family's domain."""


class SingularMatrixError(ValueError):
    """An information matrix is numerically singular relative to its largest eigenvalue."""


class ConvergenceError(RuntimeError):
    """A weight solve missed its stopping tolerance (iteration budget spent or
    line search failed), or a four-point design missed its support condition."""


class CriterionOverflowError(ValueError):
    """An order-k quantity (trace M^-k, M^-(k+1) or a sensitivity) leaves the double range."""
