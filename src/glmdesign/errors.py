"""Exception types shared across the package."""


class DomainError(ValueError):
    """A design point (or its linear predictor) lies outside the model family's domain."""


class SingularMatrixError(ValueError):
    """An information matrix is numerically singular relative to its largest eigenvalue."""


class ConvergenceError(RuntimeError):
    """An iterative weight search failed to reach its stopping tolerance."""


class CriterionOverflowError(ValueError):
    """An order-k quantity (trace M^-k, M^-(k+1) or a sensitivity) leaves the double range."""
