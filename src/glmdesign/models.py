"""Model families, regression structures, and pointwise information.

A model is the pair of a link/response family and a first-order regression
structure, together with a fixed parameter vector at which the design problem
is localized.  The family enters the design problem only through its
intensity: the scalar weight ``u(x, beta)`` multiplying the outer product of
the regression vector in the Fisher information of a single observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import DomainError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Linear predictors with probabilities this far into a tail are treated as
# numerically degenerate rather than allowed to divide by zero.
PROBIT_TAIL_FLOOR = 1e-300


def _integer_at_least(value, least: int, message: str) -> int:
    """``value`` as an int; ValueError(message) when it is fractional, not
    finite or below ``least``."""
    try:
        n = int(value)
    except (OverflowError, ValueError):
        raise ValueError(message) from None
    if n != value or n < least:
        raise ValueError(message)
    return n


@dataclass(frozen=True)
class LinkFamily:
    """Intensity rule of a one-parameter exponential-family response.

    Attributes:
        name: stable identifier used by the CLI and in reprs.
        intensity_of_eta: vectorized map from linear predictor values to the
            intensity u; must accept and return numpy arrays.
        eta_in_domain: optional vectorized predicate marking admissible
            linear predictor values; None means the whole real line.

    Nothing else: the fourth field, an analytic (1/u)'' for the interval
    construction, is removed, and a fourth argument raises TypeError.  Those
    closed forms are a table of the constructors module, keyed by the
    builtin families.
    """

    name: str
    intensity_of_eta: Callable
    eta_in_domain: Callable | None = None

    def __repr__(self) -> str:
        return f"LinkFamily({self.name!r})"


def _logistic_u(eta):
    # sigma(eta) * (1 - sigma(eta)), computed from exp(-|eta|) so large
    # predictors underflow gracefully instead of overflowing.
    a = np.abs(np.asarray(eta, dtype=float))
    e = np.exp(-a)
    return e / (1.0 + e) ** 2


def _probit_u(eta):
    eta = np.asarray(eta, dtype=float)
    pdf = np.exp(-0.5 * eta * eta) / _SQRT_2PI
    # Phi(eta) Phi(-eta) keeps both tails exact; 1 - Phi(eta) cancels to zero
    denom = np.maximum(ndtr(eta) * ndtr(-eta), PROBIT_TAIL_FLOOR)
    return pdf * pdf / denom


def _poisson_u(eta):
    # exp overflows to inf above eta ~ 709.78; intensity_many turns that
    # into a DomainError naming the point
    with np.errstate(over="ignore"):
        return np.exp(np.asarray(eta, dtype=float))


def _gamma_u(eta):
    # 1 / eta^2 overflows to inf for 0 < eta < ~1e-154 and divides by zero at
    # 0; intensity_many turns either into a DomainError naming the point.  Two
    # divisions, not eta ** -2.0, which calls pow per element; 1 / (eta * eta)
    # would lose the subnormal u of eta above ~1.3e154 to an overflowed eta^2
    eta = np.asarray(eta, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / eta / eta


def _linear_u(eta):
    return np.ones_like(np.asarray(eta, dtype=float))


logistic = LinkFamily("logistic", _logistic_u)

probit = LinkFamily("probit", _probit_u)

poisson_log = LinkFamily("poisson_log", _poisson_u)

gamma_inverse = LinkFamily(
    "gamma_inverse", _gamma_u, lambda eta: np.asarray(eta, dtype=float) > 0.0
)

linear_identity = LinkFamily("linear_identity", _linear_u)

BUILTIN_FAMILIES: dict[str, LinkFamily] = {
    f.name: f for f in (logistic, probit, poisson_log, gamma_inverse, linear_identity)
}


def custom_family(name, intensity, domain=None):
    """Wrap scalar callables into a LinkFamily usable by every operation.

    ``intensity`` and the optional domain predicate take a single float;
    they are vectorized here so batch evaluation works uniformly.  The
    interval construction takes its q'' = (1/u)'' by central differences,
    and no builtin family's fast path applies, whatever the name.
    """
    u_vec = np.vectorize(intensity, otypes=[float])
    dom_vec = None if domain is None else np.vectorize(domain, otypes=[bool])
    return LinkFamily(name, u_vec, dom_vec)


SINGLE_FACTOR_INTERCEPT = "single_factor_intercept"
FIRST_ORDER_INTERCEPT = "first_order_intercept"
FIRST_ORDER_NO_INTERCEPT = "first_order_no_intercept"

_KIND_NAMES = (
    SINGLE_FACTOR_INTERCEPT,
    FIRST_ORDER_INTERCEPT,
    FIRST_ORDER_NO_INTERCEPT,
)


@dataclass(frozen=True)
class RegressionKind:
    """First-order regression structure: f(x) = (1, x) or f(x) = x."""

    name: str
    nu: int

    def __post_init__(self) -> None:
        if self.name not in _KIND_NAMES:
            raise ValueError(f"unknown regression kind {self.name!r}")
        nu = _integer_at_least(self.nu, 1, "number of factors must be a positive integer")
        object.__setattr__(self, "nu", nu)
        if self.name == SINGLE_FACTOR_INTERCEPT and self.nu != 1:
            raise ValueError("single_factor_intercept requires exactly one factor")

    @property
    def intercept(self) -> bool:
        return self.name != FIRST_ORDER_NO_INTERCEPT

    @property
    def p(self) -> int:
        """Number of regression coefficients."""
        return self.nu + (1 if self.intercept else 0)


def single_factor_intercept() -> RegressionKind:
    return RegressionKind(SINGLE_FACTOR_INTERCEPT, 1)


def first_order_intercept(nu: int) -> RegressionKind:
    return RegressionKind(FIRST_ORDER_INTERCEPT, nu)


def first_order_no_intercept(nu: int) -> RegressionKind:
    return RegressionKind(FIRST_ORDER_NO_INTERCEPT, nu)


@dataclass(frozen=True)
class ModelSpec:
    """A family, a regression structure, and the localizing parameter vector."""

    family: LinkFamily
    kind: RegressionKind
    beta: tuple[float, ...]

    def __post_init__(self) -> None:
        beta = tuple(float(b) for b in np.atleast_1d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "beta", beta)
        if len(beta) != self.kind.p:
            raise ValueError(
                f"beta has length {len(beta)}, expected {self.kind.p} for kind "
                f"{self.kind.name!r} with {self.kind.nu} factor(s)"
            )
        if not all(math.isfinite(b) for b in beta):
            raise ValueError("beta must be finite")
        if self.family is gamma_inverse and not self.kind.intercept:
            if any(b <= 0.0 for b in beta):
                raise DomainError(
                    "gamma_inverse without intercept requires strictly positive beta"
                )

    @property
    def p(self) -> int:
        return self.kind.p

    @property
    def nu(self) -> int:
        return self.kind.nu


def _as_point(spec: ModelSpec, x) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.ndim != 1 or pt.shape[0] != spec.nu:
        raise ValueError(
            f"design point has dimension {pt.shape}, expected ({spec.nu},)"
        )
    return pt


def _as_points(spec: ModelSpec, X) -> np.ndarray:
    pts = np.asarray(X, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if spec.nu == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != spec.nu:
        raise ValueError(
            f"points array has shape {pts.shape}, expected (n, {spec.nu})"
        )
    return pts


def regression_vector(spec: ModelSpec, x) -> np.ndarray:
    """The regression vector f(x), including the leading 1 when present."""
    pt = _as_point(spec, x)
    if spec.kind.intercept:
        return np.concatenate(([1.0], pt))
    return pt.copy()


def regression_matrix(spec: ModelSpec, X) -> np.ndarray:
    """Rows f(x) for each point of ``X`` (shape (n, p))."""
    pts = _as_points(spec, X)
    if spec.kind.intercept:
        F = np.empty((pts.shape[0], spec.p))
        F[:, 0] = 1.0
        F[:, 1:] = pts
        return F
    return pts.copy()


def linear_predictor(spec: ModelSpec, x) -> float:
    return float(regression_vector(spec, x) @ np.asarray(spec.beta))


def _eta_many(spec: ModelSpec, pts: np.ndarray) -> np.ndarray:
    # np.dot takes BLAS where @ runs numpy's own loop on one column; the
    # products and their sums are the same
    beta = np.asarray(spec.beta)
    if spec.kind.intercept:
        return beta[0] + np.dot(pts, beta[1:])
    return np.dot(pts, beta)


def intensity_many(spec: ModelSpec, X) -> np.ndarray:
    """Vectorized intensity with full domain checking."""
    pts = _as_points(spec, X)
    eta = _eta_many(spec, pts)
    if spec.family.eta_in_domain is not None:
        ok = np.asarray(spec.family.eta_in_domain(eta), dtype=bool)
        if not ok.all():
            bad = pts[np.argmin(ok)]
            raise DomainError(
                f"point {tuple(float(v) for v in bad)} has linear predictor "
                f"outside the domain of family {spec.family.name!r}"
            )
    u = np.asarray(spec.family.intensity_of_eta(eta), dtype=float)
    # NaN fails both comparisons; the mask is built only to name the point
    if u.size and not (u.min() > 0.0 and u.max() < math.inf):
        bad = pts[np.argmin(np.isfinite(u) & (u > 0.0))]
        raise DomainError(
            f"intensity of family {spec.family.name!r} is not finite and positive "
            f"at point {tuple(float(v) for v in bad)}"
        )
    return u


def intensity(spec: ModelSpec, x) -> float:
    """The information weight u(x, beta) of one observation at x."""
    return float(intensity_many(spec, _as_point(spec, x)[None, :])[0])


def unit_information(spec: ModelSpec, x) -> np.ndarray:
    """Fisher information of a single observation: u(x, beta) f(x) f(x)^T."""
    f = regression_vector(spec, x)
    return intensity(spec, x) * np.outer(f, f)
