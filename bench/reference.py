"""Independent reference for the benchmark's output checks.

Uses numpy and math only; nothing here imports or copies glmdesign.  Each
intensity is written from its textbook formula, the information matrix is an
explicit sum over the support, and sensitivities come from ``np.linalg.solve``
against M^(k+1), so an error shared by the package's factored eigen kernel
and this module would have to be made twice, differently.

Orders are limited to k in {0, 1, 2}: integer powers keep the reference to
solves and products, and the package's raw-scale ``lam ** -k`` overflows at
large k (see CHANGES.md).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_tail(t: np.ndarray) -> np.ndarray:
    """P(Z > t) for a standard normal Z."""
    return 0.5 * _erfc(t / math.sqrt(2.0)).astype(float)


def intensity(family: str, eta) -> np.ndarray:
    """Information weight u(eta) of one observation, by family name."""
    eta = np.asarray(eta, dtype=float)
    if family == "logistic":
        e = np.exp(eta)
        return e / (1.0 + e) ** 2
    if family == "probit":
        # phi(eta)^2 / (Phi(eta) Phi(-eta)), written with both tails so it is
        # symmetric in eta by construction
        pdf = np.exp(-0.5 * eta * eta) / _SQRT_2PI
        return pdf * pdf / (_normal_tail(-eta) * _normal_tail(eta))
    if family == "poisson_log":
        return np.exp(eta)
    if family == "gamma_inverse":
        return 1.0 / (eta * eta)
    if family == "linear_identity":
        return np.ones_like(eta)
    raise ValueError(f"no reference intensity for family {family!r}")


class Model:
    """A family name, an intercept flag and the localizing parameter."""

    def __init__(self, family: str, intercept: bool, beta):
        self.family = family
        self.intercept = bool(intercept)
        self.beta = np.asarray(beta, dtype=float)

    @classmethod
    def of(cls, spec) -> "Model":
        """Read the three inputs off a package ModelSpec (data only)."""
        return cls(spec.family.name, spec.kind.intercept, spec.beta)

    @property
    def p(self) -> int:
        return self.beta.shape[0]

    def rows(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.intercept:
            return np.hstack([np.ones((pts.shape[0], 1)), pts])
        return pts

    def u(self, pts) -> np.ndarray:
        return intensity(self.family, self.rows(pts) @ self.beta)


def information(model: Model, points, weights) -> np.ndarray:
    """M = sum_i w_i u(x_i) f(x_i) f(x_i)^T, one support point at a time."""
    F = model.rows(points)
    u = model.u(points)
    M = np.zeros((model.p, model.p))
    for f, ui, wi in zip(F, u, np.asarray(weights, dtype=float)):
        M += wi * ui * np.outer(f, f)
    return M


def _order(k) -> int:
    if k not in (0, 1, 2):
        raise ValueError(f"the reference handles k in {{0, 1, 2}}, got {k!r}")
    return int(k)


def bound(M: np.ndarray, k) -> float:
    """tr M^-k; equal to p at k = 0."""
    k = _order(k)
    if k == 0:
        return float(M.shape[0])
    Minv = np.linalg.solve(M, np.eye(M.shape[0]))
    return float(np.trace(np.linalg.matrix_power(Minv, k)))


def sensitivities(model: Model, M: np.ndarray, k, pts) -> np.ndarray:
    """u(x) f(x)^T M^-(k+1) f(x) at each point."""
    k = _order(k)
    F = model.rows(pts)
    X = np.linalg.solve(np.linalg.matrix_power(M, k + 1), F.T)
    return model.u(pts) * np.einsum("ij,ji->i", F, X)


def grid(lower, upper, resolution) -> np.ndarray:
    """Points of a per-axis uniform grid, endpoints included, first axis slowest."""
    axes = [np.linspace(lo, hi, n) for lo, hi, n in zip(lower, upper, resolution)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def corners(nu: int) -> np.ndarray:
    return np.array(list(itertools.product((0.0, 1.0), repeat=nu)))


def certify(model: Model, k, points, weights, candidates, tol: float):
    """Equivalence-theorem verdict of the reference alone.

    Returns (ok, bound, worst gap, largest support residual): ok requires
    every candidate sensitivity to stay within tol * max(1, bound) of the
    bound from above and every support point to sit on it.
    """
    M = information(model, points, weights)
    b = bound(M, k)
    scale = max(1.0, abs(b))
    gap = float(sensitivities(model, M, k, candidates).max() - b)
    resid = float(np.abs(sensitivities(model, M, k, points) - b).max())
    ok = gap <= tol * scale and resid <= tol * scale
    return ok, b, gap, resid
