"""Iterative design search: Newton weight solves on a fixed support, vertex
exchange over a finite region, and an exhaustive simplex-grid oracle.

Weights on a fixed support minimize log Phi_k(M(w)) over the probability
simplex by damped Newton steps on the active set (the points carrying
weight), in the manner of the optimal weights exchange algorithm of Yang,
Biedermann and Tang (2013).  Steps that reach the simplex boundary set the
blocking weight to exactly zero.  Everything here is deterministic:
identical options and inputs reproduce identical weight sequences bit for
bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .designs import (
    Design,
    Region,
    _eigen_basis,
    _nonsingular,
    _phi_from_eigenvalues,
    canonical_point,
    parse_criterion_order,
    region_points,
)
from .equivalence import VerificationReport, _SensitivityKernel, verify_design
from .errors import ConvergenceError, CriterionOverflowError, SingularMatrixError
from .models import ModelSpec, intensity_many, regression_matrix

# Armijo constant: a step must realize this share of its predicted decrease.
ARMIJO = 1e-4

# Step halvings before the line search gives up.
MAX_HALVINGS = 60

# Reduced-Hessian eigenvalues at or below this multiple of the largest are
# treated as zero curvature: w -> M(w) has rank at most p(p+1)/2, so larger
# supports leave directions along which the criterion is constant.
CURVATURE_RCOND = 1e-12

_BRUTE_FORCE_CAP = 30_000_000


@dataclass(frozen=True)
class OptimizerOptions:
    """Tuning knobs shared by the iterative searches."""

    max_iterations: int = 100_000
    convergence_tol: float = 1e-10

    def __post_init__(self) -> None:
        if int(self.max_iterations) != self.max_iterations or self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if not (0.0 < self.convergence_tol < math.inf):
            raise ValueError("convergence_tol must be finite and positive")


@dataclass(frozen=True)
class DesignSearchResult:
    """A searched design together with its certificate and convergence flag."""

    design: Design
    report: VerificationReport
    converged: bool
    iterations: int


def _as_support(spec: ModelSpec, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != spec.nu:
        raise ValueError(f"support must be a nonempty list of {spec.nu}-dimensional points")
    return pts


def _scaled_rows(spec: ModelSpec, pts: np.ndarray) -> np.ndarray:
    """Rows sqrt(u_i) f(x_i); the information matrix is G^T diag(w) G."""
    F = regression_matrix(spec, pts)
    u = intensity_many(spec, pts)
    return F * np.sqrt(u)[:, None]


class _State:
    """Eigen state of M(w): per-point sensitivities, bound and f = log Phi_k.

    The gradient of f in the weights is -sens / bound.
    """

    def __init__(self, G: np.ndarray, w: np.ndarray, k: float):
        M = (G * w[:, None]).T @ G
        self.lam, Q, B, self.bound = _eigen_basis((M + M.T) / 2.0, k)
        GB = G @ B
        self.sens = np.einsum("ij,ij->i", GB, GB)
        self.f = float(np.log(_phi_from_eigenvalues(self.lam, k)))
        self._G, self._Q, self.k = G, Q, k

    def hessian(self, idx: np.ndarray) -> np.ndarray:
        """Hessian of f in the weights of the points idx (m x m, m^2 memory).

        With mu = lam / lam_min, T = sum mu^-k and g = sens / bound:
        H = C / T - k g g^T, C_ij = sum_pq d_pq a_ip a_jp a_iq a_jq, where
        d_pq = (mu_q^-(k+1) - mu_p^-(k+1)) / (mu_p - mu_q), and
        (k+1) mu^-(k+2) on ties, is the Daleckii-Krein divided difference.
        It is evaluated as exp(-k min(L) - L_p - L_q) sinh((k+1)t) / sinh(t)
        with L = log mu and t = (L_p - L_q) / 2, which neither cancels at
        near-ties nor overflows.  At k = 0 this is (g_i^T M^-1 g_j)^2 / p.
        """
        k = self.k
        L = np.log(self.lam / self.lam[0])
        t = np.abs(L[:, None] - L[None, :]) / 2.0
        with np.errstate(invalid="ignore"):
            ratio = np.where(t > 0.0, np.expm1(-2.0 * (k + 1.0) * t) / np.expm1(-2.0 * t), k + 1.0)
        d = np.exp(-k * np.minimum(L[:, None], L[None, :]) - L[:, None] - L[None, :]) * ratio
        # a_i = Q^T g_i / sqrt(lam_min): O(1) entries whatever the scale of M
        A = (self._G[idx] @ self._Q) / math.sqrt(self.lam[0])
        P = (A[:, :, None] * A[:, None, :]).reshape(A.shape[0], -1)
        g = self.sens[idx] / self.bound
        H = (P * d.ravel()) @ P.T / np.exp(-k * L).sum() - k * np.outer(g, g)
        return (H + H.T) / 2.0


def _support_gap(sens: np.ndarray, bound: float, w: np.ndarray) -> float:
    """Relative distance from restricted optimality on a fixed support.

    Points must not exceed the bound, and every point carrying weight must
    sit on it; points at zero weight may fall below, matching the
    simplex-boundary optimality condition.
    """
    scale = max(1.0, abs(bound))
    over = float(sens.max()) - bound
    under = bound - float(sens[w > 0.0].min())
    return max(over, under) / scale


def _newton_direction(state: _State, idx: np.ndarray) -> np.ndarray:
    """Newton step on the points idx, constrained to keep the weight sum:
    d = -(P H P)^+ P grad with P the projector onto sum-zero vectors."""
    m = idx.shape[0]
    P = np.eye(m) - 1.0 / m
    grad = -state.sens[idx] / state.bound
    HP = P @ state.hessian(idx) @ P
    d = -np.linalg.pinv(HP, rcond=CURVATURE_RCOND, hermitian=True) @ (P @ grad)
    return d - d.mean()


def _solve_weights(G: np.ndarray, w0: np.ndarray, k: float, opts: OptimizerOptions):
    """Minimize log Phi_k(M(w)) over the simplex by Newton steps on the
    active set S = {w > 0}; returns (w, relative gap, converged, iterations).

    Each iteration costs one p x p eigen-decomposition per line-search trial
    and an m x m Hessian over the m active points (m^2 memory, m p^2 for
    its factors).  Once the points of S balance within the tolerance, the
    inactive point most above the bound joins S.  The Armijo test allows a
    rounding slack of 1e-12 max(1, |f|): near the optimum the predicted
    decrease, about gap^2, falls below the rounding of f.
    """
    tol = opts.convergence_tol
    w = w0.copy()
    state = _State(G, w, k)
    for it in range(opts.max_iterations + 1):
        gap = _support_gap(state.sens, state.bound, w)
        if gap <= tol:
            return w, gap, True, it
        if it == opts.max_iterations:
            break
        idx = np.flatnonzero(w > 0.0)
        scale = max(1.0, abs(state.bound))
        d = None
        if float(np.abs(state.sens[idx] - state.bound).max()) <= tol * scale:
            # S is solved, so some inactive point sits above the bound
            j = int(np.argmax(np.where(w > 0.0, -np.inf, state.sens)))
            grown = np.sort(np.append(idx, j))
            d = _newton_direction(state, grown)
            if d[np.searchsorted(grown, j)] > 0.0:
                idx = grown
            else:
                d = None
        if d is None:
            d = _newton_direction(state, idx)
        slope = float(-state.sens[idx] @ d) / state.bound
        if not slope < 0.0:
            raise ConvergenceError(
                f"Newton weight step is not a descent direction at relative gap {gap!r}"
            )
        wS = w[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(d < 0.0, wS / -d, np.inf)
        block = int(np.argmin(ratios))
        t = min(1.0, float(ratios[block]))
        reaches = ratios[block] <= 1.0
        slack = 1e-12 * max(1.0, abs(state.f))
        for _ in range(MAX_HALVINGS):
            trial = w.copy()
            trial[idx] = np.maximum(wS + t * d, 0.0)
            if reaches:
                trial[idx[block]] = 0.0
            trial /= trial.sum()
            try:
                new = _State(G, trial, k)
            except (SingularMatrixError, CriterionOverflowError):
                new = None
            if new is not None and new.f <= state.f + ARMIJO * t * slope + slack:
                break
            t *= 0.5
            reaches = False
        else:
            raise ConvergenceError(
                f"Newton line search failed at relative gap {gap!r} after {it} iterations"
            )
        w, state = trial, new
    return w, gap, False, opts.max_iterations


def optimize_weights(
    spec: ModelSpec, points, k: float, opts: OptimizerOptions | None = None
) -> Design:
    """Optimal weights on a fixed support, to within the restricted
    equivalence gap tolerance of ``opts``.

    Points whose optimal weight is zero are left out of the returned design,
    so it may have fewer points than ``points``.
    """
    opts = opts or OptimizerOptions()
    k = parse_criterion_order(k)
    if math.isinf(k):
        raise ValueError("weight optimization requires a finite criterion order")
    pts = _as_support(spec, points)
    G = _scaled_rows(spec, pts)
    w0 = np.full(pts.shape[0], 1.0 / pts.shape[0])
    w, gap, converged, _ = _solve_weights(G, w0, k, opts)
    if not converged:
        raise ConvergenceError(
            f"Newton weight solve stopped at relative gap {gap!r} after "
            f"{opts.max_iterations} iterations"
        )
    keep = w > 0.0
    return Design.from_arrays(pts[keep], w[keep])


def optimize_design(
    spec: ModelSpec, region: Region, k: float, opts: OptimizerOptions | None = None
) -> DesignSearchResult:
    """Vertex-exchange search over a finite region.

    Starts from a greedy maximum-volume spanning subset, alternates Newton
    weight solves with adding the worst (most sensitive) region point, and
    drops points whose weight reaches zero.  Each solve starts from the
    previous weights with the new point at zero.  On non-convergence the
    last iterate is still returned, flagged through ``converged`` and its
    report.
    """
    opts = opts or OptimizerOptions()
    k = parse_criterion_order(k)
    if math.isinf(k):
        raise ValueError("design search requires a finite criterion order")
    cand = region_points(region)
    if cand.shape[0] == 0:
        raise ValueError("search region is empty")
    G_all = _scaled_rows(spec, cand)
    p = spec.p

    # greedy pivoted row selection: largest residual norm, ties to the
    # lexicographically smallest candidate
    R = G_all.copy()
    scale = float((R * R).sum(axis=1).max())
    chosen: list[int] = []
    for _ in range(p):
        norms = (R * R).sum(axis=1)
        i = int(np.argmax(norms))
        if norms[i] <= 1e-24 * scale:
            raise SingularMatrixError("no spanning p-point subset in the region")
        chosen.append(i)
        q = R[i] / math.sqrt(float(norms[i]))
        R = R - np.outer(R @ q, q)
    support = sorted(chosen)
    w = np.full(p, 1.0 / p)

    design = None
    converged = False
    iterations = 0
    for outer in range(1, opts.max_iterations + 1):
        iterations = outer
        w, _, balanced, _ = _solve_weights(G_all[support], w, k, opts)
        keep = w > 0.0
        support = [i for i, kp in zip(support, keep) if kp]
        w = w[keep]
        design = Design.from_arrays(cand[support], w)
        kernel = _SensitivityKernel(design, spec, k)
        gaps = kernel.many(cand) - kernel.bound
        idx = int(np.argmax(gaps))
        if balanced and gaps[idx] <= opts.convergence_tol * max(1.0, abs(kernel.bound)):
            converged = True
            break
        if canonical_point(cand[idx]) in {canonical_point(cand[i]) for i in support}:
            break  # grid cannot supply a better point; stop flagged
        support.append(idx)
        w = np.append(w, 0.0)
    report = verify_design(design, spec, k, region, tol=opts.convergence_tol)
    return DesignSearchResult(design=design, report=report, converged=converged,
                              iterations=iterations)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All weight-count vectors summing to ``total`` in lexicographic order."""
    if parts == 1:
        return np.full((1, 1), total, dtype=np.int64)
    n_slots = total + parts - 1
    count = math.comb(n_slots, parts - 1)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n_slots), parts - 1)),
        dtype=np.int64,
        count=count * (parts - 1),
    ).reshape(count, parts - 1)
    edges = np.hstack(
        [
            np.full((count, 1), -1, dtype=np.int64),
            flat,
            np.full((count, 1), n_slots, dtype=np.int64),
        ]
    )
    return np.diff(edges, axis=1) - 1


def brute_force_weights(
    spec: ModelSpec, points, k: float, grid_resolution: int
) -> Design:
    """Exhaustive search over the simplex grid with the given resolution.

    Slow but assumption-free; intended as an independent check of the
    closed-form and iterative routes on supports of up to five points.
    """
    k = parse_criterion_order(k)
    pts = _as_support(spec, points)
    r = pts.shape[0]
    if r > 5:
        raise ValueError("exhaustive weight search is limited to supports of <= 5 points")
    g = int(grid_resolution)
    if g != grid_resolution or g < 10:
        raise ValueError("grid_resolution must be an integer >= 10")
    if math.comb(g + r - 1, r - 1) > _BRUTE_FORCE_CAP:
        raise ValueError("weight grid is too large to enumerate")

    G = _scaled_rows(spec, pts)
    outer_prods = np.einsum("ri,rj->rij", G, G)
    counts = _compositions(g, r)
    p = spec.p

    best_value = math.inf
    best_w = None
    chunk = 262_144
    for start in range(0, counts.shape[0], chunk):
        W = counts[start : start + chunk].astype(float) / g
        M = np.einsum("nr,rij->nij", W, outer_prods)
        if k == 0.0:
            det = np.linalg.det(M)
            with np.errstate(divide="ignore", invalid="ignore"):
                values = np.where(det > 0.0, det ** (-1.0 / p), math.inf)
        else:
            lam = np.linalg.eigvalsh(M)
            valid = _nonsingular(lam)
            lam_safe = np.where(valid[:, None], lam, 1.0)
            values = np.where(valid, _phi_from_eigenvalues(lam_safe, k), math.inf)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value = float(values[i])
            best_w = W[i]
    if best_w is None or not math.isfinite(best_value):
        raise SingularMatrixError("no nonsingular weighting exists on this support")
    keep = best_w > 0.0
    return Design.from_arrays(pts[keep], best_w[keep])
