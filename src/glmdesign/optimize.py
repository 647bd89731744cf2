"""Iterative design search: weight descent on a fixed support, vertex
exchange over a finite region, and an exhaustive simplex-grid oracle.

The multiplicative rule rescales each weight by (sensitivity / bound) to the
power 1/(k+1) and renormalizes; the criterion value is checked to be
non-increasing at every step.  Everything here is deterministic: identical
options and inputs reproduce identical weight sequences bit for bit.
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
from .errors import ConvergenceError, SingularMatrixError
from .models import ModelSpec, intensity_many, regression_matrix

# Weights below this are dropped from a search support after reweighting.
PRUNE_WEIGHT = 1e-8

# Multiplicative updates never drive a weight below this floor, so supports
# stay strictly positive even when a point is numerically dead.
WEIGHT_FLOOR = 1e-250

_BRUTE_FORCE_CAP = 30_000_000


@dataclass(frozen=True)
class OptimizerOptions:
    """Tuning knobs shared by the iterative searches."""

    max_iterations: int = 100_000
    convergence_tol: float = 1e-10

    def __post_init__(self) -> None:
        if int(self.max_iterations) != self.max_iterations or self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if not (self.convergence_tol > 0.0):
            raise ValueError("convergence_tol must be positive")


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


def _state(G: np.ndarray, w: np.ndarray, k: float):
    """Eigen state of M(w): per-point sensitivities, bound, criterion value."""
    M = (G * w[:, None]).T @ G
    lam, B, bound = _eigen_basis((M + M.T) / 2.0, k)
    GB = G @ B
    sens = np.einsum("ij,ij->i", GB, GB)
    return sens, bound, float(_phi_from_eigenvalues(lam, k))


def _support_gap(sens: np.ndarray, bound: float, w: np.ndarray) -> float:
    """Relative distance from restricted optimality on a fixed support.

    Points must not exceed the bound, and every point actually carrying
    weight must sit on it; points driven (numerically) to zero weight are
    allowed below, matching the simplex-boundary optimality condition.
    """
    scale = max(1.0, abs(bound))
    over = float(sens.max()) - bound
    carrying = w >= PRUNE_WEIGHT
    under = bound - float(sens[carrying].min())
    return max(over, under) / scale


def _descend(G: np.ndarray, w0: np.ndarray, k: float, opts: OptimizerOptions):
    """Run the multiplicative weight rule; returns (w, relative gap, converged, iters)."""
    w = w0.copy()
    sens, bound, phi = _state(G, w, k)
    delta = 1.0 / (k + 1.0)
    gap = _support_gap(sens, bound, w)
    for it in range(1, opts.max_iterations + 1):
        if gap <= opts.convergence_tol:
            return w, gap, True, it - 1
        w = w * (sens / bound) ** delta
        w = np.maximum(w, WEIGHT_FLOOR)
        w = w / w.sum()
        sens, bound, new_phi = _state(G, w, k)
        if new_phi > phi + 1e-12 * max(1.0, abs(phi)):
            raise ConvergenceError(
                f"multiplicative step increased the criterion ({phi!r} -> {new_phi!r})"
            )
        phi = new_phi
        gap = _support_gap(sens, bound, w)
    return w, gap, gap <= opts.convergence_tol, opts.max_iterations


def optimize_weights(
    spec: ModelSpec, points, k: float, opts: OptimizerOptions | None = None
) -> Design:
    """Optimal weights on a fixed support, to within the restricted
    equivalence gap tolerance of ``opts``."""
    opts = opts or OptimizerOptions()
    k = parse_criterion_order(k)
    if math.isinf(k):
        raise ValueError("weight descent requires a finite criterion order")
    pts = _as_support(spec, points)
    G = _scaled_rows(spec, pts)
    w0 = np.full(pts.shape[0], 1.0 / pts.shape[0])
    w, gap, converged, _ = _descend(G, w0, k, opts)
    if not converged:
        raise ConvergenceError(
            f"weight descent stalled at relative gap {gap!r} after "
            f"{opts.max_iterations} iterations"
        )
    return Design.from_arrays(pts, w)


def optimize_design(
    spec: ModelSpec, region: Region, k: float, opts: OptimizerOptions | None = None
) -> DesignSearchResult:
    """Vertex-exchange search over a finite region.

    Starts from a greedy maximum-volume spanning subset, alternates weight
    descent with adding the worst (most sensitive) region point, and prunes
    negligible weights.  On non-convergence the best iterate is still
    returned, flagged through ``converged`` and its report.
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
    support = [cand[i] for i in sorted(chosen)]

    design = None
    converged = False
    iterations = 0
    for outer in range(1, opts.max_iterations + 1):
        iterations = outer
        while True:
            pts = np.asarray(support)
            G = _scaled_rows(spec, pts)
            w0 = np.full(pts.shape[0], 1.0 / pts.shape[0])
            w, _, balanced, _ = _descend(G, w0, k, opts)
            keep = w >= PRUNE_WEIGHT
            if keep.all() or keep.sum() < p:
                break
            # re-optimize on the trimmed support so the certificate below
            # describes the weights actually returned
            support = [s for s, kp in zip(support, keep) if kp]
        design = Design.from_arrays(pts, w)
        kernel = _SensitivityKernel(design, spec, k)
        gaps = kernel.many(cand) - kernel.bound
        idx = int(np.argmax(gaps))
        if balanced and gaps[idx] <= opts.convergence_tol * max(1.0, abs(kernel.bound)):
            converged = True
            break
        new_point = cand[idx]
        existing = {canonical_point(s) for s in support}
        if canonical_point(new_point) in existing:
            break  # grid cannot supply a better point; stop flagged
        support.append(new_point)
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
