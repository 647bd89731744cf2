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

import math
from dataclasses import dataclass

import numpy as np

from .designs import (
    Design,
    Region,
    _EigenState,
    _model_candidates,
    _nonsingular,
    _phi_from_eigenvalues,
    _scaled_rows,
    _symmetric_terms,
    canonical_point,
    parse_criterion_order,
)
from .equivalence import VerificationReport, verify_design
from .errors import ConvergenceError, CriterionOverflowError, SingularMatrixError
from .models import ModelSpec, _integer_at_least

# Armijo constant: a step must realize this share of its predicted decrease.
ARMIJO = 1e-4

# Step halvings before the line search gives up.
MAX_HALVINGS = 60

# Reduced-Hessian eigenvalues at or below this multiple of the largest are
# treated as zero curvature: w -> M(w) has rank at most p(p+1)/2, so larger
# supports leave directions along which the criterion is constant.
CURVATURE_RCOND = 1e-12

_BRUTE_FORCE_CAP = 30_000_000

# brute_force_weights gathers runs of first counts whose table suffixes hold
# at most this many rows together into one block; a longer suffix is a block.
_COMPOSITION_BLOCK = 16_384

# Criterion values within this relative distance of the minimum tie; adjacent
# grid weightings near an optimum differ by about 1e-5 relative at resolution
# 200, so only rounding-level differences fall inside it.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class OptimizerOptions:
    """Tuning knobs shared by the iterative searches."""

    max_iterations: int = 100_000
    convergence_tol: float = 1e-10

    def __post_init__(self) -> None:
        n = _integer_at_least(self.max_iterations, 1, "max_iterations must be a positive integer")
        object.__setattr__(self, "max_iterations", n)
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


class _State(_EigenState):
    """Eigen state of M(w) with the support sensitivities sens and
    f = log Phi_k; the gradient of f in the weights is -sens / bound.
    """

    def __init__(self, G: np.ndarray, w: np.ndarray, k: float):
        super().__init__(G, w, k)
        self._G, self.sens = G, self.scores(G)
        self.f = float(np.log(_phi_from_eigenvalues(self.lam, k)))

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
        A = (self._G[idx] @ self.Q) / math.sqrt(self.lam[0])
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
    over = float(sens.max()) - bound
    under = bound - float(sens[w > 0.0].min())
    return max(over, under) / bound


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
    active set S = {w > 0}; returns (w, its _State, relative gap, converged).

    Each iteration costs one thin SVD of the n x p rows per line-search
    trial and an m x m Hessian over the m active points (m^2 memory, m p^2
    for its factors).  Once the points of S balance within the tolerance, the
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
            return w, state, gap, True
        if it == opts.max_iterations:
            break
        idx = np.flatnonzero(w > 0.0)
        d = None
        if float(np.abs(state.sens[idx] - state.bound).max()) <= tol * state.bound:
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
    return w, state, gap, False


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
    w, _, gap, converged = _solve_weights(G, w0, k, opts)
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
    cand = _model_candidates(spec, region)
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

    for iterations in range(1, opts.max_iterations + 1):
        w, state, _, balanced = _solve_weights(G_all[support], w, k, opts)
        keep = w > 0.0
        support = [i for i, kp in zip(support, keep) if kp]
        w = w[keep]
        gaps = state.scores(G_all) - state.bound
        idx = int(np.argmax(gaps))
        converged = bool(balanced and gaps[idx] <= opts.convergence_tol * state.bound)
        # stop flagged when the budget is spent or the grid cannot supply a better point
        if converged or iterations == opts.max_iterations or canonical_point(cand[idx]) in {
            canonical_point(cand[i]) for i in support
        }:
            break
        support.append(idx)
        w = np.append(w, 0.0)
    design = Design.from_arrays(cand[support], w)
    report = verify_design(design, spec, k, region, tol=opts.convergence_tol)
    return DesignSearchResult(design=design, report=report, converged=converged,
                              iterations=iterations)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All weight-count vectors summing to ``total`` in lexicographic order,
    one column per part, each column contiguous.

    Built by ``parts - 1`` vectorised expansions: a row with ``rest`` left to
    place becomes ``rest + 1`` rows, one per value of the next count.
    """
    cols: list[np.ndarray] = []
    rest = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        lengths = rest + 1
        row = np.repeat(np.arange(rest.size), lengths)
        nxt = np.arange(row.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        cols = [c[row] for c in cols] + [nxt]
        rest = rest[row] - nxt
    return np.array(cols + [rest]).T


def _weight_blocks(total: int, parts: int):
    """Yield the simplex-grid weightings n / total, sum n = total, in
    lexicographic order of the counts n, as blocks of ``parts`` weight columns.

    The compositions whose first count is a are the rows of the table
    ``_compositions(total, parts - 1)`` whose first entry is at least a, with a
    subtracted from that entry: a suffix of the table.  A block of one first
    count is that suffix's views, with the scalar first weight a / total; runs
    of first counts whose suffixes hold at most _COMPOSITION_BLOCK rows
    together are gathered into one block.  Every weight is a count divided by
    ``total`` once, so it is the same double as ``n / total``.
    """
    if parts == 1:
        yield [np.ones(1)]
        return
    table = _compositions(total, parts - 1)
    first = table[:, 0]
    rest = [table[:, j] / total for j in range(1, parts - 1)]
    n = first.size
    # rows with first count a: the compositions of total - a into parts - 1,
    # C(total - a + m, m) with m = parts - 2, each order the running sum of
    # the one below (hockey stick); ends[a] = rows with first count below a
    sizes = np.ones(total + 1, dtype=np.int64)
    for _ in range(parts - 2):
        sizes = np.cumsum(sizes)
    sizes = sizes[::-1]
    ends = np.concatenate(([0], np.cumsum(sizes)))
    # fits[a]: the end of the longest run from a whose rows fit in one block
    fits = np.searchsorted(ends, ends[:-1] + _COMPOSITION_BLOCK, "right") - 1
    start = 0
    while start <= total:
        stop = max(start + 1, int(fits[start]))
        rows = int(ends[stop] - ends[start])
        if stop == start + 1:
            s = n - rows
            yield [start / total, (first[s:] - start) / total] + [c[s:] for c in rest]
        else:
            lengths = sizes[start:stop]
            a = np.repeat(np.arange(start, stop), lengths)
            # row t of the run is table row t - (run rows before its a) + n - sizes[a]
            idx = np.arange(rows) + np.repeat(n - np.cumsum(lengths), lengths)
            yield [a / total, (first[idx] - a) / total] + [c[idx] for c in rest]
        start = stop


def _cauchy_binet(w: list, T: np.ndarray, c: np.ndarray):
    """sum_T c_T prod_{i in T} w_i over the weight columns w, term by term;
    a scalar first weight folds into c_T before any column is touched."""
    total = 0.0
    for c_T, subset in zip(c.tolist(), T.tolist()):
        term = c_T
        for i in subset:
            term *= w[i]
        total += term
    return total


def brute_force_weights(
    spec: ModelSpec, points, k: float, grid_resolution: int
) -> Design:
    """Exhaustive search over the simplex grid with the given resolution.

    An assumption-free check of the closed-form and iterative routes on
    supports of up to five points.  The weightings w = n / grid_resolution
    are walked in lexicographic order of the counts n over one table, the
    (r - 1)-part compositions of grid_resolution (``_weight_blocks``): the
    weightings with first count a are a suffix of it, so a block is a few
    weight columns, not an array of counts.  D (k = 0) and A (k = 1) factor
    no matrix per weighting: with G = sqrt(u) f, Cauchy-Binet gives the
    elementary symmetric polynomials e_m of the eigenvalues of M(w) as sums
    of weight products (``_symmetric_terms``), summed column by column, and
    Phi_0 = e_p^(-1/p), Phi_1 = e_(p-1) / (p e_p).  Other orders take the
    eigenvalues of each M(w) and skip weightings past the singularity gate.

    The winner is the first weighting in enumeration order whose value is
    within a relative _TIE_RTOL of the minimum, so exact ties (such as a
    weighting and its mirror image in a symmetric model) always resolve to
    the lexicographically first counts.  Raises SingularMatrixError when the
    winner's M(w) fails the singularity gate, as on a support with no
    nonsingular weighting.
    """
    k = parse_criterion_order(k)
    pts = _as_support(spec, points)
    r = pts.shape[0]
    if r > 5:
        raise ValueError("exhaustive weight search is limited to supports of <= 5 points")
    g = _integer_at_least(grid_resolution, 10, "grid_resolution must be an integer >= 10")
    if math.comb(g + r - 1, r - 1) > _BRUTE_FORCE_CAP:
        raise ValueError("weight grid is too large to enumerate")

    G = _scaled_rows(spec, pts)
    p = spec.p
    if p > r:
        # every M(w) has rank at most r < p
        raise SingularMatrixError("no nonsingular weighting exists on this support")
    if k in (0.0, 1.0):
        (T_p, c_p), (T_q, c_q) = _symmetric_terms(G, p), _symmetric_terms(G, p - 1)
    else:
        outer_prods = np.einsum("ri,rj->rij", G, G)

    near = []  # (value, weights) within _TIE_RTOL of its block's minimum, in order
    for w in _weight_blocks(g, r):
        if k in (0.0, 1.0):
            e_p = _cauchy_binet(w, T_p, c_p)
            with np.errstate(divide="ignore", invalid="ignore"):
                if k == 0.0:
                    values = e_p ** (-1.0 / p)
                else:
                    values = _cauchy_binet(w, T_q, c_q) / (p * e_p)
            values[e_p <= 0.0] = math.inf
        else:
            W = np.column_stack(np.broadcast_arrays(*w))
            lam = np.linalg.eigvalsh(np.einsum("nr,rij->nij", W, outer_prods))
            valid = _nonsingular(lam)
            lam_safe = np.where(valid[:, None], lam, 1.0)
            values = np.where(valid, _phi_from_eigenvalues(lam_safe, k), math.inf)
        low = float(values.min())
        if math.isfinite(low):
            i = np.flatnonzero(values <= low * (1.0 + _TIE_RTOL))
            rows = np.column_stack([np.broadcast_to(col, values.shape)[i] for col in w])
            near += zip(values[i].tolist(), rows)
    if near:
        low = min(v for v, _ in near)
        best_w = next(w for v, w in near if v <= low * (1.0 + _TIE_RTOL))
    if not near or not _nonsingular(np.linalg.eigvalsh((G * best_w[:, None]).T @ G)):
        raise SingularMatrixError("no nonsingular weighting exists on this support")
    keep = best_w > 0.0
    return Design.from_arrays(pts[keep], best_w[keep])
