"""Closed-form locally optimal designs on standard regions.

Each constructor returns either bare weights for a fixed support or a
ConstructResult bundling the design with the case that fired and the signed
slack of that case's governing inequality.  Results with condition_ok=True
are certifiable through the equivalence theorem on the stated region; the
slack is reported so callers can trace decisions near case boundaries.
A weights on p spanning points come from one rule (_saturated_a), for
saturated_weights, the two-point, interval and corner designs and the
three-point cases of two_factor_design alike.
D weights on p + 1 points, all carrying mass, come from one bracketed root
(_d_root) behind one drop rule (_d_drop), for fourpoint_d_weights and for
the four-point case of two_factor_design alike, in scalar arithmetic.  The
four-point A weights of two_factor_design come from Newton steps on the
Cauchy-Binet form of tr M^-1 (_a_root), whose 4 x 4 Newton system goes to
LAPACK.  Nothing here calls the general weight solve of the optimize module.
The closed forms of (1/u)'' that the interval condition reads are this
module's own table, keyed by the builtin families.
"""

from __future__ import annotations

import itertools
import math

from dataclasses import dataclass

import numpy as np

from .designs import (
    BinaryHypercube,
    Design,
    Region,
    _model_size,
    _symmetric_terms,
    parse_criterion_order,
)
from .equivalence import _SensitivityKernel
from .errors import ConvergenceError, DomainError
from .models import (
    FIRST_ORDER_INTERCEPT,
    FIRST_ORDER_NO_INTERCEPT,
    SINGLE_FACTOR_INTERCEPT,
    ModelSpec,
    _as_points,
    _integer_at_least,
    gamma_inverse,
    intensity_many,
    linear_identity,
    logistic,
    poisson_log,
    regression_matrix,
)

# condition_ok is the margin staying above this signed slack
CONDITION_SLACK = -1e-12

# interior points of [0, 1] on which the interval convexity condition is checked
INTERVAL_GRID_N = 999

# relative agreement demanded of the four-point stationarity certificate
FOURPOINT_CERT_RTOL = 1e-8

# relative support gap at which the four-point A weights stop
A_FOURPOINT_TOL = 1e-12

# Newton steps, and halvings of one step, before the four-point A weights
# give up; tr M^-1 may rise by this relative rounding slack in a step
_A_NEWTON_STEPS = 100
_A_HALVINGS = 60
_A_VALUE_RTOL = 1e-14

D_CRITERION = "D"
A_CRITERION = "A"


@dataclass(frozen=True)
class ConstructResult:
    """A constructed design, the case that produced it, and its slack."""

    design: Design
    case_label: str
    condition_ok: bool
    condition_margin: float

    def to_dict(self) -> dict:
        return {
            "design": self.design.to_dict(),
            "case": self.case_label,
            "condition_ok": self.condition_ok,
            "condition_margin": self.condition_margin,
        }


def _result(design: Design, label: str, margin: float) -> ConstructResult:
    margin = float(margin)
    return ConstructResult(design, label, margin >= CONDITION_SLACK, margin)


def _kernel_margin(design: Design, spec: ModelSpec, k: float, region: Region) -> float:
    """min over the region of 1 - d(x)/bound, the equivalence theorem's
    relative slack: >= 0 exactly when the design is order-k optimal on it.
    Only each candidate block's largest sensitivity is kept."""
    _model_size(spec, region)
    kernel = _SensitivityKernel(design, spec, k)
    worst = max(float(s.max()) for _, s in kernel.scored_blocks(region.candidate_blocks()))
    return 1.0 - worst / kernel.bound


def _criterion(value: str) -> str:
    crit = str(value).strip().upper()
    if crit not in (D_CRITERION, A_CRITERION):
        raise ValueError(f"criterion must be 'D' or 'A', got {value!r}")
    return crit


def _require_kind(spec: ModelSpec, names: tuple[str, ...], what: str) -> None:
    if spec.kind.name not in names:
        raise ValueError(f"{what} requires regression kind in {names}, got {spec.kind.name!r}")


# ---------------------------------------------------------------------------
# Weight-level closed forms


def _saturated_a(F: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A-optimal weights on p spanning points, with F^-1 and c: F is the
    p x p regression matrix of the support, or a stack of them, q = u^-1/2 at
    its points, and the weights are proportional to sqrt(c_i) q_i, c_i the sum
    of squares of column i of F^-1 (Pukelsheim & Torsney 1991).  sqrt(c) q is
    finite for every positive double u, where c / u may overflow."""
    Finv = np.linalg.inv(F)
    c = (Finv * Finv).sum(axis=-2)
    w = np.sqrt(c) * q
    return w / w.sum(axis=-1, keepdims=True), Finv, c


def _spanning_weights(spec: ModelSpec, pts: np.ndarray, crit: str, F=None) -> np.ndarray:
    """Optimal weights on p spanning points: 1/p each for D, _saturated_a
    for A on their regression matrix F (built here unless given)."""
    p = pts.shape[0]
    if crit == D_CRITERION:
        return np.full(p, 1.0 / p)
    F = regression_matrix(spec, pts) if F is None else F
    return _saturated_a(F, 1.0 / np.sqrt(intensity_many(spec, pts)))[0]


def saturated_weights(spec: ModelSpec, points, criterion: str) -> np.ndarray:
    """Optimal weights on exactly p spanning points.

    D: equal weights.  A: weights proportional to sqrt(c_ii / u_i) where
    c_ii are the diagonal entries of (F^-1)^T F^-1 for the p x p regression
    matrix F of the support (_saturated_a).
    """
    crit = _criterion(criterion)
    pts = _as_points(spec, points)
    p = spec.p
    if pts.shape[0] != p:
        raise ValueError(f"saturated support needs exactly p={p} points, got {pts.shape[0]}")
    F = regression_matrix(spec, pts)
    sv = np.linalg.svd(F, compute_uv=False)
    if abs(float(np.prod(sv))) <= 1e-12 * float(sv[0]) ** p:
        raise ValueError("saturated support is numerically rank deficient")
    return _spanning_weights(spec, pts, crit, F)


def fourpoint_d_weights(spec: ModelSpec, points) -> np.ndarray:
    """D-optimal weights on p + 1 points of a p-parameter model, all
    carrying mass.

    By Cauchy-Binet det M = sum_j d_j^2 prod_{i != j} u_i w_i, where d_j is
    the determinant of the regression rows without point j, so the weights
    solve v_i w_i (1/p - w_i) = c with v_i = u_i / d_i^2 and sum(w) = 1, one
    root (_d_root).  Raises ValueError when some d_j is zero, or when the
    drop rule (_d_drop) puts the optimum on p of the points.
    """
    pts = _as_points(spec, points)
    p = spec.p
    if pts.shape[0] != p + 1:
        raise ValueError(f"expected exactly p + 1 = {p + 1} points, got {pts.shape[0]}")
    F = regression_matrix(spec, pts)
    u = intensity_many(spec, pts)
    scale = float(np.linalg.svd(F, compute_uv=False)[0])
    d = np.array([np.linalg.det(np.delete(F, i, axis=0)) for i in range(p + 1)])
    if (np.abs(d) <= 1e-12 * scale ** p).any():
        raise ValueError("every p-point subset must span; a complementary determinant is zero")
    v = u / (d * d)
    if _d_drop(v)[1] >= 0.0:
        raise ValueError(
            "the drop rule holds: the D optimum on these points leaves the smallest u/d^2 out"
        )
    return _d_root(v, p)


def _d_drop(v: np.ndarray) -> tuple[int, float]:
    """The point m of smallest v among p + 1, and the margin of the drop rule
    1/v_m - sum_{i != m} 1/v_i.

    With equal weights on the other p points the sensitivity at point m is
    p v_m sum_{i != m} 1/v_i (Cramer's rule), so the D optimum on the p + 1
    points drops m, and keeps the other p at 1/p each, exactly when the
    margin is >= 0.  No other point j can be dropped: its rule would need
    1/v_j >= 1/v_m + ..., which v_j >= v_m rules out.
    """
    order = np.argsort(v, kind="stable")
    inv = 1.0 / v
    return int(order[0]), float(inv[order[0]] - inv[order[1:]].sum())


def _d_root(v: np.ndarray, p: int) -> np.ndarray:
    """D-optimal weights on p + 1 points, all carrying mass: the root of
    v_i w_i (1/p - w_i) = c with sum(w) = 1.

    Every solution puts the sensitivity at p on all p + 1 points, so it is
    the unique optimum, and with h = 1/(2p) each w_i = h +/- sqrt(h^2 - c/v_i)
    lies in (0, 1/p).  Branch rule: two weights below h would leave the other
    p - 1, each below 1/p, short of 1.  If v_m <= v_j for another point m and
    j took the lower root, w_j and 1/p - w_m would be at most h with
    w_j (1/p - w_j) = c/v_j <= c/v_m = w_m (1/p - w_m), so w_j + w_m <= 1/p
    and the other p - 1 could not make up the rest.  So only the smallest-v
    point m may take the lower root.

    The root is found in s = w_m - h, which spans both branches of m.  With
    b_i = v_m / v_i <= 1 every other weight is h + R_i, where
    R_i = sqrt(h^2 (1 - b_i) + s^2 b_i) is free of cancellation, and
    sum(w) - 1 = (s + h) g(s), g(s) = 1 - sum_{i != m} b_i (h - s) / (R_i + h).
    g does not decrease in s; it is v_m times the drop margin of _d_drop at
    s = -h and 1 at s = h.

    Newton steps on g start at s = 0 and shrink the bracket [-h, h], which
    each evaluated sign narrows; a step that leaves the bracket is replaced
    by its midpoint.  The search stops when a Newton step rounds to s itself
    or the bracket closes on adjacent doubles, so s lies within the rounding
    band of g, about p eps / g'(s) wide, around the root.
    """
    v = [float(vi) for vi in v]
    m = v.index(min(v))
    h = 0.5 / p
    b = [v[m] / vi for i, vi in enumerate(v) if i != m]
    # R_i^2 = c_i + s^2 b_i
    c = [h * h * (1.0 - bi) for bi in b]

    lo, hi, s = -h, h, 0.0
    while lo < s < hi:
        total = slope = 0.0
        for bi, ci in zip(b, c):
            ri = math.sqrt(ci + s * s * bi)
            ti = bi * (h - s) / (ri + h)
            total += ti
            # -dt_i/ds, with dR_i/ds = s b_i / R_i (R_i = 0 only at s = 0)
            slope += (bi + (ti * s * bi / ri if ri > 0.0 else 0.0)) / (ri + h)
        g = 1.0 - total
        if g > 0.0:
            hi = s
        else:
            lo = s
        nxt = s - g / slope if slope > 0.0 else math.nan
        if nxt == s:
            break
        s = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    r = [math.sqrt(ci + s * s * bi) for bi, ci in zip(b, c)]
    return np.insert(h + np.array(r), m, h + s)


def _a_root(G: np.ndarray) -> list[float]:
    """A-optimal weights on the p + 1 rows of G = sqrt(u) f, all carrying
    mass, to a relative support gap of A_FOURPOINT_TOL.

    By Cauchy-Binet (designs._symmetric_terms) tr M^-1 = e_(p-1) / e_p, with
    e_m the elementary symmetric polynomials of the eigenvalues of M(w): sums
    of non-negative coefficients times weight products.  On p + 1 points each
    product leaves out one point k (in e_p) or two points k < l (in e_(p-1)),
    so with y = 1/w, tr M^-1 = Q / L where L = sum_k alpha_k y_k and
    Q = sum_{k<l} beta_kl y_k y_l.  The sensitivity at point j over the bound
    is s_j = y_j (L_j / L - Q_j / Q), L_j and Q_j summing the terms free of
    y_j: every sum is of non-negative terms, and none is a difference of two
    sums near L or Q, so s_j keeps its accuracy at small w_j.  The support
    gap is max |s_j - 1|.

    tr M^-1 is convex in w.  Each Newton step on the simplex is taken in
    relative terms e = d / w: with a_j = alpha_j y_j / L, q_kl = beta_kl y_k
    y_l / Q (zero on the diagonal) and g_j = -w_j s_j, the gradient and
    Hessian of tr M^-1 over tr M^-1 in e are g and
    H = q + a g^T + g a^T - 2 diag(g), and e minimizes g^T e + e^T H e / 2
    subject to w^T e = 0.  H is D_w (Hessian of tr M^-1 in w) D_w / tr M^-1,
    and positive definite: tr M^-1 is strictly convex in w because the
    rank-one terms u_i f_i f_i^T of the four corners of {0, 1}^2 are linearly
    independent.  LAPACK (np.linalg.solve) solves H [x z] = [g w] in one call.
    The step is halved until every weight stays positive and tr M^-1 does
    not rise beyond its rounding.
    """
    r = G.shape[0]
    points = set(range(r))
    alpha = [0.0] * r
    T, c = _symmetric_terms(G, r - 1)
    for subset, ck in zip(T.tolist(), c.tolist()):
        (k,) = points.difference(subset)
        alpha[k] = ck
    pairs = []  # (k, l, beta_kl)
    T, c = _symmetric_terms(G, r - 2)
    for subset, ckl in zip(T.tolist(), c.tolist()):
        k, l = sorted(points.difference(subset))
        pairs.append((k, l, ckl))
    # per point j: the points and the pairs that leave j out
    rest = [[k for k in range(r) if k != j] for j in range(r)]
    apart = [[i for i, (k, l, _) in enumerate(pairs) if j not in (k, l)] for j in range(r)]

    def state(w):
        y = [1.0 / wj for wj in w]
        a = [ak * yk for ak, yk in zip(alpha, y)]
        q = [bkl * y[k] * y[l] for k, l, bkl in pairs]
        L, Q = sum(a), sum(q)
        s = [
            y[j] * (sum([a[k] for k in rest[j]]) / L - sum([q[i] for i in apart[j]]) / Q)
            for j in range(r)
        ]
        return Q / L, s, [ak / L for ak in a], [qkl / Q for qkl in q]

    w = [1.0 / r] * r
    f, s, a, q = state(w)
    for _ in range(_A_NEWTON_STEPS):
        gap = max([abs(sj - 1.0) for sj in s])
        # half the tolerance: the SVD certificate rounds the gap differently
        if gap <= 0.5 * A_FOURPOINT_TOL:
            return w
        g = [-wj * sj for wj, sj in zip(w, s)]
        H = [[a[i] * g[j] + a[j] * g[i] for j in range(r)] for i in range(r)]
        for (k, l, _), qkl in zip(pairs, q):
            H[k][l] += qkl
            H[l][k] += qkl
        for j in range(r):
            H[j][j] -= 2.0 * g[j]
        # e = -H^-1 (g + lam w), with lam setting w^T e = 0
        x, z = np.linalg.solve(H, np.transpose([g, w])).T.tolist()
        lam = sum([wj * xj for wj, xj in zip(w, x)]) / sum([wj * zj for wj, zj in zip(w, z)])
        e = [lam * zj - xj for xj, zj in zip(x, z)]
        t = 1.0
        for _ in range(_A_HALVINGS):
            trial = [wj * (1.0 + t * ej) for wj, ej in zip(w, e)]
            if min(trial) > 0.0:
                total = sum(trial)
                trial = [wj / total for wj in trial]
                new = state(trial)
                if new[0] <= f * (1.0 + _A_VALUE_RTOL):
                    break
            t *= 0.5
        else:
            raise ConvergenceError(f"four-point A line search failed at relative gap {gap!r}")
        w, (f, s, a, q) = trial, new
    raise ConvergenceError(
        f"four-point A weights stopped at relative gap {gap!r} after {_A_NEWTON_STEPS} steps"
    )


def _axis_support(spec: ModelSpec, a) -> tuple[np.ndarray, np.ndarray]:
    """The scales a as a checked vector of length nu, and the support diag(a)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.shape != (spec.nu,) or (a <= 0.0).any() or not np.isfinite(a).all():
        raise ValueError("axis scales must be a positive vector of length nu")
    return a, np.diag(a)


def phik_axis_weights(spec: ModelSpec, a, k: float) -> np.ndarray:
    """Order-k optimal weights on the axis support {a_i e_i}.

    Proportional to (a_i^2 u_i)^(-k/(k+1)); equal at k = 0 and proportional
    to (a_i^2 u_i)^-1 in the k -> inf limit.
    """
    k = parse_criterion_order(k)
    _require_kind(spec, (FIRST_ORDER_NO_INTERCEPT,), "axis weighting")
    a, pts = _axis_support(spec, a)
    u = intensity_many(spec, pts)
    expo = -1.0 if math.isinf(k) else -k / (k + 1.0)
    t = (a * a * u) ** expo
    return t / t.sum()


# ---------------------------------------------------------------------------
# Design-level constructions


def binary_two_point_design(spec: ModelSpec, a: float, b: float, criterion: str) -> Design:
    """Optimal two-point design on {a, b} for a single-factor model with intercept."""
    crit = _criterion(criterion)
    _require_kind(spec, (SINGLE_FACTOR_INTERCEPT,), "the two-point design")
    a = float(a)
    b = float(b)
    if a == b:
        raise ValueError("the two support points must differ")
    pts = np.array([[a], [b]])
    return Design.from_arrays(pts, _spanning_weights(spec, pts, crit))


# (1/u)'' in the linear predictor, in closed form for the builtin families
# that have one; any other family takes central differences
_D2_INVERSE_INTENSITY = {
    logistic: lambda eta: np.exp(eta) + np.exp(-eta),
    poisson_log: lambda eta: np.exp(-eta),
    gamma_inverse: lambda eta: np.full_like(eta, 2.0),
    linear_identity: lambda eta: np.zeros_like(eta),
}


def _second_derivative_inverse_intensity(spec: ModelSpec, xs: np.ndarray) -> np.ndarray:
    """q''(x) for q(x) = 1 / u(x, beta) along a single factor; overflow is
    left as inf for the caller to reject."""
    d2 = _D2_INVERSE_INTENSITY.get(spec.family)
    with np.errstate(over="ignore"):
        if d2 is not None:
            beta1 = spec.beta[1]
            return beta1 * beta1 * d2(spec.beta[0] + beta1 * xs)
        h = 1e-4 * np.maximum(1.0, np.abs(xs))
        q = lambda t: 1.0 / intensity_many(spec, t[:, None])
        return (q(xs - h) - 2.0 * q(xs) + q(xs + h)) / (h * h)


def interval_boundary_design(spec: ModelSpec, criterion: str) -> ConstructResult:
    """Two-point boundary design on the unit interval [0, 1].

    Certifiable while the stated convexity condition on q = 1/u holds across
    the interior, which is checked on a uniform grid of INTERVAL_GRID_N
    points.  The condition is sufficient, not necessary: a design with
    condition_ok=False may still certify.
    """
    crit = _criterion(criterion)
    _require_kind(spec, (SINGLE_FACTOR_INTERCEPT,), "the boundary design")
    ends = np.array([[0.0], [1.0]])
    qs = 1.0 / intensity_many(spec, ends)
    q0s, q1s = qs
    xs = np.linspace(0.0, 1.0, INTERVAL_GRID_N + 2)[1:-1]
    qpp = _second_derivative_inverse_intensity(spec, xs)
    if crit == D_CRITERION:
        lhs = q0s + q1s
        w = np.array([0.5, 0.5])
        label = "D-boundary"
    else:
        q = np.sqrt(qs)
        lhs = q0s + q1s + math.sqrt(2.0) * q[0] * q[1]
        w = _saturated_a(regression_matrix(spec, ends), q)[0]
        label = "A-boundary"
    with np.errstate(over="ignore", invalid="ignore"):
        margin = float((lhs - qpp / 2.0).min())
    if not (np.isfinite(qpp).all() and math.isfinite(margin)):
        raise DomainError(
            f"the convexity condition of the boundary design leaves the double range "
            f"at beta={spec.beta!r}: q'' = (1/u)'' or the margin is not finite on [0, 1]"
        )
    return _result(Design.from_arrays(ends, w), label, margin)


_CORNERS_2 = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))

# row m: the three corners kept when corner m is left out
_OTHERS = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


def two_factor_design(spec: ModelSpec, criterion: str) -> ConstructResult:
    """Optimal design on the corners of {0, 1}^2 for a two-factor model with
    intercept.

    D: any three corners have |det| = 1, so v = u in the (p+1)-point rule:
    either equal weights on the three highest-intensity corners when the
    drop rule holds (_d_drop), or four-point weights solving
    u_i w_i (1/3 - w_i) = c (_d_root), certified by the sensitivity reaching
    p = 3 at all four corners.
    A: the saturated A design (_saturated_a) on the three corners other than
    a corner m where it meets the equivalence theorem: with F_m their rows,
    c_m the column sums of squares of F_m^-1, a_m = f(x_m)^T F_m^-1 and
    q = u^-1/2, the margin q_m^2 - ||F_m^-1 (a_m q_-m / sqrt(c_m))||^2 is the
    paper's dominant-corner inequality.  At most one holds, as each needs its
    own corner to carry the largest q.  Otherwise four-point weights from
    Newton steps on the Cauchy-Binet form tr M^-1 = e_2 / e_3 (_a_root) to a
    relative support gap of 1e-12, with margin -max over m.
    """
    crit = _criterion(criterion)
    _require_kind(spec, (FIRST_ORDER_INTERCEPT,), "the two-factor design")
    if spec.nu != 2:
        raise ValueError("the two-factor design needs exactly two factors")
    corners = np.asarray(_CORNERS_2)
    u = intensity_many(spec, corners)

    if crit == D_CRITERION:
        dropped, margin3 = _d_drop(u)
        if margin3 >= 0.0:
            design = Design.from_arrays(np.delete(corners, dropped, axis=0), np.full(3, 1.0 / 3.0))
            return _result(design, "D-3pt", margin3)
        design = Design.from_arrays(corners, _d_root(u, 3))
        # certificate: the sensitivity reaches p = 3 at all four corners
        miss = float(np.abs(_SensitivityKernel(design, spec, 0.0).many(corners) - 3.0).max())
        if miss > FOURPOINT_CERT_RTOL * 3.0:
            raise ConvergenceError(f"four-point certificate failed: d(x) misses 3 by {miss!r}")
        return _result(design, "D-4pt", -margin3)

    F = regression_matrix(spec, corners)
    q = 1.0 / np.sqrt(u)
    q3 = q[_OTHERS]
    w3, Finv, c = _saturated_a(F[_OTHERS], q3)
    # u_m ||v_m||^2: the sensitivity over the bound at the corner left out
    a = np.matmul(F[:, None, :], Finv)
    v = np.matmul(Finv, (a[:, 0] * q3 / np.sqrt(c))[:, :, None])[:, :, 0]
    shortfalls = q * q - (v * v).sum(axis=1)
    m = int(np.argmax(shortfalls))
    if shortfalls[m] >= 0.0:
        design = Design.from_arrays(corners[_OTHERS[m]], w3[m])
        return _result(design, f"A-3pt-drop{m + 1}", shortfalls[m])
    # rows sqrt(u) f with u over its maximum: tr M^-1 only scales, and the
    # products of _symmetric_terms stay in range
    G = F * np.sqrt(u / u.max())[:, None]
    design = Design.from_arrays(corners, _a_root(G))
    return _result(design, "A-4pt-numeric", -shortfalls[m])


def corner_design_multifactor(spec: ModelSpec, criterion: str) -> ConstructResult:
    """Origin-plus-axes design on {0, 1}^nu for a first-order model with
    intercept; its margin is the equivalence theorem's over the 2^nu corners
    (_kernel_margin)."""
    crit = _criterion(criterion)
    _require_kind(spec, (FIRST_ORDER_INTERCEPT,), "the corner design")
    nu = spec.nu
    if nu < 2:
        raise ValueError("the corner design needs at least two factors")
    support = np.vstack([np.zeros(nu), np.eye(nu)])
    design = Design.from_arrays(support, _spanning_weights(spec, support, crit))
    k = 0.0 if crit == D_CRITERION else 1.0
    margin = _kernel_margin(design, spec, k, BinaryHypercube(nu))
    return _result(design, f"{crit}-corner", margin)


def axis_design(
    spec: ModelSpec, a, k: float, region: Region | None = None
) -> ConstructResult:
    """Order-k optimal design on the axis support {a_i e_i} for models
    without intercept.

    Fast paths: the inverse-link gamma model is optimal for every positive
    parameter (weights proportional to beta_i^(2k/(k+1)), independent of the
    scales a); the log-link Poisson model on the binary hypercube with unit
    scales reduces to a two-largest-rates test.  Otherwise the margin is the
    equivalence theorem's over the supplied finite region (_kernel_margin).
    """
    k = parse_criterion_order(k)
    _require_kind(spec, (FIRST_ORDER_NO_INTERCEPT,), "the axis design")
    a, pts = _axis_support(spec, a)

    if spec.family is gamma_inverse:
        beta = np.asarray(spec.beta)
        expo = 2.0 if math.isinf(k) else 2.0 * k / (k + 1.0)
        w = beta ** expo
        design = Design.from_arrays(pts, w / w.sum())
        return _result(design, "axis-gamma", 0.0)

    w = phik_axis_weights(spec, a, k)
    design = Design.from_arrays(pts, w)

    if (
        spec.family is poisson_log
        and bool((a == 1.0).all())
        and (region is None or (isinstance(region, BinaryHypercube) and region.nu == spec.nu))
    ):
        # at a corner whose ones carry the rates r_S, d(x)/bound is the sum of
        # the products of all of r_S but one; once the two largest rates sum
        # to at most 1, no corner exceeds that pair, so the pair decides
        rates = np.sort(np.exp(np.asarray(spec.beta)))
        with np.errstate(over="ignore"):
            margin = 1.0 - float(rates[-1] + rates[-2])
        if not math.isfinite(margin):
            raise DomainError(
                f"the axis-Poisson condition leaves the double range at beta={spec.beta!r}"
            )
        return _result(design, "axis-poisson", margin)

    if region is None:
        raise ValueError("the general axis condition needs a finite region to scan")
    if math.isinf(k):
        # on these weights d(x)/bound = u(x) sum_i x_i^2 / (a_i^2 u_i) at
        # every finite k: k = inf reports that limit, taken at k = 0
        equal = Design.from_arrays(pts, phik_axis_weights(spec, a, 0.0))
        return _result(design, "axis-general", _kernel_margin(equal, spec, 0.0, region))
    return _result(design, "axis-general", _kernel_margin(design, spec, k, region))


def _even_a_upper_layer_mass(nu: int) -> float:
    """A-optimal mass alpha on layer q+1 when the rest sits on layer q, nu = 2q.

    With equal weights inside each layer, M = (c1 - c2) I + c2 J where
    c1 = P(x_i = 1) = (q + alpha)/nu and c2 = P(x_i = x_j = 1), so
    nu (nu-1) (c1 - c2) = q^2 - alpha, nu (c1 + (nu-1) c2) = q^2 + (nu+1) alpha
    and tr M^-1 = nu (nu-1)^2 / (q^2 - alpha) + nu / (q^2 + (nu+1) alpha),
    convex in alpha.  Its stationary point, clipped at zero, is
    alpha* = q^2 (sqrt(nu+1) - (nu-1)) / (nu^2 - 1 + sqrt(nu+1)):
    positive only at nu = 2, zero for every even nu >= 4.
    """
    q = nu // 2
    root = math.sqrt(nu + 1.0)
    return max(0.0, q * q * (root - (nu - 1.0)) / (nu * nu - 1.0 + root))


def hypercube_linear_design(nu: int, criterion: str) -> Design:
    """Middle-layer designs on {0, 1}^nu for the homoscedastic linear model
    without intercept, equal weights within each layer.

    Odd nu = 2q+1: the layer with q+1 ones (both D and A).  Even nu = 2q,
    D: the two layers with q and q+1 ones, equal weight on every point.
    Even nu = 2q, A: mass 1 - alpha* on layer q and alpha* on layer q+1,
    with alpha* the minimiser of tr M^-1 over such mixtures (see
    _even_a_upper_layer_mass).  alpha* = (sqrt(3) - 1)/(3 + sqrt(3)) at
    nu = 2, giving weight 2/(3 + sqrt(3)) on each axis point and the rest
    on (1, 1), tr M^-1 = 2 + sqrt(3); for even nu >= 4 alpha* = 0 and the
    design is the single layer with q ones.
    """
    crit = _criterion(criterion)
    nu = _integer_at_least(nu, 2, "the hypercube layer design needs an integer nu >= 2")
    q, odd = divmod(nu, 2)
    # weight of each point, by its number of ones
    if odd:
        point_weight = {q + 1: 1.0 / math.comb(nu, q + 1)}
    elif crit == D_CRITERION:
        point_weight = dict.fromkeys((q, q + 1), 1.0 / math.comb(nu + 1, q + 1))
    else:
        alpha = _even_a_upper_layer_mass(nu)
        point_weight = {q: (1.0 - alpha) / math.comb(nu, q)}
        if alpha > 0.0:
            point_weight[q + 1] = alpha / math.comb(nu, q + 1)
    corners = [
        pt for pt in itertools.product((0.0, 1.0), repeat=nu) if int(sum(pt)) in point_weight
    ]
    weights = [point_weight[int(sum(pt))] for pt in corners]
    return Design.from_arrays(np.asarray(corners), weights)


# ---------------------------------------------------------------------------
# The catalogue a construct job dispatches through.  Each builder is called as
# build(spec, criterion, region=..., a=...) and names its
# constructor at call time, so rebinding a module-level name reaches it.


def _two_point(spec, crit, region, **_):
    a, b = (p[0] for p in region.points)
    return _result(binary_two_point_design(spec, a, b, crit), f"{crit}-2pt", 0.0)


def _interval(spec, crit, **_):
    return interval_boundary_design(spec, crit)


def _two_factor(spec, crit, **_):
    return two_factor_design(spec, crit)


def _corner(spec, crit, **_):
    return corner_design_multifactor(spec, crit)


def _axis(spec, k, a, region, **_):
    return axis_design(spec, a, k, region)


def _layers(spec, crit, **_):
    return _result(hypercube_linear_design(spec.nu, crit), f"{crit}-layers", 0.0)


def _saturated(spec, crit, region, **_):
    w = saturated_weights(spec, region.points, crit)
    return _result(Design.from_arrays(region.points, w), f"saturated-{crit}", 0.0)


def _fourpoint(spec, crit, region, **_):
    w = fourpoint_d_weights(spec, region.points)
    return _result(Design.from_arrays(region.points, w), "fourpoint-D", 0.0)


def _axis_weights(spec, k, a, **_):
    w = phik_axis_weights(spec, a, k)
    return _result(Design.from_arrays(np.diag(a), w), "axis-weights", 0.0)


# name -> (criterion rule, finite_set support size, builder).  Rules: "D or A"
# hands order k = 0 or 1 on as "D" or "A", "D only" admits k = 0 alone, and
# "any k" hands k on as it is.  A support size asks for a finite_set region
# with that many points of the model's dimension ("p": one per parameter,
# "p+1": one more).
CONSTRUCTORS = {
    "binary_two_point_design": ("D or A", 2, _two_point),
    "interval_boundary_design": ("D or A", None, _interval),
    "two_factor_design": ("D or A", None, _two_factor),
    "corner_design_multifactor": ("D or A", None, _corner),
    "axis_design": ("any k", None, _axis),
    "hypercube_linear_design": ("D or A", None, _layers),
    "saturated_weights": ("D or A", "p", _saturated),
    "fourpoint_d_weights": ("D only", "p+1", _fourpoint),
    "phik_axis_weights": ("any k", None, _axis_weights),
}
