"""Approximate designs, design regions, and the Kiefer criterion family.

An approximate design is a finitely supported probability measure on the
design region.  All criteria are written so that smaller is better; the
D criterion is the k -> 0 limit and the E criterion the k -> infinity limit
of the family ((1/p) trace M^-k)^(1/k).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import CriterionOverflowError, SingularMatrixError
from .models import ModelSpec, _integer_at_least, intensity_many, regression_matrix

# Two coordinates are the same point when they agree after rounding to this
# many significant digits.
CANONICAL_DIGITS = 12

# Weight vectors must sum to one within this absolute slack.
WEIGHT_SUM_TOL = 1e-12

# An eigenvalue at or below this multiple of the largest one marks the
# matrix as singular.
SINGULARITY_RATIO = 1e-10

# Natural log of the largest finite double.
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)

# Relative asymmetry above this rejects a matrix as non-symmetric.
SYMMETRY_RTOL = 1e-10

# Candidate rows are scored in blocks of at most this many rows, written into
# one output array.  A block's temporaries (about 0.4 MB at p = 2) stay in a
# core's L2 cache, and a scan holds little beyond its candidates and output,
# so glibc keeps the heap pages it used for the next scan instead of trimming
# them and faulting them in again.  At 32768 rows a 10^5-point verify sat at
# the trim threshold: some processes kept the pages and some did not, and
# their speeds differed by about 20%.
ROW_BLOCK = 8192


def canonical_point(x) -> tuple[float, ...]:
    """Round each coordinate to 12 significant digits; the identity key for points."""
    return _canonical_keys([np.atleast_1d(np.asarray(x, dtype=float)).tolist()])[0]


def _canonical_keys(rows: list[list[float]]) -> list[tuple[float, ...]]:
    """The canonical_point key of each row of Python floats."""
    fmt = f"%.{CANONICAL_DIGITS}g"
    return [tuple([float(fmt % c) for c in row]) for row in rows]


def parse_criterion_order(value) -> float:
    """Accept a nonnegative real or the string 'inf' and return the order k."""
    if isinstance(value, str):
        if value.strip().lower() in {"inf", "infinity"}:
            return math.inf
        value = float(value)
    k = float(value)
    if math.isnan(k) or k < 0.0:
        raise ValueError("criterion order k must be a real number in [0, inf]")
    return k


@dataclass(frozen=True)
class Design:
    """A finitely supported probability measure: points and matching weights."""

    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("a design needs at least one point of fixed dimension")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must align one-to-one with points")
        if not np.isfinite(pts).all() or not np.isfinite(w).all():
            raise ValueError("design points and weights must be finite")
        if (w <= 0.0).any():
            raise ValueError("design weights must be strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(
                f"design weights sum to {float(w.sum())!r}, outside 1 +/- {WEIGHT_SUM_TOL}"
            )
        rows = pts.tolist()
        if len(set(_canonical_keys(rows))) != len(rows):
            raise ValueError("design points must be pairwise distinct")
        object.__setattr__(self, "points", tuple(map(tuple, rows)))
        object.__setattr__(self, "weights", tuple(w.tolist()))

    @classmethod
    def from_arrays(cls, points, weights) -> "Design":
        # __post_init__ converts the arrays to the stored tuples
        return cls(np.asarray(points, dtype=float), np.asarray(weights, dtype=float))

    @property
    def point_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @property
    def nu(self) -> int:
        return len(self.points[0])

    @property
    def size(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "weights": list(self.weights),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Design":
        if not isinstance(doc, dict) or set(doc) != {"points", "weights"}:
            raise ValueError("design document must have exactly 'points' and 'weights'")
        return cls.from_arrays(doc["points"], doc["weights"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Design":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Design regions


def _plain(value):
    """A field value as JSON data: tuples become lists, nested ones too."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


class _RegionFields:
    """A region's JSON descriptor is its TYPE plus its dataclass fields.

    Every region also knows its number of candidate points, ``size``,
    without building any, and yields its candidates one _row_blocks(size)
    slice at a time from ``candidate_blocks``.
    """

    def candidate_blocks(self):
        """The candidate points, in order, one _row_blocks slice at a time.

        This default slices candidate_points(); a region that can write its
        points a block at a time overrides it.
        """
        pts = self.candidate_points()
        for b in _row_blocks(len(pts)):
            yield pts[b]

    def to_dict(self) -> dict:
        return {"type": self.TYPE, **{f.name: _plain(getattr(self, f.name)) for f in fields(self)}}

    def label(self) -> str:
        args = ", ".join(f"{f.name}={_plain(getattr(self, f.name))}" for f in fields(self))
        return f"{self.TYPE}({args})"


@dataclass(frozen=True)
class FiniteSet(_RegionFields):
    """An explicit finite list of candidate points."""

    TYPE = "finite_set"

    points: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("finite_set needs at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("finite_set points must be finite")
        object.__setattr__(self, "points", tuple(map(tuple, pts)))

    @property
    def nu(self) -> int:
        return len(self.points[0])

    @property
    def size(self) -> int:
        return len(self.points)

    def label(self) -> str:
        return f"finite_set({len(self.points)} points)"

    def candidate_points(self) -> np.ndarray:
        return _lexsorted(np.asarray(self.points, dtype=float))


@dataclass(frozen=True)
class BinaryHypercube(_RegionFields):
    """All 2^nu corners of {0, 1}^nu."""

    TYPE = "binary_hypercube"

    nu: int

    def __post_init__(self) -> None:
        nu = _integer_at_least(self.nu, 1, "binary_hypercube needs a positive integer dimension")
        object.__setattr__(self, "nu", nu)

    @property
    def size(self) -> int:
        return 2**self.nu

    def candidate_points(self) -> np.ndarray:
        corners = list(itertools.product((0.0, 1.0), repeat=self.nu))
        return np.asarray(corners, dtype=float)


@dataclass(frozen=True)
class GridBox(_RegionFields):
    """A per-axis uniform grid over a box, endpoints included."""

    TYPE = "grid_box"

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    resolution: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        res = np.atleast_1d(np.asarray(self.resolution))
        if not (lo.shape == hi.shape == res.shape) or lo.ndim != 1:
            raise ValueError("grid_box lower/upper/resolution must have equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("grid_box bounds must be finite")
        if (hi <= lo).any():
            raise ValueError("grid_box requires lower < upper on every axis")
        message = "grid_box needs an integer resolution >= 2 per axis"
        res = tuple(_integer_at_least(v, 2, message) for v in res)
        object.__setattr__(self, "lower", tuple(float(v) for v in lo))
        object.__setattr__(self, "upper", tuple(float(v) for v in hi))
        object.__setattr__(self, "resolution", res)

    @property
    def nu(self) -> int:
        return len(self.lower)

    @property
    def size(self) -> int:
        return math.prod(self.resolution)

    def candidate_points(self) -> np.ndarray:
        # the blocks written into one array, so that one rule makes every node
        pts = np.empty((self.size, self.nu))
        for b, block in zip(_row_blocks(self.size), self.candidate_blocks()):
            pts[b] = block
        return pts

    def candidate_blocks(self):
        """The nodes of each _row_blocks slice in lexicographic order, written
        into one reused C-ordered (m, nu) buffer; one axis yields views of its
        np.linspace instead.

        Node j takes entry (j // r) % n of the linspace of an axis of n nodes,
        r being the number of nodes of the axes after it.  The last axis
        (r = 1) is a slice of its linspace tiled to cover any block; every
        other axis is np.repeat of its values with run lengths r, the first
        and last run cut to the block.
        """
        axes = [np.linspace(lo, hi, n) for lo, hi, n in zip(self.lower, self.upper, self.resolution)]
        blocks = _row_blocks(self.size)
        if self.nu == 1:
            column = axes[0][:, None]
            for b in blocks:
                yield column[b]
            return
        *leading, last = axes
        runs = [math.prod(self.resolution[i + 1:]) for i in range(len(leading))]
        longest = max(b.stop - b.start for b in blocks)
        tiled = np.tile(last, 1 - (-(longest - 1) // last.size))
        buf = np.empty((longest, self.nu))
        for b in blocks:
            start, stop = b.start, b.stop
            out = buf[: stop - start]
            for axis, r, column in zip(leading, runs, out.T):
                q = np.arange(start // r, (stop - 1) // r + 1)
                lengths = np.full(q.size, r)
                lengths[0] -= start - q[0] * r
                lengths[-1] -= (q[-1] + 1) * r - stop
                column[...] = np.repeat(axis[q % axis.size], lengths)
            offset = start % last.size
            out[:, -1] = tiled[offset : offset + stop - start]
            yield out


@dataclass(frozen=True)
class AxisSet(_RegionFields):
    """The nu points a_i e_i, one on each coordinate axis."""

    TYPE = "axis_set"

    a: tuple[float, ...]

    def __post_init__(self) -> None:
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if a.ndim != 1 or a.shape[0] < 1:
            raise ValueError("axis_set needs at least one scale")
        if not np.isfinite(a).all() or (a <= 0.0).any():
            raise ValueError("axis_set scales must be finite and strictly positive")
        object.__setattr__(self, "a", tuple(float(v) for v in a))

    @property
    def nu(self) -> int:
        return len(self.a)

    @property
    def size(self) -> int:
        return len(self.a)

    def candidate_points(self) -> np.ndarray:
        return _lexsorted(np.diag(np.asarray(self.a, dtype=float)))


Region = FiniteSet | BinaryHypercube | GridBox | AxisSet

REGION_TYPES = {cls.TYPE: cls for cls in (FiniteSet, BinaryHypercube, GridBox, AxisSet)}


def _lexsorted(pts: np.ndarray) -> np.ndarray:
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def region_points(region: Region) -> np.ndarray:
    """Candidate points of a region in lexicographic coordinate order."""
    return region.candidate_points()


def _model_size(spec: ModelSpec, region: Region) -> int:
    """The region's number of candidate points, found without building any:
    ValueError when the region's dimension is not the model's of spec, or
    when it has no points."""
    if region.nu != spec.nu:
        raise ValueError(f"region has dimension {region.nu} but the model has nu = {spec.nu}")
    n = region.size
    if n == 0:
        raise ValueError("region is empty")
    return n


def _model_candidates(spec: ModelSpec, region: Region) -> np.ndarray:
    """region_points for the model of spec, after the checks of _model_size."""
    _model_size(spec, region)
    return region_points(region)


def region_label(region: Region) -> str:
    return region.label()


def region_from_dict(doc: dict) -> Region:
    """Build a region from its JSON descriptor."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("region descriptor must be an object with a 'type' field")
    kind = doc["type"]
    cls = REGION_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown region type {kind!r}")
    names = [f.name for f in fields(cls)]
    for name in names:
        if name not in doc:
            raise ValueError(f"region {kind!r} is missing field {name!r}")
    region = cls(**{name: doc[name] for name in names})
    extra = set(doc) - {"type", *names}
    if extra:
        raise ValueError(f"region {kind!r} has unexpected fields {sorted(extra)}")
    return region


def region_to_dict(region: Region) -> dict:
    return region.to_dict()


# ---------------------------------------------------------------------------
# Information matrices and criteria


def _scaled_rows(spec: ModelSpec, pts: np.ndarray) -> np.ndarray:
    """Rows sqrt(u_i) f(x_i); the information matrix is G^T diag(w) G."""
    F = regression_matrix(spec, pts)
    u = intensity_many(spec, pts)
    return F * np.sqrt(u)[:, None]


def weighted_information(spec: ModelSpec, points, weights) -> np.ndarray:
    """Sum of w_i u_i f(x_i) f(x_i)^T without any normalization of w.

    Positively homogeneous of degree one in the weights; ``information_matrix``
    is this accumulator applied to a Design's probability weights.  Weights
    must be finite, nonnegative and one per point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    if w.shape != (pts.shape[0],) or not np.isfinite(w).all() or (w < 0.0).any():
        raise ValueError("weights must be finite, nonnegative and one per point")
    G = _scaled_rows(spec, pts) * np.sqrt(w)[:, None]
    M = G.T @ G
    return (M + M.T) / 2.0


def information_matrix(design: Design, spec: ModelSpec) -> np.ndarray:
    """The p x p information matrix of a design at the localizing parameter."""
    return weighted_information(spec, design.point_array, design.weight_array)


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.abs(M).max()))
    if float(np.abs(M - M.T).max()) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return M


def _nonsingular(lam: np.ndarray) -> np.ndarray:
    """True where ascending eigenvalues (last axis) pass the SINGULARITY_RATIO
    gate; lam.T[i] is entry i of that axis for one matrix or a stack."""
    lo, hi = lam.T[0], lam.T[-1]
    return (hi > 0.0) & (lo > SINGULARITY_RATIO * hi)


def _gate(lam: np.ndarray) -> np.ndarray:
    if not _nonsingular(lam):
        raise SingularMatrixError(
            f"information matrix is singular (eigenvalue range {float(lam[0])!r} to {float(lam[-1])!r})"
        )
    return lam


def _eigvals_checked(M: np.ndarray) -> np.ndarray:
    return _gate(np.linalg.eigvalsh(_check_symmetric(M)))


def _row_blocks(n: int) -> list[slice]:
    """ceil(n / ROW_BLOCK) consecutive slices of near-equal length over range(n).

    For n > ROW_BLOCK >= 4 every block holds at least two rows: numpy scores
    a single row through gemv, which rounds differently from gemm for p >= 4.
    """
    m = -(-n // ROW_BLOCK)
    return [slice(n * i // m, n * (i + 1) // m) for i in range(m)]


class _EigenState:
    """Eigen core of the order-k equivalence theorem for M = G^T diag(w) G.

    M is never formed: the thin SVD of diag(w)^1/2 G gives its ascending
    eigenvalues lam = sigma^2 and eigenvectors Q to the accuracy of G, not of
    M with its squared condition number.  Holds B = Q lam^-(k+1)/2, so that
    f^T M^-(k+1) f = ||B^T f||^2, and the bound trace M^-k.  Raises
    SingularMatrixError for fewer rows than parameters or past the
    SINGULARITY_RATIO gate, and CriterionOverflowError when the bound or B
    would leave the double range.
    """

    def __init__(self, G: np.ndarray, w: np.ndarray, k: float):
        n, p = G.shape
        if n < p:
            raise SingularMatrixError(f"information matrix is singular ({n} rows, {p} parameters)")
        _, sigma, Vt = np.linalg.svd(G * np.sqrt(w)[:, None], full_matrices=False)
        lam = _gate(sigma[::-1] ** 2)
        # lam^-k and lam^-(k+1)/2 peak at lam[0]; p such terms must stay finite
        if max(k, (k + 1.0) / 2.0) * -math.log(lam[0]) + math.log(p) >= _LOG_DOUBLE_MAX:
            raise CriterionOverflowError(
                f"trace M^-k or M^-(k+1) overflows at order k={k!r} "
                f"(smallest eigenvalue {float(lam[0])!r})"
            )
        self.lam, self.k = lam, k
        self.Q = np.ascontiguousarray(Vt[::-1].T)
        self.B = self.Q * lam ** (-(k + 1.0) / 2.0)
        self.bound = float((lam ** -k).sum())

    def _rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """A block's rows f and intensities u; these inputs are sqrt(u) f
        already, so there is no u to apply (None)."""
        return X, None

    def scored_blocks(self, blocks, out: np.ndarray | None = None):
        """Yield (X, s) for each block X of inputs, s its sensitivities
        u ||B^T f||^2.

        s is the next len(X) entries of out, or without out the head of one
        reused buffer of ROW_BLOCK entries, so blocks must then hold at most
        ROW_BLOCK rows.  Each block forms FB = F B, sums its squares into s
        (_squared_row_norms) and scales s by u in place, so a block allocates
        only FB.  The first block whose _rows raises decides the error;
        overflow is raised once every block has run.
        """
        reuse = out is None
        if reuse:
            out = np.empty(ROW_BLOCK)
        start, overflow = 0, False
        for X in blocks:
            s = out[start : start + X.shape[0]]
            if not reuse:
                start += X.shape[0]
            F, u = self._rows(X)
            with np.errstate(over="ignore", invalid="ignore"):
                _squared_row_norms(F @ self.B, s)
                if u is not None:
                    s *= u
            # sensitivities are never negative, and a NaN fails the comparison
            overflow = overflow or (s.size > 0 and not s.max() < math.inf)
            yield X, s
        if overflow:
            raise CriterionOverflowError(
                f"sensitivity overflows at order k={self.k!r} on some candidate point"
            )

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Sensitivities of the inputs X, scored ROW_BLOCK rows at a time
        into one output array by scored_blocks."""
        sens = np.empty(X.shape[0])
        for _ in self.scored_blocks((X[b] for b in _row_blocks(X.shape[0])), sens):
            pass
        return sens


def _squared_row_norms(FB: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the squared row norms of FB into out, overwriting FB.

    The squares are summed in numpy's own einsum("ij,ij->i") order for
    fewer than 8 columns: even columns and odd columns as two running sums,
    kept in FB's first two columns, then the two added.  So the result is
    that einsum's bit for bit, in a few passes over whole columns instead of
    one short dot product per row, and nothing is allocated.
    """
    sq = np.multiply(FB, FB, out=FB).T
    if sq.shape[0] == 1:
        out[...] = sq[0]
        return out
    lanes = sq[0], sq[1]
    for j in range(2, sq.shape[0]):
        np.add(lanes[j % 2], sq[j], out=lanes[j % 2])
    return np.add(*lanes, out=out)


def _symmetric_terms(G: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row subsets T (one per row) and coefficients c_T with
    e_m(eigenvalues of G^T diag(w) G) = sum_T c_T prod_{i in T} w_i.

    Cauchy-Binet twice: e_m is the sum of the principal m-minors of M, and the
    minor on columns S is sum_T prod_T w_i det(G_TS)^2, so c_T = det(G_T G_T^T)
    is a sum of squares and every e_m is a sum of non-negative products.
    """
    r, p = G.shape
    subsets = list(itertools.combinations(range(r), m))
    T = np.array(subsets, dtype=np.intp).reshape(len(subsets), m)
    GT = G[T]
    c = sum(np.linalg.det(GT[:, :, list(S)]) ** 2 for S in itertools.combinations(range(p), m))
    return T, c


def min_eigenvalue(M) -> float:
    """Smallest eigenvalue of a symmetric matrix (no singularity gate)."""
    lam = np.linalg.eigvalsh(_check_symmetric(M))
    return float(lam[0])


def _phi_from_eigenvalues(lam: np.ndarray, k: float) -> np.ndarray:
    """Criterion values from ascending, positive eigenvalues on the last axis."""
    p = lam.shape[-1]
    if k == 0.0:
        return np.exp(-np.log(lam).sum(axis=-1) / p)
    lo = lam.T[0]
    if math.isinf(k):
        return 1.0 / lo
    s = ((lo / lam.T) ** k).sum(axis=0)  # ratios in (0, 1]
    return np.exp(np.log(s / p) / k) / lo


def phi_k_of_matrix(M, k: float) -> float:
    """The order-k criterion of an information matrix; smaller is better.

    k = 0 gives the determinant-based value, k = inf the reciprocal of the
    smallest eigenvalue, and 0 < k < inf the power mean
    ((1/p) trace M^-k)^(1/k).  Large k is evaluated in log space so that it
    approaches the k = inf limit without overflow.
    """
    k = parse_criterion_order(k)
    return float(_phi_from_eigenvalues(_eigvals_checked(M), k))


def _design_eigenvalues(design: Design, spec: ModelSpec) -> np.ndarray:
    """Gated ascending eigenvalues of the information matrix, taken from the
    SVD of its square root as the certificate does, to the accuracy of G."""
    return _EigenState(_scaled_rows(spec, design.point_array), design.weight_array, 0.0).lam


def phi_k_value(design: Design, spec: ModelSpec, k: float) -> float:
    """The order-k criterion of a design's information matrix; see phi_k_of_matrix."""
    k = parse_criterion_order(k)
    return float(_phi_from_eigenvalues(_design_eigenvalues(design, spec), k))


def a_value(design: Design, spec: ModelSpec) -> float:
    """The classical A value trace(M^-1); equals p times the order-1 criterion."""
    return float((1.0 / _design_eigenvalues(design, spec)).sum())
