"""Optimality certification through the general equivalence theorem.

A design is order-k optimal over a region exactly when its sensitivity
u(x, beta) f(x)^T M^-(k+1) f(x) stays below trace(M^-k) everywhere on the
region, with equality on the design's own support.  Certification here is
grid-based: the report records the region scanned, so a violation between
grid nodes is an explicit, documented limitation rather than a silent one.
"""

from __future__ import annotations

import itertools
import math
import os
import stat
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import designs
from .designs import (
    Design,
    Region,
    _EigenState,
    _finite_order,
    _model_size,
    _row_blocks,
    _scaled_rows,
    region_label,
)
from .models import ModelSpec, _as_points, intensity_many, regression_matrix

DEFAULT_TOLERANCE = 1e-7

# Number of significant digits used for CSV export of scan tables.
SCAN_DIGITS = 17


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an equivalence-theorem scan over a finite candidate set.

    ``passed`` requires both the worst sensitivity gap over the region and
    every support residual |sensitivity - bound| to stay within
    tolerance * bound.  The rule is relative to the bound because a common
    factor c in the intensities scales sensitivities and bound alike (by
    c^-k), so the verdict cannot depend on it.
    """

    bound: float
    worst_gap: float
    worst_point: tuple[float, ...]
    support_residuals: tuple[float, ...]
    passed: bool
    tolerance: float
    region: str
    candidates: int

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "worst_gap": self.worst_gap,
            "worst_point": list(self.worst_point),
            "support_residuals": list(self.support_residuals),
            "pass": self.passed,
            "tolerance": self.tolerance,
            "region": self.region,
            "candidates": self.candidates,
        }


class _SensitivityKernel(_EigenState):
    """Sensitivity evaluator for one (design, spec, k) triple."""

    def __init__(self, design: Design, spec: ModelSpec, k: float):
        k = _finite_order(k, "equivalence certification is defined for finite order k only")
        super().__init__(_scaled_rows(spec, design.point_array), design.weight_array, k)
        self.spec = spec

    def _rows(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # without an intercept f(x) = x: the points are the rows, only read
        F = regression_matrix(self.spec, pts) if self.spec.kind.intercept else pts
        return F, intensity_many(self.spec, pts)

    def many(self, pts) -> np.ndarray:
        return self.scores(_as_points(self.spec, pts))


def sensitivity_at(design: Design, spec: ModelSpec, k: float, x) -> float:
    """Sensitivity u(x) f(x)^T M^-(k+1) f(x) of the design at one point."""
    kernel = _SensitivityKernel(design, spec, k)
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    return float(kernel.many(pt[None, :])[0])


def equivalence_bound(design: Design, spec: ModelSpec, k: float) -> float:
    """The certification threshold trace(M^-k); equals p when k = 0."""
    return _SensitivityKernel(design, spec, k).bound


def verify_design(
    design: Design,
    spec: ModelSpec,
    k: float,
    region: Region,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Scan a region and report whether the design certifies as order-k optimal.

    The candidates are built, scored and reduced one row block at a time, so
    no array of the region's size is held: each block's gaps are taken in
    place and its worst one kept when it is strictly worse than every
    earlier block's.  Candidates come in lexicographic order, so the
    reported worst point is the lexicographically smallest worst point.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError("tolerance must be finite and positive")
    n = _model_size(spec, region)
    kernel = _SensitivityKernel(design, spec, k)
    bound = kernel.bound
    worst_gap, worst_point = -math.inf, ()
    for X, gaps in kernel.scored_blocks(region.candidate_blocks()):
        gaps -= bound
        i = int(np.argmax(gaps))
        if gaps[i] > worst_gap:
            # X may be a buffer the next block overwrites
            worst_gap, worst_point = float(gaps[i]), tuple(X[i].tolist())
    residuals = np.abs(kernel.many(design.point_array) - bound)
    limit = tol * bound
    passed = bool(worst_gap <= limit and (residuals <= limit).all())
    return VerificationReport(
        bound=bound,
        worst_gap=worst_gap,
        worst_point=worst_point,
        support_residuals=tuple(float(r) for r in residuals),
        passed=passed,
        tolerance=float(tol),
        region=region_label(region),
        candidates=n,
    )


def _scan_rows(design: Design, spec: ModelSpec, k: float, region: Region):
    """(n, bound, rows) of a scan: a first pass over the region's blocks
    scores all n sensitivities, so any error is raised before a table is
    written; a second pass builds the rows lazily, one block's zip at a time."""
    n = _model_size(spec, region)
    kernel = _SensitivityKernel(design, spec, k)
    sens = np.empty(n)
    for _ in kernel.scored_blocks(region.candidate_blocks(), sens):
        pass
    bound = kernel.bound
    rows = itertools.chain.from_iterable(
        zip(zip(*X.T.tolist()), sens[b].tolist(), itertools.repeat(bound))
        for X, b in zip(region.candidate_blocks(), _row_blocks(n))
    )
    return n, bound, rows


def sensitivity_scan(
    design: Design, spec: ModelSpec, k: float, region: Region
) -> list[tuple[tuple[float, ...], float, float]]:
    """Tabulate (point, sensitivity, bound) over the region in lexicographic order.

    Each row is a tuple of Python floats (the point), then the sensitivity
    and the bound as Python floats.  The list is filled from _scan_rows,
    whose rows are built column by column, one row block at a time; the
    command-line scan writes those rows without holding them all.
    """
    return list(_scan_rows(design, spec, k, region)[2])


class _Cells(dict):
    """Memo of the CSV text of each value of one column: %.17g, then the
    separator.  Zeros and NaNs are formatted but not kept: 0.0 == -0.0 while
    they print as 0 and -0, and a NaN never finds its own entry.  No other
    two equal floats print differently under %g."""

    def __init__(self, end: str):
        super().__init__()
        self.template = f"%.{SCAN_DIGITS}g{end}"

    def __missing__(self, value):
        text = self.template % value
        if value and value == value:
            self[value] = text
        return text


def write_scan_csv(rows, out) -> None:
    """Write a scan table as CSV with 17-significant-digit decimal floats.

    ``rows`` is any iterable of (point, sensitivity, bound) rows; it is read
    ROW_BLOCK rows at a time, so a lazy table is never held whole.  Each
    coordinate column and the bound column format every distinct value once
    (_Cells, cleared once it holds more than ROW_BLOCK values); each
    sensitivity is formatted on its own.  An empty table raises ValueError
    before ``out`` is opened; a point of another length than the first
    raises ValueError when its block is reached.

    ``out`` is a path or an open text file.  A path is rewritten in place
    and then cut to the length written, not truncated first: truncating a
    large file written moments earlier can stall far longer than writing
    it.  On any exit a regular file holds exactly what was written; a
    target that is not a regular file (a pipe, ``os.devnull``) is only
    written.  An open file is written at its position and left open.
    """
    step = designs.ROW_BLOCK
    rows = iter(rows)
    chunks = iter(lambda: list(itertools.islice(rows, step)), [])
    first = next(chunks, None)
    if first is None:
        raise ValueError("cannot write an empty scan")
    nu = len(first[0][0])
    width = nu + 2
    header = ",".join([f"x{i + 1}" for i in range(nu)] + ["sensitivity", "bound"]) + "\n"
    # %-formatting a float and format(v, ".17g") produce the same digits
    sensitivity = f"%.{SCAN_DIGITS}g,"
    memos = [_Cells(",") for _ in range(nu)] + [_Cells("\n")]  # coordinates, then the bound

    def emit(fh) -> None:
        fh.write(header)
        for chunk in itertools.chain([first], chunks):
            # columns are read with itemgetter: zip(*chunk) would make one
            # GC-tracked iterator per row and set off collections
            points = list(map(itemgetter(0), chunk))
            if set(map(len, points)) != {nu}:
                raise ValueError(f"every scan point must have {nu} coordinates")
            for memo in memos:
                if len(memo) > step:
                    memo.clear()
            cells = [""] * (width * len(chunk))
            for j in range(nu):
                cells[j::width] = map(memos[j].__getitem__, map(itemgetter(j), points))
            cells[nu::width] = map(sensitivity.__mod__, map(itemgetter(1), chunk))
            cells[nu + 1::width] = map(memos[nu].__getitem__, map(itemgetter(2), chunk))
            fh.write("".join(cells))

    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        fd = os.open(out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            try:
                emit(fh)
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
    else:
        emit(out)
