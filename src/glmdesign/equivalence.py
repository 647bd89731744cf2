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

import numpy as np

from . import designs
from .designs import (
    Design,
    Region,
    _EigenState,
    _row_blocks,
    _scaled_rows,
    parse_criterion_order,
    region_label,
    region_points,
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
        k = parse_criterion_order(k)
        if math.isinf(k):
            raise ValueError("equivalence certification is defined for finite order k only")
        super().__init__(_scaled_rows(spec, design.point_array), design.weight_array, k)
        self.spec = spec

    def _rows(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return regression_matrix(self.spec, pts), intensity_many(self.spec, pts)

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
    """Scan a region and report whether the design certifies as order-k optimal."""
    if not (0.0 < tol < math.inf):
        raise ValueError("tolerance must be finite and positive")
    cand = region_points(region)
    if cand.shape[0] == 0:
        raise ValueError("verification region is empty")
    kernel = _SensitivityKernel(design, spec, k)
    gaps = kernel.many(cand) - kernel.bound
    # candidates are lexicographically sorted, so the first argmax is the
    # lexicographically smallest worst point
    idx = int(np.argmax(gaps))
    support_sens = kernel.many(design.point_array)
    residuals = np.abs(support_sens - kernel.bound)
    limit = tol * kernel.bound
    passed = bool(gaps[idx] <= limit and (residuals <= limit).all())
    return VerificationReport(
        bound=kernel.bound,
        worst_gap=float(gaps[idx]),
        worst_point=tuple(float(c) for c in cand[idx]),
        support_residuals=tuple(float(r) for r in residuals),
        passed=passed,
        tolerance=float(tol),
        region=region_label(region),
        candidates=int(cand.shape[0]),
    )


def sensitivity_scan(
    design: Design, spec: ModelSpec, k: float, region: Region
) -> list[tuple[tuple[float, ...], float, float]]:
    """Tabulate (point, sensitivity, bound) over the region in lexicographic order.

    Each row is a tuple of Python floats (the point), then the sensitivity
    and the bound as Python floats.  Rows are built column by column, one
    row block at a time, so no list of every coordinate is held at once.
    """
    cand = region_points(region)
    if cand.shape[0] == 0:
        raise ValueError("scan region is empty")
    kernel = _SensitivityKernel(design, spec, k)
    sens = kernel.many(cand)
    rows: list[tuple[tuple[float, ...], float, float]] = []
    for b in _row_blocks(cand.shape[0]):
        points = zip(*cand[b].T.tolist())
        rows.extend(zip(points, sens[b].tolist(), itertools.repeat(kernel.bound)))
    return rows


def write_scan_csv(rows, out) -> None:
    """Write a scan table as CSV with 17-significant-digit decimal floats.

    ``out`` is a path or an open text file.  A path is rewritten in place
    and then cut to the length written, not truncated first: truncating a
    large file written moments earlier can stall far longer than writing
    it.  On any exit a regular file holds exactly what was written; a
    target that is not a regular file (a pipe, ``os.devnull``) is only
    written.  An open file is written at its position and left open.
    """
    if not rows:
        raise ValueError("cannot write an empty scan")
    nu = len(rows[0][0])
    header = ",".join([f"x{i + 1}" for i in range(nu)] + ["sensitivity", "bound"])
    # %-formatting a float and format(v, ".17g") produce the same digits
    line = ",".join([f"%.{SCAN_DIGITS}g"] * (nu + 2)) + "\n"

    def emit(fh) -> None:
        fh.write(header + "\n")
        step = designs.ROW_BLOCK
        for start in range(0, len(rows), step):
            fh.write("".join([line % (*pt, s, b) for pt, s, b in rows[start:start + step]]))

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
