"""Optimality certification through the general equivalence theorem.

A design is order-k optimal over a region exactly when its sensitivity
u(x, beta) f(x)^T M^-(k+1) f(x) stays below trace(M^-k) everywhere on the
region, with equality on the design's own support.  Certification here is
grid-based: the report records the region scanned, so a violation between
grid nodes is an explicit, documented limitation rather than a silent one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import (
    Design,
    Region,
    _eigen_basis,
    information_matrix,
    parse_criterion_order,
    region_label,
    region_points,
)
from .errors import CriterionOverflowError
from .models import ModelSpec, intensity_many, regression_matrix

DEFAULT_TOLERANCE = 1e-7

# Number of significant digits used for CSV export of scan tables.
SCAN_DIGITS = 17


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an equivalence-theorem scan over a finite candidate set.

    ``passed`` requires both the worst sensitivity gap over the region and
    every support residual |sensitivity - bound| to stay within
    tolerance * max(1, |bound|).
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


class _SensitivityKernel:
    """Factored sensitivity evaluator for one (design, spec, k) triple."""

    def __init__(self, design: Design, spec: ModelSpec, k: float):
        k = parse_criterion_order(k)
        if math.isinf(k):
            raise ValueError(
                "equivalence certification is defined for finite order k only"
            )
        self.spec = spec
        self.k = k
        # columns scaled so that sensitivity is u * ||B^T f||^2
        _, _, self._B, self.bound = _eigen_basis(information_matrix(design, spec), k)

    def many(self, pts: np.ndarray) -> np.ndarray:
        F = regression_matrix(self.spec, pts)
        u = intensity_many(self.spec, pts)
        with np.errstate(over="ignore", invalid="ignore"):
            FB = F @ self._B
            sens = u * np.einsum("ij,ij->i", FB, FB)
        if not np.isfinite(sens).all():
            raise CriterionOverflowError(
                f"sensitivity overflows at order k={self.k!r} on some candidate point"
            )
        return sens


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
    scale = max(1.0, abs(kernel.bound))
    passed = bool(gaps[idx] <= tol * scale and (residuals <= tol * scale).all())
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
    """Tabulate (point, sensitivity, bound) over the region in lexicographic order."""
    cand = region_points(region)
    if cand.shape[0] == 0:
        raise ValueError("scan region is empty")
    kernel = _SensitivityKernel(design, spec, k)
    sens = kernel.many(cand)
    return [
        (tuple(float(c) for c in pt), float(s), kernel.bound)
        for pt, s in zip(cand, sens)
    ]


def write_scan_csv(rows, out) -> None:
    """Write a scan table as CSV with 17-significant-digit decimal floats."""
    if not rows:
        raise ValueError("cannot write an empty scan")
    nu = len(rows[0][0])
    header = ",".join([f"x{i + 1}" for i in range(nu)] + ["sensitivity", "bound"])

    def fmt(v: float) -> str:
        return f"{v:.{SCAN_DIGITS}g}"

    def emit(fh) -> None:
        fh.write(header + "\n")
        for pt, sens, bound in rows:
            fh.write(",".join([fmt(c) for c in pt] + [fmt(sens), fmt(bound)]) + "\n")

    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            emit(fh)
    else:
        emit(out)
