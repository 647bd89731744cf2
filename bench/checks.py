"""Output checks: the package's results against the independent reference
and against properties every optimal design must have.

No check compares against a stored copy of an earlier output.  Each check
returns a list of problems; an operation passes when the list is empty.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

import reference as R

# The package's default certification tolerance; the reference certifies at
# the same tolerance.
TOL = 1e-7

# Bound and worst gap of the package's report must match the reference to
# this multiple of max(1, |bound|).
AGREE = 1e-8

# Sensitivities parsed from a scan CSV must match the reference this closely
# (relative to max(1, |bound|)); the CSV carries 17 significant digits.
SCAN_RTOL = 1e-9


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {'; '.join(problems)}")
        return not problems


def on_simplex(weights) -> list[str]:
    w = np.asarray(weights, dtype=float)
    if (w < 0.0).any() or abs(float(w.sum()) - 1.0) > 1e-9:
        return [f"weights off the simplex (min {w.min():.3g}, sum {w.sum():.17g})"]
    return []


class Box(NamedTuple):
    lower: tuple
    upper: tuple


def in_region(points, allowed) -> list[str]:
    """``allowed`` is an array of admissible points or a Box."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(allowed, Box):
        lo, hi = np.asarray(allowed.lower, dtype=float), np.asarray(allowed.upper, dtype=float)
        ok = ((pts >= lo - 1e-12) & (pts <= hi + 1e-12)).all()
    else:
        cand = np.atleast_2d(np.asarray(allowed, dtype=float))
        ok = all(np.abs(cand - p).max(axis=1).min() <= 1e-12 for p in pts)
    return [] if ok else ["support outside the region"]


def _report_fields(report):
    if isinstance(report, dict):
        return report["pass"], report["bound"], report["worst_gap"], report["candidates"]
    return report.passed, report.bound, report.worst_gap, report.candidates


def certified(model: R.Model, k, points, weights, candidates, allowed, report=None) -> list[str]:
    """Problems with a design claimed optimal over ``candidates``.

    With a package report (object or CLI JSON) the report must pass and
    agree with the reference on the bound, the worst gap and the number of
    candidates; at k = 0 its bound must equal p.
    """
    problems = on_simplex(weights) + in_region(points, allowed)
    ok, bound, gap, resid = R.certify(model, k, points, weights, candidates, TOL)
    if not ok:
        problems.append(f"reference rejects (worst gap {gap:.3g}, support residual {resid:.3g})")
    if report is not None:
        passed, r_bound, r_gap, r_cand = _report_fields(report)
        scale = max(1.0, abs(bound))
        if not passed:
            problems.append(f"package report fails (worst gap {r_gap:.3g})")
        if abs(r_bound - bound) > AGREE * scale or abs(r_gap - gap) > AGREE * scale:
            problems.append(f"package bound/gap {r_bound!r}/{r_gap!r} vs reference {bound!r}/{gap!r}")
        if r_cand != len(candidates):
            problems.append(f"package scanned {r_cand} candidates, expected {len(candidates)}")
        if k == 0 and abs(r_bound - model.p) > AGREE * model.p:
            problems.append(f"D bound {r_bound!r} is not p = {model.p}")
    return problems


def scan_csv(path, model: R.Model, k, points, weights, candidates) -> list[str]:
    """A scan CSV must list every candidate with the reference sensitivity and bound."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    nu = candidates.shape[1]
    if table.shape != (candidates.shape[0], nu + 2):
        return [f"scan table has shape {table.shape}, expected ({candidates.shape[0]}, {nu + 2})"]
    M = R.information(model, points, weights)
    bound = R.bound(M, k)
    scale = max(1.0, abs(bound))
    problems = []
    if np.abs(table[:, :nu] - candidates).max() > 1e-12:
        problems.append("scan rows are not the region's points in order")
    sens = R.sensitivities(model, M, k, candidates)
    if np.abs(table[:, nu] - sens).max() > SCAN_RTOL * scale:
        problems.append("scan sensitivities differ from the reference")
    if np.abs(table[:, nu + 1] - bound).max() > SCAN_RTOL * scale:
        problems.append("scan bound differs from the reference")
    return problems


def weights_close(points_a, w_a, points_b, w_b, atol: float) -> list[str]:
    """Two weightings of (subsets of) one support agree point by point."""
    def by_point(points, weights):
        return {tuple(np.round(p, 12)): float(w) for p, w in zip(np.atleast_2d(points), weights)}

    a, b = by_point(points_a, w_a), by_point(points_b, w_b)
    worst = max(abs(a.get(p, 0.0) - b.get(p, 0.0)) for p in set(a) | set(b))
    return [] if worst <= atol else [f"weights differ by {worst:.3g} > {atol:.3g}"]
