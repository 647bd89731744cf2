"""Command-line entry point.

Reads a JSON job description, runs one of the four tasks (construct,
optimize, verify, scan), and emits machine-readable JSON (or CSV for scans).
Exit codes: 0 success or certified pass, 1 verification failure (the report
is still emitted), 2 malformed configuration, 3 model or domain error.
Identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .constructors import (
    ConstructResult,
    axis_design,
    binary_two_point_design,
    corner_design_multifactor,
    fourpoint_d_weights,
    hypercube_linear_design,
    interval_boundary_design,
    phik_axis_weights,
    saturated_weights,
    two_factor_design,
)
from .designs import Design, parse_criterion_order, region_from_dict
from .equivalence import sensitivity_scan, verify_design, write_scan_csv
from .errors import ConvergenceError, DomainError
from .models import (
    BUILTIN_FAMILIES,
    SINGLE_FACTOR_INTERCEPT,
    ModelSpec,
    RegressionKind,
)
from .optimize import OptimizerOptions, optimize_design

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SCHEMA = 2
EXIT_MODEL = 3

_TASKS = ("construct", "optimize", "verify", "scan")

_TOP_LEVEL_KEYS = {
    "task",
    "model",
    "criterion",
    "region",
    "constructor",
    "a",
    "design_in",
    "tolerance",
    "grid",
}


class ConfigError(ValueError):
    """The job description violates the configuration schema."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _as_number_list(value, field: str) -> list[float]:
    _require(isinstance(value, (list, tuple)) and len(value) > 0,
             f"{field} must be a nonempty array of numbers")
    out = []
    for v in value:
        _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                 f"{field} must contain numbers only")
        out.append(float(v))
    return out


def _build_spec(doc) -> ModelSpec:
    _require(isinstance(doc, dict), "model must be an object")
    _require(set(doc) <= {"family", "kind", "nu", "beta"},
             f"model has unexpected fields {sorted(set(doc) - {'family', 'kind', 'nu', 'beta'})}")
    family_name = doc.get("family")
    _require(isinstance(family_name, str) and family_name in BUILTIN_FAMILIES,
             f"model.family must be one of {sorted(BUILTIN_FAMILIES)}")
    kind_name = doc.get("kind")
    nu = doc.get("nu", 1 if kind_name == SINGLE_FACTOR_INTERCEPT else None)
    _require(isinstance(nu, int) and not isinstance(nu, bool) and nu >= 1,
             "model.nu must be a positive integer")
    _require("beta" in doc, "model.beta is required")
    beta = _as_number_list(doc["beta"], "model.beta")
    try:
        kind = RegressionKind(kind_name, nu)
        return ModelSpec(BUILTIN_FAMILIES[family_name], kind, tuple(beta))
    except DomainError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_k(doc) -> float:
    _require(isinstance(doc, dict) and set(doc) == {"k"},
             "criterion must be an object with the single field 'k'")
    value = doc["k"]
    ok_type = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(ok_type or isinstance(value, str), "criterion.k must be a number or 'inf'")
    try:
        return parse_criterion_order(value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_region(doc):
    if doc is None:
        return None
    try:
        return region_from_dict(doc)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid region: {exc}") from None


def _parse_design(doc) -> Design:
    _require(isinstance(doc, dict), "design_in must be an object")
    try:
        return Design.from_dict(doc)
    except ValueError as exc:
        raise ConfigError(f"invalid design_in: {exc}") from None


def _da_criterion(k: float, constructor: str) -> str:
    if k == 0.0:
        return "D"
    if k == 1.0:
        return "A"
    raise ConfigError(
        f"constructor {constructor!r} supports k=0 (D) or k=1 (A) only, got k={k!r}"
    )


def _finite_set_points(region, constructor: str, count: int | None = None):
    from .designs import FiniteSet

    _require(region is not None and isinstance(region, FiniteSet),
             f"constructor {constructor!r} takes its support from a finite_set region")
    pts = [list(p) for p in region.points]
    if count is not None:
        _require(len(pts) == count,
                 f"constructor {constructor!r} needs a finite_set of exactly {count} points")
    return pts


def _run_construct(cfg: dict) -> ConstructResult:
    name = cfg.get("constructor")
    _require(isinstance(name, str), "task 'construct' requires a constructor name")
    spec = _build_spec(cfg.get("model"))
    k = _parse_k(cfg.get("criterion"))
    region = _parse_region(cfg.get("region"))
    a = cfg.get("a")
    grid = cfg.get("grid")
    if grid is not None:
        grid = [int(v) for v in _as_number_list(grid, "grid")]

    if name == "binary_two_point_design":
        pts = _finite_set_points(region, name, 2)
        _require(all(len(p) == 1 for p in pts),
                 "binary_two_point_design needs two one-dimensional points")
        crit = _da_criterion(k, name)
        design = binary_two_point_design(spec, pts[0][0], pts[1][0], crit)
        return ConstructResult(design, f"{crit}-2pt", True, 0.0)
    if name == "interval_boundary_design":
        crit = _da_criterion(k, name)
        grid_n = grid[0] if grid else 999
        return interval_boundary_design(spec, crit, grid_n=grid_n)
    if name == "two_factor_design":
        return two_factor_design(spec, _da_criterion(k, name))
    if name == "corner_design_multifactor":
        return corner_design_multifactor(spec, _da_criterion(k, name))
    if name == "axis_design":
        avec = a if a is not None else [1.0] * spec.nu
        return axis_design(spec, _as_number_list(avec, "a"), k, region)
    if name == "hypercube_linear_design":
        crit = _da_criterion(k, name)
        design = hypercube_linear_design(spec.nu, crit)
        return ConstructResult(design, f"{crit}-layers", True, 0.0)
    if name == "saturated_weights":
        crit = _da_criterion(k, name)
        pts = _finite_set_points(region, name, spec.p)
        w = saturated_weights(spec, pts, crit)
        return ConstructResult(Design.from_arrays(pts, w), f"saturated-{crit}", True, 0.0)
    if name == "fourpoint_d_weights":
        _require(k == 0.0, "fourpoint_d_weights is a D construction; set criterion.k = 0")
        pts = _finite_set_points(region, name, 4)
        w = fourpoint_d_weights(spec, pts)
        return ConstructResult(Design.from_arrays(pts, w), "fourpoint-D", True, 0.0)
    if name == "phik_axis_weights":
        avec = a if a is not None else [1.0] * spec.nu
        avec = _as_number_list(avec, "a")
        w = phik_axis_weights(spec, avec, k)
        import numpy as np

        return ConstructResult(
            Design.from_arrays(np.diag(np.asarray(avec)), w), "axis-weights", True, 0.0
        )
    raise ConfigError(f"unknown constructor {name!r}")


def _validate_top_level(cfg) -> None:
    _require(isinstance(cfg, dict), "configuration must be a JSON object")
    extra = set(cfg) - _TOP_LEVEL_KEYS
    _require(not extra, f"unexpected configuration fields {sorted(extra)}")
    task = cfg.get("task")
    _require(task in _TASKS, f"task must be one of {list(_TASKS)}")
    _require("model" in cfg, "model is required")
    _require("criterion" in cfg, "criterion is required")
    tol = cfg.get("tolerance", 1e-7)
    _require(isinstance(tol, (int, float)) and not isinstance(tol, bool) and tol > 0,
             "tolerance must be a positive number")


def execute(cfg: dict, out_path: str | None = None) -> tuple[int, str]:
    """Run one job; returns (exit code, stdout text).  Scan CSVs are written
    to ``out_path``."""
    _validate_top_level(cfg)
    task = cfg["task"]
    tolerance = float(cfg.get("tolerance", 1e-7))

    if task == "construct":
        result = _run_construct(cfg)
        return EXIT_OK, json.dumps(result.to_dict(), indent=2) + "\n"

    spec = _build_spec(cfg.get("model"))
    k = _parse_k(cfg.get("criterion"))
    region = _parse_region(cfg.get("region"))
    _require(region is not None, f"task {task!r} requires a region")

    if task == "optimize":
        _require(math.isfinite(k), "task 'optimize' requires a finite criterion order")
        result = optimize_design(spec, region, k, OptimizerOptions(convergence_tol=tolerance))
        doc = {
            "design": result.design.to_dict(),
            "report": result.report.to_dict(),
            "converged": result.converged,
            "iterations": result.iterations,
        }
        code = EXIT_OK if result.report.passed else EXIT_VERIFY_FAILED
        return code, json.dumps(doc, indent=2) + "\n"

    _require("design_in" in cfg, f"task {task!r} requires design_in")
    design = _parse_design(cfg["design_in"])

    if task == "verify":
        _require(math.isfinite(k), "task 'verify' requires a finite criterion order")
        report = verify_design(design, spec, k, region, tol=tolerance)
        code = EXIT_OK if report.passed else EXIT_VERIFY_FAILED
        return code, json.dumps(report.to_dict(), indent=2) + "\n"

    # task == "scan"
    _require(math.isfinite(k), "task 'scan' requires a finite criterion order")
    _require(out_path is not None, "task 'scan' requires --out PATH for the CSV table")
    rows = sensitivity_scan(design, spec, k, region)
    write_scan_csv(rows, out_path)
    doc = {"rows": len(rows), "bound": rows[0][2], "out": str(out_path)}
    return EXIT_OK, json.dumps(doc, indent=2) + "\n"


def _apply_override(cfg: dict, assignment: str) -> None:
    _require("=" in assignment, f"--set needs key=value, got {assignment!r}")
    path, raw = assignment.split("=", 1)
    keys = [key for key in path.strip().split(".") if key]
    _require(bool(keys), f"--set needs a dotted key path, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def _error_doc(kind: str, exc: Exception) -> str:
    return json.dumps({"error": kind, "message": str(exc)}) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="design",
        description="Construct, optimize, verify, or scan locally optimal GLM designs.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON job description")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a configuration entry via a dotted path (repeatable)",
    )
    parser.add_argument("--out", default=None, help="output path for scan CSV tables")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        for assignment in args.set:
            _apply_override(cfg, assignment)
        code, text = execute(cfg, out_path=args.out)
    except ConfigError as exc:
        sys.stdout.write(_error_doc("schema", exc))
        return EXIT_SCHEMA
    except (ValueError, ConvergenceError) as exc:
        # DomainError, SingularMatrixError and CriterionOverflowError are ValueErrors
        sys.stdout.write(_error_doc("model", exc))
        return EXIT_MODEL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
