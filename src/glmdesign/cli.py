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

from .constructors import CONSTRUCTORS, ConstructResult
from .designs import Design, FiniteSet, parse_criterion_order, region_from_dict
from .equivalence import _scan_rows, verify_design, write_scan_csv
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
        try:
            out.append(float(v))
        except OverflowError:
            raise ConfigError(f"{field} must contain numbers within the double range") from None
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


def _construct(cfg: dict, spec: ModelSpec, k: float, region) -> ConstructResult:
    name = cfg.get("constructor")
    _require(isinstance(name, str), "task 'construct' requires a constructor name")
    _require(name in CONSTRUCTORS, f"unknown constructor {name!r}")
    rule, support, build = CONSTRUCTORS[name]
    criterion = k if rule == "any k" else {0.0: "D", 1.0: "A"}.get(k)
    _require(rule != "D only" or criterion == "D", f"{name} is a D construction; set criterion.k = 0")
    _require(criterion is not None,
             f"constructor {name!r} supports k=0 (D) or k=1 (A) only, got k={k!r}")
    if support is not None:
        _require(isinstance(region, FiniteSet),
                 f"constructor {name!r} takes its support from a finite_set region")
        count = {"p": spec.p, "p+1": spec.p + 1}.get(support, support)
        _require(len(region.points) == count,
                 f"constructor {name!r} needs a finite_set of exactly {count} points")
        _require(region.nu == spec.nu,
                 f"constructor {name!r} needs {spec.nu}-dimensional finite_set points")
    a = cfg.get("a")
    a = _as_number_list([1.0] * spec.nu if a is None else a, "a")
    return build(spec, criterion, region=region, a=a)


def _validate_top_level(cfg) -> None:
    _require(isinstance(cfg, dict), "configuration must be a JSON object")
    extra = set(cfg) - _TOP_LEVEL_KEYS
    _require(not extra, f"unexpected configuration fields {sorted(extra)}")
    task = cfg.get("task")
    _require(task in _TASKS, f"task must be one of {list(_TASKS)}")
    _require("model" in cfg, "model is required")
    _require("criterion" in cfg, "criterion is required")
    tol = cfg.get("tolerance", 1e-7)
    _require(isinstance(tol, (int, float)) and not isinstance(tol, bool)
             and 0 < tol <= sys.float_info.max,
             "tolerance must be a finite positive number")


def execute(cfg: dict, out_path: str | None = None) -> tuple[int, str]:
    """Run one job; returns (exit code, stdout text).  Scan CSVs are written
    to ``out_path``.  A non-finite number in the result raises ValueError,
    because stdout carries strict JSON."""
    _validate_top_level(cfg)
    task = cfg["task"]
    tolerance = float(cfg.get("tolerance", 1e-7))
    spec = _build_spec(cfg["model"])
    k = _parse_k(cfg["criterion"])
    region = _parse_region(cfg.get("region"))
    if task != "construct":
        _require(region is not None, f"task {task!r} requires a region")
        _require(math.isfinite(k), f"task {task!r} requires a finite criterion order")
        _require(region.nu == spec.nu,
                 f"region has dimension {region.nu} but the model has nu = {spec.nu}")
    if task in ("verify", "scan"):
        _require("design_in" in cfg, f"task {task!r} requires design_in")
        design = _parse_design(cfg["design_in"])

    code = EXIT_OK
    if task == "construct":
        doc = _construct(cfg, spec, k, region).to_dict()
    elif task == "optimize":
        result = optimize_design(spec, region, k, OptimizerOptions(convergence_tol=tolerance))
        doc = {
            "design": result.design.to_dict(),
            "report": result.report.to_dict(),
            "converged": result.converged,
            "iterations": result.iterations,
        }
        code = EXIT_OK if result.report.passed else EXIT_VERIFY_FAILED
    elif task == "verify":
        report = verify_design(design, spec, k, region, tol=tolerance)
        doc = report.to_dict()
        code = EXIT_OK if report.passed else EXIT_VERIFY_FAILED
    else:
        _require(out_path is not None, "task 'scan' requires --out PATH for the CSV table")
        n, bound, rows = _scan_rows(design, spec, k, region)
        write_scan_csv(rows, out_path)
        doc = {"rows": n, "bound": bound, "out": str(out_path)}
    return code, json.dumps(doc, indent=2, allow_nan=False) + "\n"


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
