"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function at every module binding:
``from .models import intensity_many`` copies the name into ``designs``,
``equivalence``, ``optimize`` and ``constructors``, so wrapping only
``glmdesign.models`` would miss every nested call.  ``uninstall`` puts the
originals back, so an untraced round runs the unwrapped program.

Spans (name, start, end, parent, operation id) are kept in memory and
written out once, at the end.  A span's self time is its duration minus the
time its child spans cover; calls run on one thread, so children nest and
never overlap.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from collections import Counter, defaultdict

MODULES = ("cli", "constructors", "optimize", "equivalence", "designs", "models")

CONSTRUCTORS = (
    "saturated_weights",
    "fourpoint_d_weights",
    "phik_axis_weights",
    "binary_two_point_design",
    "interval_boundary_design",
    "two_factor_design",
    "corner_design_multifactor",
    "axis_design",
    "hypercube_linear_design",
)


def _points(group, result, args, kwargs):
    return {f"{group}.points": len(result)}


def _outer_iterations(group, result, args, kwargs):
    return {"optimize.outer_iterations": result.iterations}


def _brute_force(group, result, args, kwargs):
    # weightings enumerated, and the bytes of the arrays built per weighting
    # (counts, weights, M, eigenvalues), computed from array sizes
    points = args[1] if len(args) > 1 else kwargs["points"]
    res = args[3] if len(args) > 3 else kwargs["grid_resolution"]
    r = len(points)
    p = args[0].p
    n = math.comb(int(res) + r - 1, r - 1)
    return {f"{group}.weightings": n, f"{group}.bytes_computed": n * 8 * (2 * r + p * p + p)}


def _candidates(group, result, args, kwargs):
    return {"equivalence.candidates": result.candidates}


def _csv_bytes(group, result, args, kwargs):
    out = args[1] if len(args) > 1 else kwargs["out"]
    return {"equivalence.csv_bytes": os.path.getsize(out)}


def _stdout_bytes(group, result, args, kwargs):
    return {"cli.stdout_bytes": len(result[1].encode("utf-8"))}


# (module that defines it, attribute, span group, counter hook)
TARGETS = (
    ("cli", "execute", "cli.execute", _stdout_bytes),
    *(("constructors", name, "constructors", None) for name in CONSTRUCTORS),
    ("optimize", "optimize_weights", "optimize.optimize_weights", None),
    ("optimize", "optimize_design", "optimize.optimize_design", _outer_iterations),
    ("optimize", "brute_force_weights", "optimize.brute_force_weights", _brute_force),
    ("equivalence", "verify_design", "equivalence.verify_design", _candidates),
    ("equivalence", "sensitivity_scan", "equivalence.sensitivity_scan", None),
    ("equivalence", "write_scan_csv", "equivalence.write_scan_csv", _csv_bytes),
    ("designs", "region_points", "designs.region_points", _points),
    ("designs", "information_matrix", "designs.information_matrix", None),
    ("models", "intensity_many", "models.intensity_many", _points),
    ("models", "regression_matrix", "models.regression_matrix", None),
)


class Tracer:
    """Wraps, records and aggregates; one instance per workload process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self.active = True
        self._stack: list[list] = []  # [span index, group, child seconds, numeric]
        self._restore: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def _wrap(self, group: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, group, 0.0, False]
            tracer._stack.append(frame)
            if group == "optimize.optimize_weights":
                for outer in tracer._stack:
                    if outer[1] == "constructors":
                        outer[3] = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (group, start, end, parent, tracer.op)
                duration = end - start
                tracer.self_s[group] += duration - frame[2]
                tracer.counts[f"{group}.calls"] += 1
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                outermost = not any(f[1] == "constructors" for f in tracer._stack)
                if group == "constructors" and frame[3] and outermost:
                    tracer.counts["constructors.numeric_calls"] += 1
            if hook is not None:
                tracer.counts.update(hook(group, result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every traced function at every binding in the package."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        for owner, attr, group, hook in TARGETS:
            original = getattr(modules[owner], attr)
            wrapped = self._wrap(group, original, hook)
            for module in (package, *modules.values()):
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, value))
                        setattr(module, name, wrapped)
        design_cls = modules["designs"].Design
        descriptor = design_cls.__dict__["from_arrays"]
        self._restore.append((design_cls, "from_arrays", descriptor))
        design_cls.from_arrays = classmethod(
            self._wrap("designs.Design.from_arrays", descriptor.__func__, None))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for group, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": group, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

