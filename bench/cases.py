"""Seeded inputs for the benchmark's phases.

Every draw comes from the generator passed in, so one seed gives one input
sequence.  Parameter ranges are the ones on which each closed form's stated
condition holds for every draw; they also keep probit linear predictors
within |eta| < 8 and orders within k <= 2, away from the two faults recorded
in CHANGES.md (the probit upper tail and the raw-scale ``lam ** -k``).

Builders look functions up on the package at call time (``g.verify_design``,
not a name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

import reference as R
from checks import Box

# Poisson slope at which the symmetric two-factor D design switches between
# three and four support points.
T_STAR = -math.log(1.0 + math.sqrt(2.0))

SQUARE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))

ORDERS = (0.0, 1.0, 2.0)


class Case:
    """A design to build and certify, with what the reference needs to check it."""

    def __init__(self, label: str, build: Callable, spec, k: float, region,
                 candidates, allowed=None):
        self.label = label
        self.build = build  # () -> Design or ConstructResult
        self.spec = spec
        self.k = k
        self.region = region  # package region the design is verified on
        # the same points, built by the reference: an array, or the
        # (lower, upper, resolution) of a grid too large to keep around
        self.candidates = candidates
        self.allowed = candidates if allowed is None else allowed  # where the support may lie

    def points(self) -> np.ndarray:
        if isinstance(self.candidates, tuple):
            return R.grid(*self.candidates)
        return self.candidates


def _crit(i: int) -> tuple[str, float]:
    return ("D", 0.0) if i % 2 == 0 else ("A", 1.0)


def _hypercube(g, nu: int):
    return g.BinaryHypercube(nu), R.corners(nu)


def _interval(g, rng, i):
    fam = ("logistic", "poisson_log", "gamma_inverse")[i % 3]
    if fam == "gamma_inverse":
        b0 = rng.uniform(0.5, 2.0)
        b1 = rng.uniform(-0.8 * b0, 1.5)
    else:
        b0, b1 = rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5)
    spec = g.ModelSpec(getattr(g, fam), g.single_factor_intercept(), (b0, b1))
    crit, k = _crit(i // 3)
    return Case(f"interval_boundary_design {fam} {crit}",
                lambda: g.interval_boundary_design(spec, crit), spec, k,
                g.GridBox((0.0,), (1.0,), (201,)), R.grid((0.0,), (1.0,), (201,)))


def _two_factor(g, rng, i):
    # three strata: mostly four-point optima (numeric D-4pt and A-4pt
    # branches), and mostly three-point closed branches
    stratum = i % 3
    if stratum == 0:
        fam, beta = "logistic", rng.uniform(-1.5, 0.5, 3)
    elif stratum == 1:
        fam, beta = "poisson_log", rng.uniform(-1.0, 0.5, 3)
    else:
        fam, beta = "logistic", (rng.uniform(-1.0, 1.0), *rng.uniform(-3.0, -1.5, 2))
    spec = g.ModelSpec(getattr(g, fam), g.first_order_intercept(2), tuple(beta))
    crit, k = _crit(i // 3)
    return Case(f"two_factor_design {fam} {crit}", lambda: g.two_factor_design(spec, crit),
                spec, k, *_hypercube(g, 2))


def _corner(g, rng, i):
    nu = 3 + i % 2
    if (i // 2) % 2 == 0:
        fam, beta = "poisson_log", (rng.uniform(-1.0, 1.0), *rng.uniform(-3.0, -1.5, nu))
    else:
        fam, beta = "gamma_inverse", (rng.uniform(0.5, 1.0), *rng.uniform(2.0, 5.0, nu))
    spec = g.ModelSpec(getattr(g, fam), g.first_order_intercept(nu), beta)
    crit, k = _crit(i // 4)
    return Case(f"corner_design_multifactor {fam} nu={nu} {crit}",
                lambda: g.corner_design_multifactor(spec, crit), spec, k, *_hypercube(g, nu))


def _axis(g, rng, i):
    k = ORDERS[(i // 2) % 3]
    if i % 2 == 0:
        spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2),
                           tuple(rng.uniform(0.2, 3.0, 2)))
        a = tuple(rng.uniform(0.2, 2.0, 2))
        # optimal on the whole quadrant; the grid samples it from 0.1
        region = g.GridBox((0.1, 0.1), (2.0, 2.0), (11, 11))
        cand = R.grid((0.1, 0.1), (2.0, 2.0), (11, 11))
        allowed = Box((0.0, 0.0), (2.0, 2.0))
    else:
        spec = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(2),
                           tuple(rng.uniform(-3.0, -0.8, 2)))
        a = (1.0, 1.0)
        region, cand = _hypercube(g, 2)
        allowed = None
    return Case(f"axis_design {spec.family.name} k={k:g}", lambda: g.axis_design(spec, a, k),
                spec, k, region, cand, allowed)


def _two_point(g, rng, i):
    fam = ("logistic", "poisson_log", "probit")[i % 3]
    lo, hi = sorted(rng.uniform(-2.0, 2.0, 2))
    while hi - lo < 0.2:
        lo, hi = sorted(rng.uniform(-2.0, 2.0, 2))
    spec = g.ModelSpec(getattr(g, fam), g.single_factor_intercept(),
                       (rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5)))
    crit, k = _crit(i // 3)
    pts = ((lo,), (hi,))
    return Case(f"binary_two_point_design {fam} {crit}",
                lambda: g.binary_two_point_design(spec, lo, hi, crit), spec, k,
                g.FiniteSet(pts), np.array(pts))


def _fourpoint(g, rng, i):
    fam = ("poisson_log", "logistic")[i % 2]
    b0 = rng.uniform(-0.5, 1.0)
    t = rng.uniform(T_STAR, 0.5) if fam == "poisson_log" else rng.uniform(-0.6, 0.6)
    spec = g.ModelSpec(getattr(g, fam), g.first_order_intercept(2), (b0, t, t))
    return Case(f"fourpoint_d_weights {fam}",
                lambda: g.Design.from_arrays(SQUARE, g.fourpoint_d_weights(spec, SQUARE)),
                spec, 0.0, *_hypercube(g, 2))


def _saturated(g, rng, i):
    pts = tuple(p for j, p in enumerate(SQUARE) if j != i % 4)
    spec = g.ModelSpec(g.logistic, g.first_order_intercept(2), tuple(rng.uniform(-1.5, 1.5, 3)))
    crit, k = _crit(i // 4)
    return Case(f"saturated_weights {crit}",
                lambda: g.Design.from_arrays(pts, g.saturated_weights(spec, pts, crit)),
                spec, k, g.FiniteSet(pts), np.array(pts))


def _phik_axis(g, rng, i):
    nu = 2 + i % 2
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(nu),
                       tuple(rng.uniform(0.2, 3.0, nu)))
    a = tuple(rng.uniform(0.2, 2.0, nu))
    k = ORDERS[(i // 2) % 3]
    return Case(f"phik_axis_weights nu={nu} k={k:g}",
                lambda: g.Design.from_arrays(np.diag(a), g.phik_axis_weights(spec, a, k)),
                spec, k, g.AxisSet(a), np.diag(a))


def _hypercube_layers(g, rng, i):
    nu = 2 + (i // 2) % 4
    crit, k = _crit(i)
    spec = g.ModelSpec(g.linear_identity, g.first_order_no_intercept(nu), (1.0,) * nu)
    return Case(f"hypercube_linear_design nu={nu} {crit}",
                lambda: g.hypercube_linear_design(nu, crit), spec, k, *_hypercube(g, nu))


FAMILIES = {
    "interval": _interval,
    "two_factor": _two_factor,
    "corner": _corner,
    "axis": _axis,
    "two_point": _two_point,
    "fourpoint": _fourpoint,
    "saturated": _saturated,
    "phik_axis": _phik_axis,
    "hypercube": _hypercube_layers,
}


def certify_cases(g, rng, counts: dict[str, int]) -> list[Case]:
    """``counts[family]`` draws of each constructor family, family by family."""
    return [FAMILIES[name](g, rng, i) for name, n in counts.items() for i in range(n)]


def verify_cases(g, rng, per_family: int, side: int) -> list[Case]:
    """Gamma axis designs on a side x side grid of [0.1, 2]^2 and interval
    boundary designs on side^2 points of [0, 1]; both families are stated
    to be optimal on those continuous regions."""
    cases = []
    for i in range(per_family):
        k = ORDERS[i % 3]
        spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2),
                           tuple(rng.uniform(0.2, 3.0, 2)))
        a = tuple(rng.uniform(0.2, 2.0, 2))
        box = ((0.1, 0.1), (2.0, 2.0), (side, side))
        cases.append(Case(f"axis_design gamma k={k:g} on {side}^2",
                          lambda spec=spec, a=a, k=k: g.axis_design(spec, a, k),
                          spec, k, g.GridBox(*box), box, Box((0.0, 0.0), (2.0, 2.0))))
        case = _interval(g, rng, i)
        line = ((0.0,), (1.0,), (side * side,))
        cases.append(Case(case.label + f" on {side * side} points", case.build, case.spec,
                          case.k, g.GridBox(*line), line, Box((0.0,), (1.0,))))
    return cases


def scan_case(g, rng, side: int) -> Case:
    """A two-factor D design tabulated over a side x side grid of [0, 1]^2."""
    spec = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), tuple(rng.uniform(-1.0, 0.5, 3)))
    box = ((0.0, 0.0), (1.0, 1.0), (side, side))
    return Case(f"sensitivity_scan on {side}^2", lambda: g.two_factor_design(spec, "D"),
                spec, 0.0, g.GridBox(*box), box, Box((0.0, 0.0), (1.0, 1.0)))


class Problem(NamedTuple):
    label: str
    spec: object
    k: float
    box: tuple  # (lower, upper, resolution) of the GridBox searched


def search_problems(g, full: bool) -> list[Problem]:
    """Grid problems without a closed form.  The logistic D problem at 20^2
    runs two inner descents into the 100 000-iteration cap; 51^2 D and the
    A problems do not."""
    cube = ((0.0,) * 3, (1.0,) * 3, (15,) * 3)
    if not full:
        pois = g.ModelSpec(g.poisson_log, g.first_order_intercept(3), (0.0, -1.0, -1.0, -1.0))
        return [Problem("poisson A 15^3, probe", pois, 1.0, cube)]
    logit = g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.0, 1.0, 1.0))
    pois = g.ModelSpec(g.poisson_log, g.first_order_intercept(3), (1.0, -0.5, -0.5, -0.5))
    square = lambda n: ((-3.0, -3.0), (3.0, 3.0), (n, n))
    return [
        Problem("poisson A 15^3", pois, 1.0, cube),
        Problem("logistic D 20^2", logit, 0.0, square(20)),
        Problem("logistic D 51^2", logit, 0.0, square(51)),
        Problem("logistic A 20^2", logit, 1.0, square(20)),
    ]


def oracle_spec(g, rng):
    """A symmetric Poisson model on the square with slopes above T_STAR, so
    the D optimum uses all four corners and fourpoint_d_weights applies."""
    b0, t = rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 0.5)
    return g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (b0, t, t))


class Job(NamedTuple):
    name: str
    config: dict
    check: tuple  # what the output must satisfy; see workload._job_problems
    feed: str | None = None  # job whose design becomes this job's design_in


def _model(family, kind, nu, beta):
    return {"family": family, "kind": kind, "nu": nu, "beta": [float(b) for b in beta]}


def cli_jobs(rng, full: bool) -> list[Job]:
    """The ``design`` CLI jobs: every constructor, then a verify fed from a
    construct output, an optimize on the binary square, a 101-point scan and
    a rerun that must be byte-identical."""
    corners2 = [list(p) for p in SQUARE]
    b0, t = rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 0.5)
    two_factor = Job("construct two_factor_design", {
        "task": "construct", "constructor": "two_factor_design", "criterion": {"k": 0},
        "model": _model("poisson_log", "first_order_intercept", 2, (b0, t, t))},
        ("certify", R.corners(2)))
    verify = Job("verify", {
        "task": "verify", "criterion": {"k": 0}, "model": two_factor.config["model"],
        "region": {"type": "binary_hypercube", "nu": 2}}, ("report", R.corners(2)),
        feed=two_factor.name)
    if not full:
        return [two_factor, verify]

    lo, hi = sorted(rng.uniform(-2.0, 2.0, 2))
    hi = max(hi, lo + 0.2)
    interval = Job("construct interval_boundary_design", {
        "task": "construct", "constructor": "interval_boundary_design", "criterion": {"k": 0},
        "model": _model("logistic", "single_factor_intercept", 1,
                        (rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5)))},
        ("certify", R.grid((0.0,), (1.0,), (201,))))
    a = rng.uniform(0.2, 2.0, 2)
    sat_pts = [list(p) for p in SQUARE[:3]]
    jobs = [
        Job("construct binary_two_point_design", {
            "task": "construct", "constructor": "binary_two_point_design", "criterion": {"k": 1},
            "model": _model("probit", "single_factor_intercept", 1,
                            (rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5))),
            "region": {"type": "finite_set", "points": [[lo], [hi]]}},
            ("certify", np.array([[lo], [hi]]))),
        interval,
        two_factor,
        Job("construct corner_design_multifactor", {
            "task": "construct", "constructor": "corner_design_multifactor", "criterion": {"k": 1},
            "model": _model("poisson_log", "first_order_intercept", 3,
                            (rng.uniform(-1.0, 1.0), *rng.uniform(-3.0, -1.5, 3)))},
            ("certify", R.corners(3))),
        Job("construct axis_design", {
            "task": "construct", "constructor": "axis_design", "criterion": {"k": 1},
            "model": _model("poisson_log", "first_order_no_intercept", 2, rng.uniform(-3.0, -0.8, 2)),
            "region": {"type": "binary_hypercube", "nu": 2}},
            ("certify", R.corners(2))),
        Job("construct hypercube_linear_design", {
            "task": "construct", "constructor": "hypercube_linear_design", "criterion": {"k": 1},
            "model": _model("linear_identity", "first_order_no_intercept", 3, (1.0, 1.0, 1.0))},
            ("certify", R.corners(3))),
        Job("construct saturated_weights", {
            "task": "construct", "constructor": "saturated_weights", "criterion": {"k": 1},
            "model": _model("logistic", "first_order_intercept", 2, rng.uniform(-1.5, 1.5, 3)),
            "region": {"type": "finite_set", "points": sat_pts}},
            ("certify", np.array(sat_pts))),
        Job("construct fourpoint_d_weights", {
            "task": "construct", "constructor": "fourpoint_d_weights", "criterion": {"k": 0},
            "model": two_factor.config["model"],
            "region": {"type": "finite_set", "points": corners2}},
            ("certify", R.corners(2))),
        Job("construct phik_axis_weights", {
            "task": "construct", "constructor": "phik_axis_weights", "criterion": {"k": 2},
            "model": _model("gamma_inverse", "first_order_no_intercept", 2, rng.uniform(0.2, 3.0, 2)),
            "a": [float(v) for v in a]},
            ("certify", np.diag(a))),
        verify,
        Job("optimize", {
            "task": "optimize", "criterion": {"k": 0},
            "model": _model("poisson_log", "first_order_intercept", 2, rng.uniform(-1.0, 0.5, 3)),
            "region": {"type": "binary_hypercube", "nu": 2}},
            ("search", R.corners(2))),
        Job("scan", {
            "task": "scan", "criterion": {"k": 0}, "model": interval.config["model"],
            "region": {"type": "grid_box", "lower": [0.0], "upper": [1.0], "resolution": [101]}},
            ("scan", R.grid((0.0,), (1.0,), (101,))), feed=interval.name),
        Job("rerun construct two_factor_design", two_factor.config, ("same", two_factor.name)),
    ]
    return jobs
