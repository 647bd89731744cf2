"""Optimality certification: sensitivity values, bounds, verification reports."""

import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import glmdesign as g
from glmdesign import designs, equivalence
from glmdesign.designs import _EigenState
from glmdesign.equivalence import _SensitivityKernel
from glmdesign.errors import CriterionOverflowError, DomainError, SingularMatrixError

SPEC1 = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 0.0))


def half_design():
    return g.Design(((0.0,), (1.0,)), (0.5, 0.5))


def test_sensitivity_and_bound_pinned_k0():
    d = half_design()
    np.testing.assert_allclose(g.sensitivity_at(d, SPEC1, 0.0, [0.0]), 2.0, rtol=1e-15)
    assert g.equivalence_bound(d, SPEC1, 0.0) == 2.0
    np.testing.assert_allclose(g.sensitivity_at(d, SPEC1, 0.0, [0.5]), 1.0, rtol=1e-14)


def test_sensitivity_and_bound_pinned_k1():
    # the half/half design is D- but not A-optimal on {0, 1}; the k=1
    # sensitivity exceeds its bound at x=0 by exactly 8
    d = half_design()
    np.testing.assert_allclose(g.sensitivity_at(d, SPEC1, 1.0, [0.0]), 32.0, rtol=2e-15)
    np.testing.assert_allclose(g.sensitivity_at(d, SPEC1, 1.0, [1.0]), 16.0, rtol=2e-15)
    np.testing.assert_allclose(g.equivalence_bound(d, SPEC1, 1.0), 24.0, rtol=2e-15)
    rep = g.verify_design(d, SPEC1, 1.0, g.FiniteSet(((0.0,), (1.0,))))
    assert not rep.passed
    assert rep.worst_point == (0.0,)
    np.testing.assert_allclose(rep.worst_gap, 8.0, rtol=1e-13)


def test_quarter_design_on_square_is_d_optimal():
    spec = g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.0, 0.0, 0.0))
    quarter = g.Design(
        ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)), (0.25, 0.25, 0.25, 0.25)
    )
    rep = g.verify_design(quarter, spec, 0.0, g.BinaryHypercube(2))
    assert rep.passed
    assert rep.bound == 3.0
    assert rep.worst_gap <= 1e-12
    # every support point sits on the bound
    assert max(abs(r) for r in rep.support_residuals) <= 1e-12
    # ... but it is not A-optimal
    rep1 = g.verify_design(quarter, spec, 1.0, g.BinaryHypercube(2))
    assert not rep1.passed
    np.testing.assert_allclose(rep1.worst_gap, 24.0, rtol=1e-12)


def test_unbalanced_weights_fail_support_condition():
    spec = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (0.0, -3.0, -3.0))
    pts = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    good = g.Design(pts, (1 / 3, 1 / 3, 1 / 3))
    rep = g.verify_design(good, spec, 0.0, g.BinaryHypercube(2))
    assert rep.passed
    skew = g.Design(pts, (0.5, 0.25, 0.25))
    rep2 = g.verify_design(skew, spec, 0.0, g.BinaryHypercube(2))
    assert not rep2.passed
    assert rep2.worst_gap > 1e-3


def test_report_to_dict_shape():
    rep = g.verify_design(half_design(), SPEC1, 0.0, g.FiniteSet(((0.0,), (1.0,))))
    doc = rep.to_dict()
    assert set(doc) == {
        "pass",
        "bound",
        "worst_gap",
        "worst_point",
        "support_residuals",
        "tolerance",
        "region",
        "candidates",
    }
    assert doc["pass"] is True
    assert isinstance(doc["worst_point"], list)
    assert doc["region"] == "finite_set(2 points)"
    assert doc["candidates"] == 2


def test_infinite_order_is_rejected():
    with pytest.raises(ValueError):
        g.sensitivity_at(half_design(), SPEC1, math.inf, [0.0])
    with pytest.raises(ValueError):
        g.verify_design(half_design(), SPEC1, math.inf, g.FiniteSet(((0.0,),)))


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-7])
def test_tolerance_must_be_finite_and_positive(tol):
    # an infinite tolerance would certify this far-from-optimal design
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    grid = g.GridBox((-3.0,), (3.0,), (61,))
    report = g.verify_design(half_design(), spec, 0.0, grid)
    assert not report.passed and report.worst_gap > 9.0
    with pytest.raises(ValueError, match="finite and positive"):
        g.verify_design(half_design(), spec, 0.0, grid, tol=tol)


def test_singular_design_is_rejected():
    single = g.Design(((0.0,),), (1.0,))
    with pytest.raises(SingularMatrixError):
        g.verify_design(single, SPEC1, 0.0, g.FiniteSet(((0.0,),)))


# Poisson without intercept at beta = (-3, -3): the axis design is optimal on
# the binary square for every order, but trace M^-k grows like 40^k
POISSON_AXES = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(2), (-3.0, -3.0))
AXES = g.Design(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, region: g.verify_design(AXES, spec, 1.0, region),
        lambda spec, region: g.sensitivity_scan(AXES, spec, 1.0, region),
        lambda spec, region: g.optimize_design(spec, region, 1.0),
        lambda spec, region: g.axis_design(spec, (1.0, 1.0), 0.5, region),
    ],
    ids=["verify_design", "sensitivity_scan", "optimize_design", "axis_design"],
)
@pytest.mark.parametrize("nu", [3, 1e300])
def test_region_of_another_dimension_is_value_error(monkeypatch, call, nu):
    # the dimensions are compared before any candidate is built: 2^(10^300)
    # corners could not be listed
    def unbuilt(self):
        raise AssertionError("candidates built for a region of the wrong dimension")

    monkeypatch.setattr(g.BinaryHypercube, "candidate_points", unbuilt)
    monkeypatch.setattr(g.BinaryHypercube, "candidate_blocks", unbuilt)
    with pytest.raises(ValueError, match="region has dimension"):
        call(POISSON_AXES, g.BinaryHypercube(nu))


def test_large_order_still_certifies():
    report = g.verify_design(AXES, POISSON_AXES, 50.0, g.BinaryHypercube(2))
    assert report.passed
    np.testing.assert_allclose(report.bound, 3.138354974075894e80, rtol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "call",
    [
        lambda: g.verify_design(AXES, POISSON_AXES, 200.0, g.BinaryHypercube(2)),
        lambda: g.equivalence_bound(AXES, POISSON_AXES, 200.0),
        lambda: g.sensitivity_scan(AXES, POISSON_AXES, 200.0, g.BinaryHypercube(2)),
    ],
    ids=["verify_design", "equivalence_bound", "sensitivity_scan"],
)
def test_overflowing_order_raises_typed_error(call):
    with pytest.raises(CriterionOverflowError):
        call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_sensitivity_raises_typed_error():
    # the bound is finite (trace M^-1 = 4), the sensitivity at 1e200 is not
    spec = g.ModelSpec(g.linear_identity, g.first_order_no_intercept(2), (1.0, 1.0))
    with pytest.raises(CriterionOverflowError):
        g.verify_design(AXES, spec, 1.0, g.FiniteSet(((1.0, 0.0), (1e200, 0.0))))
    assert issubclass(CriterionOverflowError, ValueError)


def test_scan_rows_and_csv_format(tmp_path):
    rows = g.sensitivity_scan(half_design(), SPEC1, 0.0, g.GridBox((0.0,), (1.0,), (5,)))
    assert [r[0] for r in rows] == [(0.0,), (0.25,), (0.5,), (0.75,), (1.0,)]
    assert all(r[2] == 2.0 for r in rows)
    buf = io.StringIO()
    g.write_scan_csv(rows, buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "x1,sensitivity,bound"
    # 17 significant digits, shortest-form trailing output
    assert lines[1] == "0,2,2"
    assert lines[3] == "0.5,0.99999999999999956,2"
    out = tmp_path / "scan.csv"
    with open(out, "w") as fh:
        g.write_scan_csv(rows, fh)
    assert out.read_text() == text


def test_scan_two_factors_header_and_count():
    spec = g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.0, 0.0, 0.0))
    quarter = g.Design(
        ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)), (0.25, 0.25, 0.25, 0.25)
    )
    rows = g.sensitivity_scan(quarter, spec, 0.0, g.GridBox((0.0, 0.0), (1.0, 1.0), (3, 3)))
    assert len(rows) == 9
    buf = io.StringIO()
    g.write_scan_csv(rows, buf)
    assert buf.getvalue().split("\n", 1)[0] == "x1,x2,sensitivity,bound"


@st.composite
def _random_case(draw):
    fam = draw(st.sampled_from(["logistic", "probit", "poisson_log", "linear_identity"]))
    beta = tuple(draw(st.floats(-1.5, 1.5, allow_nan=False)) for _ in range(3))
    n = draw(st.integers(3, 6))
    pts = draw(
        st.lists(
            st.tuples(
                st.floats(-1.0, 1.0, allow_nan=False), st.floats(-1.0, 1.0, allow_nan=False)
            ),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    raw = [draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in range(n)]
    total = sum(raw)
    return fam, beta, tuple(pts), tuple(r / total for r in raw)


# a near-singular support, eigenvalue ratio 1.5e-9 just inside the gate:
# decomposing M itself instead of its square root loses about 2e-8 relative
# accuracy here, past the properties' rtol of 1e-9
NEAR_SINGULAR = ("logistic", (0.0, 0.0, 0.0), ((0.0, 0.0), (0.0, 1.0), (1e-4, 0.0)),
                 (1 / 3, 1 / 3, 1 / 3))


@given(case=_random_case())
@example(case=NEAR_SINGULAR)
@settings(max_examples=60, deadline=None)
def test_weighted_sensitivity_trace_identity(case):
    # for k=0 the weighted average of sensitivities over the support always
    # equals the bound p, whatever the design; this is an algebraic identity
    fam_name, beta, pts, w = case
    spec = g.ModelSpec(getattr(g, fam_name), g.first_order_intercept(2), beta)
    try:
        d = g.Design(pts, w)
        s = [g.sensitivity_at(d, spec, 0.0, x) for x in pts]
    except (ValueError, SingularMatrixError):
        return  # degenerate draw (collinear support): identity needs invertible M
    total = sum(wi * si for wi, si in zip(w, s))
    np.testing.assert_allclose(total, spec.p, rtol=1e-9)


@given(case=_random_case(), k=st.sampled_from([0.0, 1.0, 2.0]))
@example(case=NEAR_SINGULAR, k=0.0)
@example(case=NEAR_SINGULAR, k=1.0)
@example(case=NEAR_SINGULAR, k=2.0)
@settings(max_examples=40, deadline=None)
def test_sensitivity_invariant_under_factor_permutation(case, k):
    fam_name, beta, pts, w = case
    spec = g.ModelSpec(getattr(g, fam_name), g.first_order_intercept(2), beta)
    swapped = g.ModelSpec(getattr(g, fam_name), g.first_order_intercept(2), (beta[0], beta[2], beta[1]))
    try:
        d = g.Design(pts, w)
        ds = g.Design(tuple((b, a) for a, b in pts), w)
        probe = pts[0]
        s1 = g.sensitivity_at(d, spec, k, probe)
    except (ValueError, SingularMatrixError):
        return
    s2 = g.sensitivity_at(ds, swapped, k, (probe[1], probe[0]))
    np.testing.assert_allclose(s1, s2, rtol=1e-9)
    np.testing.assert_allclose(
        g.equivalence_bound(d, spec, k), g.equivalence_bound(ds, swapped, k), rtol=1e-9
    )


# (0.8, 0.1, 0.1) on three corners of the square fails the order-1 theorem by
# 5.32 times the bound whatever the intercept, which only scales u; at
# b0 = 30 the bound is 3.4e-12, so a gap rule floored at 1 would pass it
def test_unbalanced_design_fails_whatever_the_intercept():
    spec = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (30.0, -0.5, -0.5))
    d = g.Design(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)), (0.8, 0.1, 0.1))
    rep = g.verify_design(d, spec, 1.0, g.BinaryHypercube(2))
    assert rep.bound < 1e-11
    assert not rep.passed
    np.testing.assert_allclose(rep.worst_gap / rep.bound, 5.318709285445885, rtol=1e-9)


# ------------------------------------------------------------- row blocks

BLOCK = 4  # small enough that a few dozen candidates span several blocks
SPEC4 = g.ModelSpec(g.logistic, g.first_order_intercept(3), (0.3, -0.8, 0.5, 1.1))
DESIGN4 = g.Design(
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)),
    (0.2, 0.2, 0.2, 0.2, 0.2),
)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(designs, "ROW_BLOCK", BLOCK)


def _cloud(n):
    return g.FiniteSet(tuple(map(tuple, np.random.default_rng(n).uniform(-2, 2, (n, 3)))))


def _full_scores(design, spec, k, pts):
    """u ||B^T f||^2 in one pass over all rows, as the kernel scores one block."""
    B = _SensitivityKernel(design, spec, k).B
    FB = g.regression_matrix(spec, pts) @ B
    return g.intensity_many(spec, pts) * np.einsum("ij,ij->i", FB, FB)


@pytest.mark.parametrize("n", [BLOCK, BLOCK + 1, 2 * BLOCK + 1, 7 * BLOCK + 3])
@pytest.mark.parametrize("k", [0.0, 1.0])
def test_block_scores_match_one_pass(small_blocks, n, k):
    region = _cloud(n)
    cand = g.region_points(region)
    ref = _full_scores(DESIGN4, SPEC4, k, cand)
    rows = g.sensitivity_scan(DESIGN4, SPEC4, k, region)
    np.testing.assert_array_equal([s for _, s, _ in rows], ref)
    rep = g.verify_design(DESIGN4, SPEC4, k, region)
    i = int(np.argmax(ref - rep.bound))
    assert rep.worst_gap == ref[i] - rep.bound
    assert rep.worst_point == tuple(cand[i])
    state = _EigenState(g.regression_matrix(SPEC4, cand), np.full(n, 1.0 / n), k)
    FB = g.regression_matrix(SPEC4, cand) @ state.B
    np.testing.assert_array_equal(
        state.scores(g.regression_matrix(SPEC4, cand)), np.einsum("ij,ij->i", FB, FB)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 8192, 8193])
@pytest.mark.parametrize("p", range(1, 8))
def test_squared_row_norms_match_einsum(p, n):
    # numpy's einsum sums 8 or more columns in another order
    rng = np.random.default_rng(10_000 * p + n)
    FB = rng.choice([-1.0, 1.0], (n, p)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, p))
    ref = np.einsum("ij,ij->i", FB, FB)
    out = np.empty(n)
    designs._squared_row_norms(FB, out)
    assert out.tobytes() == ref.tobytes()


def test_scores_of_no_rows_are_empty():
    state = _EigenState(np.eye(3), np.full(3, 1.0 / 3.0), 1.0)
    assert state.scores(np.empty((0, 3))).shape == (0,)


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_block_search_matches_one_pass(monkeypatch, k):
    region = g.GridBox((-2.0, -2.0), (2.0, 2.0), (9, 9))
    spec = g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.0, 1.0, 1.0))
    whole = g.optimize_design(spec, region, k)
    monkeypatch.setattr(designs, "ROW_BLOCK", BLOCK)
    assert g.optimize_design(spec, region, k) == whole


def _error_text(call):
    with pytest.raises(ValueError) as info:
        call()
    return info.type, str(info.value)


GAMMA = g.ModelSpec(g.gamma_inverse, g.single_factor_intercept(), (2.0, -1.0))
GAMMA_DESIGN = g.Design(((0.0,), (1.0,)), (0.5, 0.5))
# e^705 is finite, u ||B^T f||^2 at x = 705 is not
POISSON1 = g.ModelSpec(g.poisson_log, g.single_factor_intercept(), (0.0, 1.0))
# the same intensity, but only below eta = 706
CAPPED = g.ModelSpec(
    g.custom_family("capped_exp", math.exp, domain=lambda eta: eta < 706.0),
    g.single_factor_intercept(),
    (0.0, 1.0),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spec, design, pts, error",
    [
        # eta <= 0 at x >= 2, two points of the last block
        (GAMMA, GAMMA_DESIGN, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 2.5, 3.0), DomainError),
        (POISSON1, half_design(), (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 705.0), CriterionOverflowError),
        # an overflowing block before an out-of-domain one: the domain error wins
        (CAPPED, half_design(), (0.0, 0.1, 0.2, 705.0, 705.1, 705.2, 705.3, 705.4, 707.0), DomainError),
    ],
    ids=["domain", "overflow", "domain-after-overflow"],
)
def test_block_errors_match_one_pass(monkeypatch, spec, design, pts, error):
    region = g.FiniteSet(tuple((x,) for x in pts))
    calls = [
        lambda: g.verify_design(design, spec, 1.0, region),
        lambda: g.sensitivity_scan(design, spec, 1.0, region),
    ]
    whole = [_error_text(call) for call in calls]
    monkeypatch.setattr(designs, "ROW_BLOCK", BLOCK)
    assert [_error_text(call) for call in calls] == whole
    assert all(kind is error for kind, _ in whole)


def test_no_block_evaluates_more_than_row_block_rows(monkeypatch):
    # an out-of-domain point in the last block fails every block loop
    # without evaluating the whole input at once
    seen = []

    def recording(spec, pts):
        seen.append(len(pts))
        return g.intensity_many(spec, pts)

    monkeypatch.setattr(designs, "ROW_BLOCK", BLOCK)
    monkeypatch.setattr(equivalence, "intensity_many", recording)
    region = g.FiniteSet(tuple((0.1 * i,) for i in range(5 * BLOCK)) + ((2.5,),))
    for call in (g.verify_design, g.sensitivity_scan):
        seen.clear()
        with pytest.raises(DomainError, match=r"point \(2\.5,\)"):
            call(GAMMA_DESIGN, GAMMA, 1.0, region)
        assert len(seen) == 6 and max(seen) <= BLOCK, seen


def _one_pass_report(design, spec, k, region, tol):
    """verify_design as one pass: every candidate's gap in one array, then
    its first argmax."""
    cand = g.region_points(region)
    bound = _SensitivityKernel(design, spec, k).bound
    gaps = _full_scores(design, spec, k, cand) - bound
    i = int(np.argmax(gaps))
    residuals = np.abs(_full_scores(design, spec, k, design.point_array) - bound)
    limit = tol * bound
    return equivalence.VerificationReport(
        bound=bound,
        worst_gap=float(gaps[i]),
        worst_point=tuple(float(c) for c in cand[i]),
        support_residuals=tuple(float(r) for r in residuals),
        passed=bool(gaps[i] <= limit and (residuals <= limit).all()),
        tolerance=tol,
        region=region.label(),
        candidates=len(cand),
    )


def _outcome(call):
    try:
        return call()
    except ValueError as exc:  # every error of the package is one
        return type(exc), str(exc)


def _small_grid(resolutions):
    return st.lists(resolutions, min_size=1, max_size=3).filter(lambda r: math.prod(r) <= 4000)


@st.composite
def _verify_problem(draw):
    """A design, model, order, region and tolerance.  Without an intercept
    f(-x) = -f(x), and the logistic, probit and linear u are even in eta, so
    on a set closed under negation (the clouds, and grids whose nodes are the
    integers -m..m) those models have exact ties in the worst gap."""
    region_kind = draw(st.sampled_from(["grid", "integer_grid", "cloud", "axis", "hypercube"]))
    if region_kind == "grid":
        res = draw(_small_grid(st.integers(2, 40)))
        lower = [draw(st.floats(-2.0, 0.0)) for _ in res]
        region = g.GridBox(lower, [lo + draw(st.floats(0.5, 3.0)) for lo in lower], res)
    elif region_kind == "integer_grid":
        m = draw(_small_grid(st.integers(1, 6)))
        region = g.GridBox([-float(v) for v in m], [float(v) for v in m], [2 * v + 1 for v in m])
    elif region_kind == "cloud":
        nu, n, seed = draw(st.integers(1, 3)), draw(st.integers(1, 60)), draw(st.integers(0, 2**16))
        pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, nu))
        region = g.FiniteSet(tuple(map(tuple, np.concatenate([pts, -pts]))))
    elif region_kind == "axis":
        region = g.AxisSet([draw(st.floats(0.25, 3.0)) for _ in range(draw(st.integers(1, 3)))])
    else:
        region = g.BinaryHypercube(draw(st.integers(1, 3)))
    nu = region.nu
    intercept = draw(st.booleans())
    kind = g.first_order_intercept(nu) if intercept else g.first_order_no_intercept(nu)
    family = draw(st.sampled_from([g.logistic, g.probit, g.poisson_log, g.linear_identity]))
    beta = [draw(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])) for _ in range(kind.p)]
    spec = g.ModelSpec(family, kind, tuple(beta))
    axes = [tuple(float(i == j) for j in range(nu)) for i in range(nu)]
    support = [(0.0,) * nu] + axes if intercept else axes
    raw = np.array([draw(st.integers(1, 4)) for _ in support], dtype=float)
    design = g.Design(tuple(support), tuple(raw / raw.sum()))
    k = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    tol = draw(st.sampled_from([1e-7, 1.0, 100.0]))
    return design, spec, k, region, tol


@given(problem=_verify_problem(), block=st.integers(2, 64))
@settings(max_examples=150, deadline=None)
def test_streamed_report_equals_one_pass(problem, block):
    design, spec, k, region, tol = problem
    # _row_blocks keeps two rows in every block only for ROW_BLOCK >= 4, and
    # a one-row product rounds differently from a whole-array one for p >= 4
    assume(block >= 4 or spec.p < 4)
    whole = _outcome(lambda: _one_pass_report(design, spec, k, region, tol))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(designs, "ROW_BLOCK", block)
        streamed = _outcome(lambda: g.verify_design(design, spec, k, region, tol))
    assert streamed == whole


def test_worst_point_tie_across_blocks_is_the_smallest(small_blocks):
    # u = 1 and f(x) = x: the gap is largest at -2 and at 2, which fall in
    # the two blocks of the five candidates
    spec = g.ModelSpec(g.linear_identity, g.first_order_no_intercept(1), (1.0,))
    region = g.FiniteSet(((2.0,), (-1.0,), (0.0,), (1.0,), (-2.0,)))
    report = g.verify_design(g.Design(((1.0,),), (1.0,)), spec, 1.0, region)
    assert report.worst_point == (-2.0,)
    assert report.worst_gap == 3.0
    assert report.candidates == 5


def test_grid_verify_holds_no_array_of_the_grid_size():
    # a one-pass verify of 10^6 nodes held the candidates, the sensitivities
    # and the gaps: about 25 MB traced at its peak
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_intercept(2), (1.0, 0.5, 0.5))
    design = g.Design(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), (0.4, 0.3, 0.3))
    region = g.GridBox((0.0, 0.0), (1.0, 1.0), (1000, 1000))
    tracemalloc.start()
    try:
        report = g.verify_design(design, spec, 1.0, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.candidates == 10**6
    assert peak < 2_000_000, peak


# ------------------------------------------------------------ scan tables


def _scan_case(nu, n):
    spec = g.ModelSpec(g.logistic, g.first_order_intercept(nu), (0.3, -0.8, 0.5, 1.1)[: nu + 1])
    support = [(0.0,) * nu] + [tuple(float(i == j) for j in range(nu)) for i in range(nu)]
    design = g.Design(tuple(support), (1.0 / (nu + 1),) * (nu + 1))
    region = g.FiniteSet(tuple(map(tuple, np.random.default_rng(n).uniform(-2, 2, (n, nu)))))
    return design, spec, region


def _reference_rows(design, spec, k, region):
    """One row at a time, as the scan was first written."""
    cand = g.region_points(region)
    kernel = _SensitivityKernel(design, spec, k)
    sens = kernel.many(cand)
    return [(tuple(float(c) for c in pt), float(s), kernel.bound) for pt, s in zip(cand, sens)]


def _reference_csv(rows):
    nu = len(rows[0][0])
    lines = [",".join([f"x{i + 1}" for i in range(nu)] + ["sensitivity", "bound"])]
    lines += [",".join(f"{v:.17g}" for v in (*pt, s, b)) for pt, s, b in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("k", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("nu", [1, 2, 3])
def test_scan_matches_per_row_reference(small_blocks, tmp_path, nu, k, n):
    design, spec, region = _scan_case(nu, n)
    rows = g.sensitivity_scan(design, spec, k, region)
    ref = _reference_rows(design, spec, k, region)
    assert rows == ref
    for pt, s, b in rows:
        assert type(pt) is tuple and len(pt) == nu
        assert all(type(c) is float for c in pt)
        assert type(s) is float and type(b) is float
    buf = io.StringIO()
    g.write_scan_csv(rows, buf)
    assert buf.getvalue() == _reference_csv(ref)
    out = tmp_path / "scan.csv"
    g.write_scan_csv(rows, out)
    assert out.read_bytes() == _reference_csv(ref).encode()


STALE = "stale row that a rewrite must not leave behind\n" * 200


def test_scan_rewrites_in_place_without_stale_tail(small_blocks, tmp_path):
    design, spec, region = _scan_case(2, 2 * BLOCK + 1)
    rows = g.sensitivity_scan(design, spec, 0.0, region)
    target = tmp_path / "scan.csv"
    target.write_text(STALE)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    inode = os.stat(target).st_ino
    for out in (target, str(link)):
        g.write_scan_csv(rows, out)
        assert target.read_text() == _reference_csv(rows)
        assert os.stat(target).st_ino == inode
    assert link.is_symlink()


def test_scan_row_failing_midway_leaves_a_prefix(small_blocks, tmp_path):
    design, spec, region = _scan_case(1, 3 * BLOCK)
    rows = g.sensitivity_scan(design, spec, 0.0, region)
    full = _reference_csv(rows)
    rows[2 * BLOCK - 1] = (("not a number",), 0.0, 0.0)
    out = tmp_path / "scan.csv"
    out.write_text(STALE)
    with pytest.raises((TypeError, ValueError)):
        g.write_scan_csv(rows, out)
    text = out.read_text()
    assert text.startswith("x1,sensitivity,bound\n") and text.endswith("\n")
    assert full.startswith(text) and len(text) < len(full)


def test_scan_writes_to_devnull():
    design, spec, region = _scan_case(2, BLOCK + 1)
    g.write_scan_csv(g.sensitivity_scan(design, spec, 0.0, region), os.devnull)


def test_scan_new_file_mode_follows_umask(tmp_path):
    design, spec, region = _scan_case(1, 3)
    rows = g.sensitivity_scan(design, spec, 0.0, region)
    old = os.umask(0o027)
    try:
        g.write_scan_csv(rows, tmp_path / "scan.csv")
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "scan.csv").st_mode == os.stat(tmp_path / "plain.csv").st_mode


def _csv(rows):
    buf = io.StringIO()
    g.write_scan_csv(rows, buf)
    return buf.getvalue()


def test_scan_csv_signed_zeros_keep_their_sign():
    # 0.0 == -0.0, so a memo keyed by value would print whichever came first
    rows = [((0.0, -0.0), 1.0, 0.0), ((-0.0, 0.0), 2.0, -0.0), ((0.0, -0.0), -0.0, 0.0)]
    assert _csv(rows) == "x1,x2,sensitivity,bound\n0,-0,1,0\n-0,0,2,-0\n0,-0,-0,0\n"
    assert _csv(rows) == _reference_csv(rows)


def test_scan_csv_non_finite_values_print_as_percent_g():
    nan, inf = float("nan"), float("inf")
    rows = [((inf, nan), nan, inf), ((-inf, nan), inf, nan), ((inf, 1.5), -inf, inf)]
    text = _csv(rows)
    assert text == _reference_csv(rows)
    assert text.splitlines()[1:] == ["inf,nan,nan,inf", "-inf,nan,inf,nan", "inf,1.5,-inf,inf"]


@pytest.mark.parametrize("bad", [(0.5,), (0.5, 1.0, 2.0)])
@pytest.mark.parametrize("at", [0, BLOCK + 1])
def test_scan_csv_point_of_wrong_length_is_value_error(small_blocks, bad, at):
    rows = [((0.1 * i, 0.2), 1.0, 2.0) for i in range(2 * BLOCK)]
    rows[at] = (bad, 1.0, 2.0)  # first in the table, or inside the second block
    with pytest.raises(ValueError, match="coordinates"):
        _csv(rows)


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_scan_csv_generator_matches_list(small_blocks, n):
    design, spec, region = _scan_case(2, n)
    rows = g.sensitivity_scan(design, spec, 1.0, region)
    assert _csv(row for row in rows) == _csv(rows) == _reference_csv(rows)


def test_scan_csv_empty_generator_creates_no_file(tmp_path):
    target = tmp_path / "scan.csv"
    with pytest.raises(ValueError, match="empty"):
        g.write_scan_csv((row for row in ()), target)
    assert not target.exists()
