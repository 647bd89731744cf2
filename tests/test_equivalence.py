"""Optimality certification: sensitivity values, bounds, verification reports."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmdesign as g
from glmdesign.errors import CriterionOverflowError, SingularMatrixError

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
    assert lines[1] == "0,1.9999999999999991,2"
    assert lines[3] == "0.5,0.99999999999999933,2"
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


@given(case=_random_case())
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
