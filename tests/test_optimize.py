"""Iterative weight descent, support search, and exhaustive grid baselines."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmdesign as g
from glmdesign.errors import ConvergenceError
from glmdesign.optimize import _compositions

TOL8 = g.OptimizerOptions(convergence_tol=1e-8)

POISSON_CORNERS = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (1.0, -0.5, -0.5))
SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

# stationary weights for the model above on the unit-square corners, found by
# running the descent to a 3e-14 balance gap and cross-checked against the
# closed-form construction
FOURPOINT_W = (
    0.29928478966984245,
    0.27143765392829233,
    0.27143765392829233,
    0.15783990247357288,
)


# ----------------------------------------------------------- fixed supports


def test_descent_matches_fourpoint_reference():
    d = g.optimize_weights(POISSON_CORNERS, SQUARE, 0.0, TOL8)
    assert d.points == tuple(SQUARE)
    np.testing.assert_allclose(d.weights, FOURPOINT_W, atol=1e-7)


def test_two_point_a_weights_match_reference():
    spec = g.ModelSpec(g.poisson_log, g.single_factor_intercept(), (0.0, 1.0))
    d = g.optimize_weights(spec, [(0.0,), (1.0,)], 1.0, TOL8)
    np.testing.assert_allclose(d.weights[0], 0.6998478812491185, atol=1e-6)


def test_axis_weights_match_reference():
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), (1.0, 2.0))
    axes = [(1.0, 0.0), (0.0, 1.0)]
    d0 = g.optimize_weights(spec, axes, 0.0, TOL8)
    np.testing.assert_allclose(d0.weights, (0.5, 0.5), atol=1e-8)
    d1 = g.optimize_weights(spec, axes, 1.0, TOL8)
    np.testing.assert_allclose(d1.weights, (1.0 / 3.0, 2.0 / 3.0), atol=1e-7)
    d2 = g.optimize_weights(spec, axes, 2.0, TOL8)
    np.testing.assert_allclose(
        d2.weights, (0.2841036534166501, 0.7158963465833499), atol=1e-7
    )


def test_redundant_support_point_starved():
    # straight-line regression on [0, 1]: only the endpoints matter, so the
    # descent must push the midpoint to numerical zero without destabilising
    # the endpoint weights
    spec = g.ModelSpec(g.linear_identity, g.single_factor_intercept(), (0.0, 0.0))
    d = g.optimize_weights(spec, [(0.0,), (0.5,), (1.0,)], 0.0, TOL8)
    assert d.weights[1] < 1e-7
    np.testing.assert_allclose((d.weights[0], d.weights[2]), (0.5, 0.5), atol=1e-7)


def test_exhausted_iteration_budget_raises():
    with pytest.raises(ConvergenceError):
        g.optimize_weights(POISSON_CORNERS, SQUARE, 0.0, g.OptimizerOptions(max_iterations=3))


def test_optimizer_options_carry_only_consumed_knobs():
    names = [f.name for f in dataclasses.fields(g.OptimizerOptions)]
    assert names == ["max_iterations", "convergence_tol"]
    for knob in ("step_rule", "random_seed", "grid_resolution"):
        with pytest.raises(TypeError):
            g.OptimizerOptions(**{knob: 0})


@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.sampled_from([0.0, 1.0, 2.0]),
    fam=st.sampled_from(["logistic", "poisson_log"]),
)
@settings(max_examples=25, deadline=None)
def test_descent_never_worse_than_uniform(seed, k, fam):
    rng = np.random.default_rng(seed)
    spec = g.ModelSpec(getattr(g, fam), g.first_order_intercept(2), tuple(rng.uniform(-1, 1, 3)))
    pts = [tuple(p) for p in rng.uniform(-1.0, 1.0, size=(5, 2))]
    uniform = g.Design(tuple(pts), (0.2,) * 5)
    try:
        before = g.phi_k_value(uniform, spec, k)
        after = g.phi_k_value(g.optimize_weights(spec, pts, k, TOL8), spec, k)
    except (ConvergenceError, g.SingularMatrixError):
        return  # near-degenerate draw
    assert after <= before * (1.0 + 1e-10)


# ----------------------------------------------------------- support search


def test_search_two_point_set():
    spec = g.ModelSpec(g.poisson_log, g.single_factor_intercept(), (0.0, 1.0))
    res = g.optimize_design(spec, g.FiniteSet(((0.0,), (1.0,))), 0.0)
    assert res.converged and res.report.passed
    np.testing.assert_allclose(res.design.weights, (0.5, 0.5), atol=1e-9)


def test_search_finds_three_point_corner_solution():
    spec = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (0.0, -3.0, -3.0))
    res = g.optimize_design(spec, g.BinaryHypercube(2), 0.0)
    assert res.converged and res.report.passed
    assert res.design.size == 3
    assert (1.0, 1.0) not in res.design.points
    np.testing.assert_allclose(res.design.weights, (1 / 3, 1 / 3, 1 / 3), atol=1e-9)
    M = g.information_matrix(res.design, spec)
    ref = g.Design(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), (1 / 3, 1 / 3, 1 / 3))
    np.testing.assert_allclose(M, g.information_matrix(ref, spec), rtol=1e-9)


def test_search_on_axis_region():
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), (1.0, 2.0))
    res = g.optimize_design(spec, g.AxisSet((1.0, 1.0)), 1.0)
    assert res.converged and res.report.passed
    got = dict(zip(res.design.points, res.design.weights))
    np.testing.assert_allclose(got[(1.0, 0.0)], 1.0 / 3.0, atol=1e-9)
    np.testing.assert_allclose(got[(0.0, 1.0)], 2.0 / 3.0, atol=1e-9)


def test_search_is_deterministic():
    spec = g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.3, -0.8, 0.5))
    r1 = g.optimize_design(spec, g.BinaryHypercube(2), 1.0)
    r2 = g.optimize_design(spec, g.BinaryHypercube(2), 1.0)
    assert r1.design == r2.design  # bitwise: same tuples, same floats
    assert r1.iterations == r2.iterations
    assert r1.converged == r2.converged


def test_search_flags_unreachable_grid_optimum():
    # the continuous optimum sits between grid nodes; draining the neighbour
    # node is glacial, so the search must stop honestly flagged rather than
    # claim certified optimality
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    res = g.optimize_design(
        spec,
        g.GridBox((-4.0,), (4.0,), (801,)),
        0.0,
        g.OptimizerOptions(max_iterations=3000, convergence_tol=1e-10),
    )
    assert not res.converged
    assert not res.report.passed
    # ... yet the report still describes the returned design faithfully
    assert res.report.worst_gap > res.report.tolerance * max(1.0, abs(res.report.bound))


def test_converged_implies_certified():
    # whenever the search says converged, the independent verifier must agree
    specs = [
        (g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (0.0, -3.0, -3.0)), 0.0),
        (g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.0, 0.0, 0.0)), 0.0),
        (g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (0.5, -1.0, -2.0)), 1.0),
    ]
    for spec, k in specs:
        res = g.optimize_design(spec, g.BinaryHypercube(2), k)
        if res.converged:
            assert res.report.passed


# -------------------------------------------------------------- brute force


def test_brute_force_symmetric_two_point():
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    d = g.brute_force_weights(spec, [(-1.0,), (1.0,)], 0.0, 100)
    assert d.weights == (0.5, 0.5)


def test_brute_force_linear_a_weights():
    spec = g.ModelSpec(g.linear_identity, g.single_factor_intercept(), (0.0, 0.0))
    d = g.brute_force_weights(spec, [(0.0,), (1.0,)], 1.0, 10_000)
    want = math.sqrt(2.0) / (1.0 + math.sqrt(2.0))
    np.testing.assert_allclose(d.weights[0], want, atol=1e-4)


def test_brute_force_matches_axis_reference():
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), (1.0, 2.0))
    d = g.brute_force_weights(spec, [(1.0, 0.0), (0.0, 1.0)], 2.0, 1000)
    np.testing.assert_allclose(
        d.weights, (0.2841036534166501, 0.7158963465833499), atol=1e-3
    )


def test_brute_force_agrees_with_descent_on_four_points():
    d = g.brute_force_weights(POISSON_CORNERS, SQUARE, 0.0, 200)
    np.testing.assert_allclose(d.weights, FOURPOINT_W, atol=2.0 / 200)


def test_compositions_enumeration():
    C = _compositions(5, 3)
    assert C.shape == (21, 3)  # stars and bars: C(7, 2)
    assert set(C.sum(axis=1).tolist()) == {5}
    assert len({tuple(r) for r in C}) == 21
    np.testing.assert_array_equal(_compositions(2, 2), [[0, 2], [1, 1], [2, 0]])


def test_brute_force_guard_rails():
    lin = g.ModelSpec(g.linear_identity, g.single_factor_intercept(), (0.0, 0.0))
    six = [(x,) for x in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25)]
    with pytest.raises(ValueError):
        g.brute_force_weights(lin, six, 0.0, 10)
    with pytest.raises(ValueError):
        g.brute_force_weights(POISSON_CORNERS, SQUARE + [(0.5, 0.5)], 0.0, 400)
