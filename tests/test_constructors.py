"""Closed-form design constructions and their optimality certificates.

Every construction is cross-checked here against at least one independent
route: the equivalence-theorem verifier, the iterative weight descent, or an
exhaustive grid search. Frozen numbers were produced by the iterative oracle
run at tolerances far below the assertion tolerances.
"""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmdesign as g
from glmdesign import constructors, optimize
from glmdesign.constructors import _d_drop, _d_root
from glmdesign.designs import _EigenState, _scaled_rows

SQUARE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))

FOURPOINT_W = (
    0.29928478966984245,
    0.27143765392829233,
    0.27143765392829233,
    0.15783990247357288,
)


def poisson2(beta):
    return g.ModelSpec(g.poisson_log, g.first_order_intercept(2), beta)


def logistic2(beta):
    return g.ModelSpec(g.logistic, g.first_order_intercept(2), beta)


# ------------------------------------------------------- saturated supports


def test_saturated_d_weights_are_uniform():
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    w = g.saturated_weights(spec, [(-1.0,), (1.0,)], "D")
    np.testing.assert_array_equal(w, [0.5, 0.5])
    w3 = g.saturated_weights(poisson2((0.0, -3.0, -3.0)), [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], "D")
    np.testing.assert_allclose(w3, [1 / 3] * 3, rtol=1e-15)


def test_saturated_a_weights_linear():
    spec = g.ModelSpec(g.linear_identity, g.single_factor_intercept(), (0.0, 0.0))
    w = g.saturated_weights(spec, [(0.0,), (1.0,)], "A")
    root2 = math.sqrt(2.0)
    np.testing.assert_allclose(w, [root2 / (1 + root2), 1 / (1 + root2)], rtol=1e-14)


def test_saturated_a_weights_poisson_frozen():
    spec = g.ModelSpec(g.poisson_log, g.single_factor_intercept(), (0.0, 1.0))
    w = g.saturated_weights(spec, [(0.0,), (1.0,)], "A")
    np.testing.assert_allclose(w[0], 0.6998478812491185, rtol=1e-12)
    # descent on the same two points must land on the same weights
    d = g.optimize_weights(spec, [(0.0,), (1.0,)], 1.0, g.OptimizerOptions(convergence_tol=1e-9))
    np.testing.assert_allclose(w, d.weights, atol=1e-7)


def test_saturated_weights_input_checks():
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    with pytest.raises(ValueError):
        g.saturated_weights(spec, [(0.0,), (0.5,), (1.0,)], "D")  # 3 points, p = 2
    with pytest.raises(ValueError):
        g.saturated_weights(spec, [(0.0,), (1.0,)], "E")


def test_binary_two_point_design_matches_saturated():
    spec = g.ModelSpec(g.poisson_log, g.single_factor_intercept(), (0.0, 1.0))
    d = g.binary_two_point_design(spec, 0.0, 1.0, "A")
    assert d.points == ((0.0,), (1.0,))
    np.testing.assert_allclose(d.weights[0], 0.6998478812491185, rtol=1e-12)
    dd = g.binary_two_point_design(spec, 0.0, 1.0, "D")
    np.testing.assert_array_equal(dd.weights, [0.5, 0.5])
    rep = g.verify_design(d, spec, 1.0, g.FiniteSet(((0.0,), (1.0,))))
    assert rep.passed


# ------------------------------------------------- (p+1)-point D weights


def symmetric_fourpoint_reference(u, d2):
    """The paper's closed form for four points of a three-parameter model
    whose middle two share u_i and d_i^2: the middle weight solves a
    quadratic, written in the rationalized root that keeps all four weights
    in (0, 1) and stays finite at equal weights."""
    a = (d2[1] / d2[0]) * (u[0] / u[1])
    b = (d2[1] / d2[3]) * (u[3] / u[1])
    disc = a * a + b * b + 14.0 * a * b + 16.0 * a * a * b * b - 8.0 * a * a * b - 8.0 * a * b * b
    w2 = 2.0 * a * b / (8.0 * a * b - 2.0 * a - 2.0 * b + math.sqrt(disc))
    half_diff = (a - b) * w2 / (4.0 * a * b)
    w = np.array([(1.0 - 2.0 * w2) / 2.0 + half_diff, w2, w2, (1.0 - 2.0 * w2) / 2.0 - half_diff])
    return w / w.sum()


def bisection_d_root(v, p):
    """The bisection _d_root replaced, same g and branch rule: halves the
    bracket [-h, h] of s = w_m - h from s = 0 until it closes on adjacent
    doubles.  Returns the weights and g'(s) at the root."""
    v = [float(vi) for vi in v]
    m = v.index(min(v))
    h = 0.5 / p
    b = [v[m] / vi for i, vi in enumerate(v) if i != m]

    def others(s):
        return [math.sqrt(h * h * (1.0 - bi) + s * s * bi) for bi in b]

    lo, hi, s = -h, h, 0.0
    while lo < s < hi:
        g_s = 1.0 - sum(bi * (h - s) / (ri + h) for bi, ri in zip(b, others(s)))
        lo, hi = (lo, s) if g_s > 0.0 else (s, hi)
        s = 0.5 * (lo + hi)
    r = others(s)
    # g'(s) = sum_i (b_i + t_i s b_i / R_i) / (R_i + h), t_i = b_i (h - s) / (R_i + h)
    slope = 0.0
    for bi, ri in zip(b, r):
        ti = bi * (h - s) / (ri + h)
        slope += (bi + (ti * s * bi / ri if ri > 0.0 else 0.0)) / (ri + h)
    return np.insert(h + np.array(r), m, h + s), slope


def d_root_draws(seed, n):
    """(v, p) with every point carrying mass: v log-uniform over ratios up to
    1e8 or up to e^3, or the smallest v placed at drop margins 1e-14 to 1e-1."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < n:
        p = int(rng.integers(2, 5))
        kind = len(draws) % 3
        if kind < 2:
            v = np.exp(rng.uniform(0.0, math.log(1e8) if kind == 0 else 3.0, p + 1))
        else:
            rest = np.exp(rng.uniform(0.0, math.log(1e8), p))
            margin = 10.0 ** rng.uniform(-14.0, -1.0)
            v = rng.permutation(np.append(rest, 1.0 / ((1.0 / rest).sum() * (1.0 - margin))))
        if _d_drop(v)[1] < 0.0:
            draws.append((v, p))
    return draws


def test_d_root_matches_bisection_reference():
    # g = 1 - sum of O(1) terms is known to about p eps, so any search ends
    # within p eps / g'(s) of the root: there the two agree to 1e-15 of the
    # total mass, and elsewhere within twice that band
    eps = np.finfo(float).eps
    tight = 0
    for v, p in d_root_draws(29, 600):
        ref, slope = bisection_d_root(v, p)
        band = p * eps / slope
        w = _d_root(v, p)
        np.testing.assert_allclose(w, ref, rtol=1e-15, atol=max(1e-15, 2.0 * band))
        tight += band < 1e-15
    assert tight > 400


def test_d_root_wide_bands_hold_the_exact_root():
    # where g is flat at the root both searches are off by about its rounding
    # band; the new root stays inside it, against a 50-digit root of g
    eps = np.finfo(float).eps
    draws = d_root_draws(31, 300)
    bands = [(p * eps / bisection_d_root(v, p)[1], i) for i, (v, p) in enumerate(draws)]
    for band, i in sorted(bands)[-4:]:
        v, p = draws[i]
        with mpmath.workdps(50):
            vm = [mpmath.mpf(float(x)) for x in v]
            m = vm.index(min(vm))
            h = mpmath.mpf(1) / (2 * p)
            b = [vm[m] / x for j, x in enumerate(vm) if j != m]
            R = lambda s: [mpmath.sqrt(h * h * (1 - bi) + s * s * bi) for bi in b]
            root = mpmath.findroot(
                lambda s: 1 - sum(bi * (h - s) / (ri + h) for bi, ri in zip(b, R(s))),
                (-h, h), solver="anderson")
            exact = [float(h + ri) for ri in R(root)]
            exact.insert(m, float(h + root))
        assert band > 1e-15
        np.testing.assert_allclose(_d_root(v, p), exact, rtol=0.0, atol=2.0 * band)


def test_fourpoint_frozen_weights():
    w = g.fourpoint_d_weights(poisson2((1.0, -0.5, -0.5)), SQUARE)
    np.testing.assert_allclose(w, FOURPOINT_W, rtol=1e-12)


def test_fourpoint_symmetric_is_uniform():
    w = g.fourpoint_d_weights(logistic2((0.0, 0.0, 0.0)), SQUARE)
    np.testing.assert_allclose(w, [0.25] * 4, rtol=1e-12)


def test_fourpoint_stationarity_certificate():
    # u_i w_i (1/3 - w_i) must be constant across the four support points;
    # this is the stationarity property that identifies the optimum
    for beta in [(1.0, -0.5, -0.5), (0.5, -0.3, -0.3), (-0.2, 0.8, 0.8)]:
        spec = poisson2(beta)
        w = g.fourpoint_d_weights(spec, SQUARE)
        u = g.intensity_many(spec, np.asarray(SQUARE))
        cert = u * w * (1.0 / 3.0 - w)
        np.testing.assert_allclose(cert, cert[0], rtol=1e-10)


def test_fourpoint_on_scaled_non_binary_support():
    pts = ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0))
    spec = poisson2((1.0, -0.25, -0.25))
    w = g.fourpoint_d_weights(spec, pts)
    d = g.optimize_weights(spec, pts, 0.0, g.OptimizerOptions(convergence_tol=1e-9))
    np.testing.assert_allclose(w, d.weights, atol=1e-7)


def test_fourpoint_precondition_errors():
    with pytest.raises(ValueError, match="complementary determinant is zero"):
        # without (0, 1) the other three points are collinear
        g.fourpoint_d_weights(poisson2((0.0, -0.3, -0.3)), ((0, 0), (1, 0), (2, 0), (0, 1)))
    with pytest.raises(ValueError, match="exactly p \\+ 1 = 4 points"):
        g.fourpoint_d_weights(poisson2((0.0, -0.3, -0.3)), SQUARE[:3])
    with pytest.raises(ValueError, match="drop rule"):
        # far inside the three-point regime: no interior four-point optimum
        g.fourpoint_d_weights(poisson2((0.0, -3.0, -3.0)), SQUARE)


def test_fourpoint_matches_symmetric_closed_form():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        b0, t = rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8)
        scale = rng.uniform(0.5, 2.0)
        pts = ((0.0, 0.0), (scale, 0.0), (0.0, scale), (scale, scale))
        for family in (g.logistic, g.poisson_log):
            spec = g.ModelSpec(family, g.first_order_intercept(2), (b0, t, t))
            try:
                w = g.fourpoint_d_weights(spec, pts)
            except ValueError:
                continue  # the drop rule holds: no four-point optimum
            F = g.regression_matrix(spec, np.asarray(pts))
            d2 = np.array([np.linalg.det(np.delete(F, i, axis=0)) ** 2 for i in range(4)])
            ref = symmetric_fourpoint_reference(g.intensity_many(spec, np.asarray(pts)), d2)
            np.testing.assert_allclose(w, ref, rtol=1e-12)
            checked += 1
    assert checked > 300


def test_fourpoint_asymmetric_matches_descent():
    spec = poisson2((0.0, -0.3, -0.6))
    w = g.fourpoint_d_weights(spec, SQUARE)
    d = g.optimize_weights(spec, SQUARE, 0.0, g.OptimizerOptions(convergence_tol=1e-11))
    np.testing.assert_allclose(w, d.weights, atol=1e-10)


# origin, the three unit vectors and (1, 1, 1): every four of them span
CUBE_FIVE = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0))


def test_fourpoint_five_points_four_parameters():
    spec = g.ModelSpec(g.probit, g.first_order_intercept(3), (0.1, -0.5, 0.4, 0.3))
    w = g.fourpoint_d_weights(spec, CUBE_FIVE)
    assert w.shape == (5,) and (w > 0.0).all()
    rep = g.verify_design(g.Design.from_arrays(CUBE_FIVE, w), spec, 0.0, g.FiniteSet(CUBE_FIVE))
    assert rep.passed and max(rep.support_residuals) <= 1e-11 * 4


def test_fourpoint_random_supports_meet_support_condition():
    # d(x_i) = p on every support point, for p = 2, 3, 4 and three families;
    # at most one weight below 1/(2p).  With one factor, three points share
    # the optimum only under a steep slope.  The second pass redraws with
    # slope 6 at every p, which spreads the intensities over orders of
    # magnitude on well-conditioned supports.
    kinds = {2: g.single_factor_intercept(), 3: g.first_order_intercept(2),
             4: g.first_order_intercept(3)}
    for steep in (False, True):
        rng = np.random.default_rng(5)
        for p, kind in kinds.items():
            slope = 6.0 if steep or p == 2 else 1.5
            solved = 0
            for family in (g.logistic, g.poisson_log, g.probit):
                for _ in range(40):
                    beta = (rng.uniform(-1.0, 1.0), *rng.uniform(-slope, slope, p - 1))
                    spec = g.ModelSpec(family, kind, beta)
                    pts = rng.uniform(-1.0, 1.0, (p + 1, p - 1))
                    try:
                        w = g.fourpoint_d_weights(spec, pts)
                    except ValueError:
                        continue  # the drop rule holds
                    solved += 1
                    assert abs(w.sum() - 1.0) <= 1e-15 and (w < 0.5 / p).sum() <= 1
                    design = g.Design.from_arrays(pts, w)
                    rep = g.verify_design(design, spec, 0.0, g.FiniteSet(pts))
                    assert max(rep.support_residuals) <= 1e-11 * p, (p, slope, family.name, rep)
            assert solved >= 8, (p, slope)


def test_fourpoint_agrees_with_brute_force():
    spec = poisson2((1.0, -0.5, -0.5))
    w = g.fourpoint_d_weights(spec, SQUARE)
    bf = g.brute_force_weights(spec, SQUARE, 0.0, 200)
    np.testing.assert_allclose(bf.weights, w, atol=2.0 / 200)


# ------------------------------------------------------------- axis weights


def test_axis_weight_exponent_family():
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), (1.0, 2.0))
    a = (1.0, 1.0)
    np.testing.assert_allclose(g.phik_axis_weights(spec, a, 0.0), [0.5, 0.5], rtol=1e-14)
    np.testing.assert_allclose(g.phik_axis_weights(spec, a, 1.0), [1 / 3, 2 / 3], rtol=1e-13)
    np.testing.assert_allclose(
        g.phik_axis_weights(spec, a, 2.0),
        [0.2841036534166501, 0.7158963465833499],
        rtol=1e-12,
    )
    np.testing.assert_allclose(g.phik_axis_weights(spec, a, math.inf), [0.2, 0.8], rtol=1e-13)


def test_axis_weights_gamma_scale_free():
    # for the reciprocal-link gamma model the product a_i^2 u_i is free of a,
    # so the weights cannot depend on where along each axis we measure
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(3), (1.0, 2.0, 0.5))
    w1 = g.phik_axis_weights(spec, (1.0, 1.0, 1.0), 1.0)
    w2 = g.phik_axis_weights(spec, (0.37, 1.9, 2.64), 1.0)
    np.testing.assert_allclose(w1, w2, atol=1e-12)


def test_axis_weights_match_descent_for_poisson():
    spec = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(2), (math.log(0.4), math.log(0.5)))
    a = (1.0, 1.0)
    for k in (0.0, 0.5, 1.0, 2.0):
        w = g.phik_axis_weights(spec, a, k)
        d = g.optimize_weights(
            spec, [(1.0, 0.0), (0.0, 1.0)], k, g.OptimizerOptions(convergence_tol=1e-9)
        )
        np.testing.assert_allclose(w, d.weights, atol=1e-7)


# ----------------------------------------------------------- interval [0,1]


def test_interval_boundary_logistic_frozen():
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    rd = g.interval_boundary_design(spec, "D")
    assert rd.condition_ok
    np.testing.assert_allclose(rd.condition_margin, 7.544255064664372, rtol=1e-10)
    np.testing.assert_array_equal(rd.design.weights, [0.5, 0.5])
    assert rd.design.points == ((0.0,), (1.0,))

    ra = g.interval_boundary_design(spec, "A")
    assert ra.condition_ok
    np.testing.assert_allclose(
        ra.design.weights, (0.5563740539198445, 0.4436259460801556), rtol=1e-12
    )
    np.testing.assert_allclose(ra.condition_margin, 13.923070797780035, rtol=1e-10)


def test_interval_boundary_designs_verify_on_grid():
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    grid = g.GridBox((0.0,), (1.0,), (501,))
    for crit, k in (("D", 0.0), ("A", 1.0)):
        r = g.interval_boundary_design(spec, crit)
        rep = g.verify_design(r.design, spec, k, grid)
        assert rep.passed, (crit, rep.worst_gap)


def test_interval_boundary_flags_interior_optimum():
    # steep response: the optimum moves inside the interval and the convexity
    # condition must report failure instead of certifying the endpoints
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (-5.0, 10.0))
    for crit in ("D", "A"):
        r = g.interval_boundary_design(spec, crit)
        assert not r.condition_ok
        assert r.condition_margin < 0.0
        rep = g.verify_design(
            r.design, spec, 0.0 if crit == "D" else 1.0, g.GridBox((0.0,), (1.0,), (501,))
        )
        assert not rep.passed


def test_interval_boundary_other_families():
    # analytic curvature branches: poisson and gamma
    spec = g.ModelSpec(g.poisson_log, g.single_factor_intercept(), (0.0, -1.0))
    r = g.interval_boundary_design(spec, "D")
    assert r.condition_ok
    rep = g.verify_design(r.design, spec, 0.0, g.GridBox((0.0,), (1.0,), (301,)))
    assert rep.passed

    specg = g.ModelSpec(g.gamma_inverse, g.single_factor_intercept(), (1.0, 2.0))
    rg = g.interval_boundary_design(specg, "A")
    assert rg.condition_ok
    repg = g.verify_design(rg.design, specg, 1.0, g.GridBox((0.0,), (1.0,), (301,)))
    assert repg.passed


def _logistic_scalar(eta):
    e = math.exp(-abs(eta))
    return e / (1.0 + e) ** 2


def test_interval_custom_family_takes_finite_difference_curvature():
    # a custom family has no analytic q'' and takes central differences;
    # the margin q(0) + q(1) - q''/2 (D) loses its digits relative to the
    # terms q(0) + q(1), not to itself, so that is the scale of the slack
    made = g.custom_family("logistic_again", _logistic_scalar)
    rng = np.random.default_rng(24)
    for _ in range(100):
        beta = tuple(rng.uniform(-6.0, 6.0, 2))
        spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), beta)
        scale = float((1.0 / g.intensity_many(spec, [[0.0], [1.0]])).sum())
        for crit in ("D", "A"):
            ref = g.interval_boundary_design(spec, crit)
            r = g.interval_boundary_design(
                g.ModelSpec(made, g.single_factor_intercept(), beta), crit
            )
            np.testing.assert_allclose(
                r.condition_margin, ref.condition_margin, rtol=1e-5, atol=1e-6 * scale
            )
            assert r.condition_ok == ref.condition_ok, (beta, crit)
            np.testing.assert_allclose(r.design.weights, ref.design.weights, rtol=1e-13)


@pytest.mark.parametrize("slope", [700.0, 705.0])
@pytest.mark.parametrize("crit", ["D", "A"])
def test_interval_boundary_overflowing_curvature_is_domain_error(slope, crit):
    # q'' = beta_1^2 (e^eta + e^-eta) overflows inside [0, 1]: a typed error
    # naming beta, with no RuntimeWarning on the way
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, slope))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(g.DomainError, match=rf"beta=\(0\.0, {slope}\)"):
            g.interval_boundary_design(spec, crit)


def test_interval_condition_is_sufficient():
    # condition_ok => certified on a fine grid; the converse fails, since
    # the convexity condition on q = 1/u is only sufficient
    rng = np.random.default_rng(7)
    grid = g.GridBox((0.0,), (1.0,), (2001,))
    for family in (g.logistic, g.probit, g.poisson_log):
        for crit, k in (("D", 0.0), ("A", 1.0)):
            certified_anyway = 0
            for _ in range(300):
                beta = tuple(rng.uniform(-6.0, 6.0, 2))
                spec = g.ModelSpec(family, g.single_factor_intercept(), beta)
                r = g.interval_boundary_design(spec, crit)
                try:
                    passed = g.verify_design(r.design, spec, k, grid).passed
                except g.SingularMatrixError:
                    # steep probit: the endpoint intensities lie more than the
                    # singularity gate's 1e10 apart; the condition fails there
                    assert not r.condition_ok, (family.name, crit, beta)
                    continue
                assert passed or not r.condition_ok, (family.name, crit, beta)
                certified_anyway += passed and not r.condition_ok
            assert certified_anyway > 0, (family.name, crit)


# ------------------------------------------------------------- two factors


def test_two_factor_d_three_point_case():
    spec = poisson2((0.0, -3.0, -3.0))
    r = g.two_factor_design(spec, "D")
    assert r.case_label == "D-3pt"
    assert r.condition_ok
    assert r.design.points == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    np.testing.assert_allclose(r.design.weights, [1 / 3] * 3, rtol=1e-14)
    assert g.verify_design(r.design, spec, 0.0, g.BinaryHypercube(2)).passed


def test_two_factor_d_four_point_case():
    spec = poisson2((1.0, -0.5, -0.5))
    r = g.two_factor_design(spec, "D")
    assert r.case_label == "D-4pt"
    assert r.condition_ok
    np.testing.assert_allclose(r.design.weights, FOURPOINT_W, rtol=1e-10)
    assert g.verify_design(r.design, spec, 0.0, g.BinaryHypercube(2)).passed


def test_two_factor_d_four_point_asymmetric():
    # unequal slopes leave the symmetric closed form; the bracketed root must
    # still satisfy the stationarity condition
    spec = logistic2((0.4, -0.7, -1.1))
    r = g.two_factor_design(spec, "D")
    assert r.case_label == "D-4pt"
    assert r.design.size == 4
    rep = g.verify_design(r.design, spec, 0.0, g.BinaryHypercube(2))
    assert rep.passed
    u = g.intensity_many(spec, np.asarray(r.design.points))
    w = np.asarray(r.design.weights)
    cert = u * w * (1.0 / 3.0 - w)
    np.testing.assert_allclose(cert, cert[0], rtol=1e-8)


T_STAR = -0.8813735870195429  # -log(1 + sqrt(2)): Poisson 3pt/4pt crossover at beta = (0, t, t)


def test_two_factor_d_crossover_pins():
    below = poisson2((0.0, T_STAR - 2e-6, T_STAR - 2e-6))
    above = poisson2((0.0, T_STAR + 2e-6, T_STAR + 2e-6))
    rb = g.two_factor_design(below, "D")
    ra = g.two_factor_design(above, "D")
    assert rb.case_label == "D-3pt" and rb.condition_ok
    assert ra.case_label == "D-4pt" and ra.condition_ok
    assert g.verify_design(rb.design, below, 0.0, g.BinaryHypercube(2)).passed
    assert g.verify_design(ra.design, above, 0.0, g.BinaryHypercube(2)).passed


@pytest.mark.parametrize(
    "family,beta",
    [
        (g.logistic, (-3.2286750499921855, 1.2526184417374964, 0.876881186067525)),
        (g.poisson_log, (1.5598561700462223, 0.3356283530568467, -1.7939543725885798)),
        (g.poisson_log, (0.0, T_STAR + 1e-9, T_STAR + 1e-9)),
        (g.poisson_log, (0.0, T_STAR + 1e-7, T_STAR + 2e-7)),
        (g.poisson_log, (0.0, -0.4664863872654101, -0.4664863872654101)),
        (g.poisson_log, (0.0, -0.4664863882754101, -0.4664863882754101)),
        (g.poisson_log, (0.0, -0.4664863782654101, -0.4664863782654101)),
    ],
)
def test_two_factor_d_four_point_edge_cases(family, beta):
    # one weight within 1e-4 of zero; the next two sit just past the crossover;
    # the last three put the corner (1, 1) within 1e-8 of the branch point w = 1/6
    spec = g.ModelSpec(family, g.first_order_intercept(2), beta)
    r = g.two_factor_design(spec, "D")
    assert r.case_label == "D-4pt" and r.condition_ok
    assert g.verify_design(r.design, spec, 0.0, g.BinaryHypercube(2)).passed


def test_two_factor_d_four_point_branch_rule():
    # at most one weight below 1/6, and only at the lowest-intensity corner
    rng = np.random.default_rng(3)
    four = lower = 0
    for family in (g.logistic, g.poisson_log):
        for beta in rng.uniform(-4.0, 2.0, size=(200, 3)):
            spec = g.ModelSpec(family, g.first_order_intercept(2), tuple(beta))
            r = g.two_factor_design(spec, "D")
            if r.case_label != "D-4pt":
                continue
            four += 1
            assert r.condition_ok
            assert g.verify_design(r.design, spec, 0.0, g.BinaryHypercube(2)).passed
            u = g.intensity_many(spec, np.asarray(SQUARE))
            below = np.flatnonzero(np.asarray(r.design.weights) < 1.0 / 6.0)
            assert below.size <= 1 and all(u[below] == u.min())
            lower += below.size
    assert four > 100 and 0 < lower < four


@pytest.mark.parametrize(
    "beta,label,dropped",
    [
        ((0.0, -3.0, -3.0), "A-3pt-drop4", (1.0, 1.0)),
        ((0.0, 3.0, 3.0), "A-3pt-drop1", (0.0, 0.0)),
        ((0.0, -5.0, 5.0), "A-3pt-drop2", (1.0, 0.0)),
        ((0.0, 5.0, -5.0), "A-3pt-drop3", (0.0, 1.0)),
    ],
)
def test_two_factor_a_three_point_cases(beta, label, dropped):
    spec = poisson2(beta)
    r = g.two_factor_design(spec, "A")
    assert r.case_label == label
    assert r.condition_ok
    assert dropped not in r.design.points
    assert g.verify_design(r.design, spec, 1.0, g.BinaryHypercube(2)).passed


def test_two_factor_a_four_point_case():
    spec = logistic2((0.0, 0.0, 0.0))
    r = g.two_factor_design(spec, "A")
    assert r.case_label == "A-4pt-numeric"
    assert r.condition_ok
    np.testing.assert_allclose(
        r.design.weights,
        (0.3559906035, 0.2251482266, 0.2251482266, 0.1937129434),
        atol=1e-8,
    )
    assert g.verify_design(r.design, spec, 1.0, g.BinaryHypercube(2)).passed


def test_two_factor_a_four_point_small_weight_certifies():
    # one corner carries only ~4e-5; the numeric branch must still balance
    # all four corners to its 1e-12 tolerance
    spec = logistic2((-0.9789176901409578, -3.344574806950482, 0.5758376748180476))
    r = g.two_factor_design(spec, "A")
    assert r.case_label == "A-4pt-numeric"
    assert r.design.size == 4
    assert g.verify_design(r.design, spec, 1.0, g.BinaryHypercube(2), tol=1e-10).passed


def two_factor_strata(seed, n):
    """Seeded two-factor models: the benchmark's three strata (logistic,
    Poisson, steep logistic) and probit."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n):
        stratum = i % 4
        if stratum == 0:
            fam, beta = g.logistic, rng.uniform(-1.5, 0.5, 3)
        elif stratum == 1:
            fam, beta = g.poisson_log, rng.uniform(-1.0, 0.5, 3)
        elif stratum == 2:
            fam, beta = g.logistic, (rng.uniform(-1.0, 1.0), *rng.uniform(-3.0, -1.5, 2))
        else:
            fam, beta = g.probit, rng.uniform(-1.5, 0.5, 3)
        specs.append(g.ModelSpec(fam, g.first_order_intercept(2), tuple(beta)))
    return specs


def eigen_support_gap(spec, design):
    G = _scaled_rows(spec, design.point_array)
    state = _EigenState(G, design.weight_array, 1.0)
    return float(np.abs(state.scores(G) - state.bound).max()) / state.bound


def test_two_factor_a_four_point_matches_newton_weight_solve():
    opts = g.OptimizerOptions(convergence_tol=1e-12)
    families = set()
    for spec in two_factor_strata(7, 240):
        r = g.two_factor_design(spec, "A")
        if r.case_label != "A-4pt-numeric":
            continue
        families.add(spec.family.name)
        ref = g.optimize_weights(spec, SQUARE, 1.0, opts)
        assert ref.points == r.design.points
        np.testing.assert_allclose(r.design.weights, ref.weights, rtol=0.0, atol=1e-12)
        assert eigen_support_gap(spec, r.design) <= 1e-12
    assert families == {"logistic", "poisson_log", "probit"}


def test_two_factor_a_four_point_within_brute_force_grid():
    checked = 0
    for spec in two_factor_strata(8, 40):
        r = g.two_factor_design(spec, "A")
        if r.case_label != "A-4pt-numeric" or checked == 8:
            continue
        bf = g.brute_force_weights(spec, SQUARE, 1.0, 200)
        np.testing.assert_allclose(bf.weights, r.design.weights, atol=2.0 / 200)
        checked += 1
    assert checked == 8


def test_two_factor_a_small_weight_support_gap():
    spec = logistic2((-0.9789176901409578, -3.344574806950482, 0.5758376748180476))
    r = g.two_factor_design(spec, "A")
    assert min(r.design.weights) < 1e-4
    assert eigen_support_gap(spec, r.design) <= 1e-12


def test_two_factor_a_never_calls_the_weight_solve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("two_factor_design called the general weight solve")

    monkeypatch.setattr(optimize, "optimize_weights", fail)
    monkeypatch.setattr(optimize, "_solve_weights", fail)
    assert "optimize_weights" not in vars(constructors)
    four = 0
    for spec in two_factor_strata(9, 40):
        four += g.two_factor_design(spec, "A").case_label == "A-4pt-numeric"
    assert four > 0


def test_two_factor_never_raises_on_seeded_betas():
    rng = np.random.default_rng(12)
    for fam in (g.logistic, g.poisson_log, g.probit):
        for _ in range(40):
            spec = g.ModelSpec(fam, g.first_order_intercept(2), tuple(rng.uniform(-4.0, 2.0, 3)))
            for crit, k in (("D", 0.0), ("A", 1.0)):
                r = g.two_factor_design(spec, crit)
                assert g.verify_design(r.design, spec, k, g.BinaryHypercube(2), tol=1e-9).passed


def test_two_factor_swap_equivariance():
    s1 = logistic2((0.4, -0.7, -1.1))
    s2 = logistic2((0.4, -1.1, -0.7))
    r1 = g.two_factor_design(s1, "D")
    r2 = g.two_factor_design(s2, "D")
    w1 = dict(zip(r1.design.points, r1.design.weights))
    w2 = dict(zip(r2.design.points, r2.design.weights))
    for (x1, x2), w in w1.items():
        np.testing.assert_allclose(w2[(x2, x1)], w, rtol=1e-9)


# ---------------------------------------------------------- corner designs


def test_corner_design_three_factors():
    spec = g.ModelSpec(g.poisson_log, g.first_order_intercept(3), (0.0, -3.0, -3.0, -3.0))
    rd = g.corner_design_multifactor(spec, "D")
    assert rd.case_label == "D-corner" and rd.condition_ok
    assert rd.design.size == 4
    np.testing.assert_allclose(rd.design.weights, [0.25] * 4, rtol=1e-14)
    assert g.verify_design(rd.design, spec, 0.0, g.BinaryHypercube(3)).passed

    ra = g.corner_design_multifactor(spec, "A")
    assert ra.case_label == "A-corner" and ra.condition_ok
    np.testing.assert_allclose(
        ra.design.weights,
        (0.1294911814, 0.2901696062, 0.2901696062, 0.2901696062),
        atol=1e-9,
    )
    assert g.verify_design(ra.design, spec, 1.0, g.BinaryHypercube(3)).passed


def test_corner_design_condition_failure():
    spec = poisson2((0.0, 0.0, 0.0))
    r = g.corner_design_multifactor(spec, "D")
    assert not r.condition_ok
    np.testing.assert_allclose(r.condition_margin, -2.0, rtol=1e-12)
    assert not g.verify_design(r.design, spec, 0.0, g.BinaryHypercube(2)).passed


def test_corner_design_two_factors_equals_two_factor_route():
    spec = poisson2((0.0, -3.0, -3.0))
    rc = g.corner_design_multifactor(spec, "D")
    rt = g.two_factor_design(spec, "D")
    assert rt.case_label == "D-3pt"
    assert rc.design == rt.design


def test_corner_design_gamma_with_intercept():
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_intercept(2), (1.0, 3.0, 4.0))
    r = g.corner_design_multifactor(spec, "D")
    assert r.condition_ok
    # gamma domain excludes nothing here: all corners give positive predictor
    rep = g.verify_design(r.design, spec, 0.0, g.BinaryHypercube(2))
    assert rep.passed


def test_corner_condition_decides_certification():
    # the paper states the corner condition as iff: condition_ok must agree
    # with the equivalence theorem, also for probit A, whose 1/u is large at
    # the support corners
    rng = np.random.default_rng(11)
    for family in (g.probit, g.logistic, g.poisson_log):
        for crit, k in (("D", 0.0), ("A", 1.0)):
            for nu in (2, 3, 4):
                for _ in range(100):
                    beta = (rng.uniform(-1.0, 1.0), *rng.uniform(-5.0, -0.5, nu))
                    spec = g.ModelSpec(family, g.first_order_intercept(nu), beta)
                    r = g.corner_design_multifactor(spec, crit)
                    rep = g.verify_design(r.design, spec, k, g.BinaryHypercube(nu))
                    assert r.condition_ok == rep.passed, (family.name, crit, beta)


def corner_margin_reference(spec, crit):
    """The paper's corner inequality for the origin-plus-axes design: with
    s the number of ones of a corner x, D holds where
    u(x) ((1 - s)^2 / u_0 + sum_{i: x_i = 1} 1 / u_i) <= 1, and A, with
    q_i = 1 / sqrt(u_i), where u(x) (q_0^2 (1 - s)^2 + sum q_i^2
    + 2 q_0 (s - 1) sum q_i / sqrt(nu + 1)) <= 1, the sums over the ones of
    x.  Returns min over the corners of 1 - u(x) lhs(x)."""
    nu = spec.nu
    support = np.vstack([np.zeros(nu), np.eye(nu)])
    u_sup = g.intensity_many(spec, support)
    corners = np.asarray(list(itertools.product((0.0, 1.0), repeat=nu)))
    u_cor = g.intensity_many(spec, corners)
    s = corners.sum(axis=1)
    if crit == "D":
        lhs = (1.0 - s) ** 2 / u_sup[0] + corners @ (1.0 / u_sup[1:])
    else:
        qs = 1.0 / np.sqrt(u_sup)
        lhs = (
            qs[0] ** 2 * (1.0 - s) ** 2
            + corners @ (qs[1:] ** 2)
            + (2.0 * qs[0] / math.sqrt(nu + 1.0)) * (s - 1.0) * (corners @ qs[1:])
        )
    return float((1.0 - u_cor * lhs).min())


def assert_margins_agree(margin, reference):
    assert abs(margin - reference) <= 1e-12 * max(1.0, abs(reference)), (margin, reference)


def test_corner_margin_matches_paper_inequality():
    # the constructor's margin comes from the equivalence-theorem kernel;
    # the paper's inequality must give the same number
    rng = np.random.default_rng(21)
    for family in (g.probit, g.logistic, g.poisson_log):
        for crit in ("D", "A"):
            for nu in (2, 3, 4):
                for _ in range(50):
                    beta = (rng.uniform(-2.0, 2.0), *rng.uniform(-5.0, 1.0, nu))
                    spec = g.ModelSpec(family, g.first_order_intercept(nu), beta)
                    r = g.corner_design_multifactor(spec, crit)
                    assert_margins_agree(r.condition_margin, corner_margin_reference(spec, crit))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("crit", ["D", "A"])
def test_corner_extreme_eta_is_typed_error(crit):
    # u at the first axis corner is subnormal: a typed error, never a NaN margin
    spec = g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.0, -720.0, 3.0))
    with pytest.raises((g.SingularMatrixError, g.DomainError, g.CriterionOverflowError)):
        g.corner_design_multifactor(spec, crit)


# ------------------------------------------------------------ axis designs


def test_axis_design_gamma_unconditional():
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), (1.0, 2.0))
    r = g.axis_design(spec, (1.0, 1.0), 1.0)
    assert r.case_label == "axis-gamma"
    assert r.condition_ok and r.condition_margin == 0.0
    np.testing.assert_allclose(r.design.weights, [1 / 3, 2 / 3], rtol=1e-13)
    # certify over a punctured positive region (origin excluded: zero
    # predictor is outside the reciprocal-link domain)
    grid = g.GridBox((0.05, 0.05), (1.0, 1.0), (20, 20))
    assert g.verify_design(r.design, spec, 1.0, grid).passed


def test_axis_design_gamma_measurement_scale_free():
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), (1.0, 2.0))
    r1 = g.axis_design(spec, (1.0, 1.0), 1.0)
    r2 = g.axis_design(spec, (0.37, 1.9), 1.0)
    np.testing.assert_allclose(r1.design.weights, r2.design.weights, atol=1e-12)
    assert r2.design.points == ((0.37, 0.0), (0.0, 1.9))


def test_axis_design_poisson_rate_condition():
    spec = g.ModelSpec(
        g.poisson_log, g.first_order_no_intercept(2), (math.log(0.4), math.log(0.5))
    )
    r = g.axis_design(spec, (1.0, 1.0), 1.0)
    assert r.case_label == "axis-poisson"
    assert r.condition_ok
    np.testing.assert_allclose(r.condition_margin, 0.1, rtol=1e-12)  # 1 - 0.4 - 0.5
    np.testing.assert_allclose(
        r.design.weights, (0.5278640450004205, 0.4721359549995794), rtol=1e-12
    )
    assert g.verify_design(r.design, spec, 1.0, g.BinaryHypercube(2)).passed

    hot = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(2), (0.0, 0.0))
    rh = g.axis_design(hot, (1.0, 1.0), 1.0)
    assert not rh.condition_ok
    np.testing.assert_allclose(rh.condition_margin, -1.0, rtol=1e-12)


def test_axis_design_general_scan_path():
    spec = g.ModelSpec(g.logistic, g.first_order_no_intercept(2), (1.0, 1.0))
    # over its own two support points the equal-weight design is optimal
    ok = g.axis_design(spec, (1.0, 1.0), 0.0, region=g.AxisSet((1.0, 1.0)))
    assert ok.case_label == "axis-general"
    assert ok.condition_ok
    # over the full square it is not: the scan must flag that honestly
    bad = g.axis_design(spec, (1.0, 1.0), 0.0, region=g.BinaryHypercube(2))
    assert not bad.condition_ok
    assert bad.condition_margin < 0.0


def axis_margin_reference(spec, a, cand):
    """The paper's condition for the axis design on its order-k weights:
    u(x) sum_i x_i^2 / (a_i^2 u(a_i e_i)) <= 1, the same at every k.
    Returns min over the candidates of 1 - lhs(x)."""
    a = np.asarray(a, dtype=float)
    u_sup = g.intensity_many(spec, np.diag(a))
    lhs = g.intensity_many(spec, cand) * ((cand * cand) @ (1.0 / (a * a * u_sup)))
    return float((1.0 - lhs).min())


def test_axis_general_margin_matches_paper_inequality():
    rng = np.random.default_rng(22)
    for family in (g.logistic, g.probit, g.poisson_log):
        for k in (0.0, 0.5, 1.0, 3.0):
            for nu in (2, 3):
                for _ in range(25):
                    spec = g.ModelSpec(
                        family, g.first_order_no_intercept(nu), tuple(rng.uniform(-2.0, 2.0, nu))
                    )
                    a = tuple(rng.uniform(0.3, 2.0, nu))
                    region = g.GridBox((0.0,) * nu, tuple(2.0 * np.asarray(a)), (5,) * nu)
                    r = g.axis_design(spec, a, k, region=region)
                    assert r.case_label == "axis-general"
                    reference = axis_margin_reference(spec, a, g.region_points(region))
                    assert_margins_agree(r.condition_margin, reference)


def test_axis_general_infinite_k_reports_the_k_free_margin():
    spec = g.ModelSpec(g.logistic, g.first_order_no_intercept(2), (1.0, -0.5))
    region = g.GridBox((0.0, 0.0), (2.0, 2.0), (9, 9))
    r = g.axis_design(spec, (1.0, 1.5), math.inf, region=region)
    reference = axis_margin_reference(spec, (1.0, 1.5), g.region_points(region))
    assert_margins_agree(r.condition_margin, reference)
    assert r.condition_margin == g.axis_design(spec, (1.0, 1.5), 0.0, region).condition_margin


def test_axis_poisson_condition_decides_certification():
    # the two largest rates decide: (-3, -3, 0) has rates 0.05, 0.05, 1,
    # and fails at (0, 1, 1) by about 0.0498 of the bound
    spec = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(3), (-3.0, -3.0, 0.0))
    r = g.axis_design(spec, (1.0, 1.0, 1.0), 1.0)
    assert not r.condition_ok
    np.testing.assert_allclose(r.condition_margin, -math.exp(-3.0), rtol=1e-12)
    rep = g.verify_design(r.design, spec, 1.0, g.BinaryHypercube(3))
    assert not rep.passed and rep.worst_point == (0.0, 1.0, 1.0)

    rng = np.random.default_rng(23)
    for nu in (2, 3, 4, 5):
        for k in (0.0, 1.0, 2.0):
            for _ in range(40):
                beta = tuple(np.log(rng.uniform(0.02, 0.9, nu)))
                spec = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(nu), beta)
                r = g.axis_design(spec, (1.0,) * nu, k)
                assert r.case_label == "axis-poisson"
                rep = g.verify_design(r.design, spec, k, g.BinaryHypercube(nu))
                assert r.condition_ok == rep.passed, (nu, k, beta)


@pytest.mark.parametrize(
    "name, intensity, beta, k",
    [
        # the Poisson intensity under gamma's name: gamma's rule certified
        # (0.5, 2.0) with margin 0, and ModelSpec rejected (-0.5, 2.0)
        ("gamma_inverse", math.exp, (0.5, 2.0), 0.0),
        ("gamma_inverse", math.exp, (-0.5, 2.0), 0.0),
        # the logistic intensity under Poisson's name: the two-largest-rates
        # rule would certify, the design fails at (1, 1)
        ("poisson_log", _logistic_scalar, (-1.0, -1.0), 1.0),
    ],
)
def test_axis_custom_family_with_builtin_name_takes_general_path(name, intensity, beta, k):
    spec = g.ModelSpec(g.custom_family(name, intensity), g.first_order_no_intercept(2), beta)
    region = g.BinaryHypercube(2)
    r = g.axis_design(spec, (1.0, 1.0), k, region)
    assert r.case_label == "axis-general"
    rep = g.verify_design(r.design, spec, k, region)
    assert not rep.passed and not r.condition_ok
    np.testing.assert_allclose(r.condition_margin, -rep.worst_gap / rep.bound, rtol=1e-12)
    with pytest.raises(ValueError, match="needs a finite region"):
        g.axis_design(spec, (1.0, 1.0), k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_axis_poisson_overflowing_margin_is_domain_error():
    # each rate e^709.7 is finite, their sum is not
    spec = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(2), (709.7, 709.7))
    with pytest.raises(g.DomainError, match=r"beta=\(709\.7, 709\.7\)"):
        g.axis_design(spec, (1.0, 1.0), 1.0)


# ------------------------------------------------- hypercube linear layers


def _ones_layers(design):
    return sorted({int(round(sum(p))) for p in design.points})


def test_hypercube_layer_membership():
    assert _ones_layers(g.hypercube_linear_design(3, "D")) == [2]
    assert _ones_layers(g.hypercube_linear_design(3, "A")) == [2]
    assert _ones_layers(g.hypercube_linear_design(2, "D")) == [1, 2]
    assert _ones_layers(g.hypercube_linear_design(4, "D")) == [2, 3]
    assert _ones_layers(g.hypercube_linear_design(4, "A")) == [2]
    assert _ones_layers(g.hypercube_linear_design(5, "D")) == [3]
    assert g.hypercube_linear_design(5, "D").size == 10


def test_hypercube_designs_certify_for_linear_model():
    # the target model is linear through the origin in the nu factors
    for nu in (2, 3, 4, 5):
        spec = g.ModelSpec(g.linear_identity, g.first_order_no_intercept(nu), (0.0,) * nu)
        for crit, k in (("D", 0.0), ("A", 1.0)):
            d = g.hypercube_linear_design(nu, crit)
            rep = g.verify_design(d, spec, k, g.BinaryHypercube(nu))
            assert rep.passed, (nu, crit, rep.worst_gap)


def test_hypercube_two_factor_a_layer_is_not_optimal():
    # for two factors the single layer with one 1 is not A-optimal: the
    # verifier rejects it, and the constructor mixes in the corner (1, 1)
    single_layer = g.Design.from_arrays([(1.0, 0.0), (0.0, 1.0)], [0.5, 0.5])
    spec = g.ModelSpec(g.linear_identity, g.first_order_no_intercept(2), (0.0, 0.0))
    rep = g.verify_design(single_layer, spec, 1.0, g.BinaryHypercube(2))
    assert not rep.passed
    np.testing.assert_allclose(rep.worst_gap, 4.0, rtol=1e-12)  # 8 at (1,1) vs 4
    d = g.hypercube_linear_design(2, "A")
    assert g.verify_design(d, spec, 1.0, g.BinaryHypercube(2)).passed


def test_hypercube_two_factor_a_mixture_frozen():
    d = g.hypercube_linear_design(2, "A")
    w = 2.0 / (3.0 + math.sqrt(3.0))
    weight_at = dict(zip(d.points, d.weights))
    assert set(weight_at) == {(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
    np.testing.assert_allclose(
        [weight_at[(1.0, 0.0)], weight_at[(0.0, 1.0)], weight_at[(1.0, 1.0)]],
        [w, w, 1.0 - 2.0 * w],
        rtol=1e-12,
    )
    spec = g.ModelSpec(g.linear_identity, g.first_order_no_intercept(2), (0.0, 0.0))
    np.testing.assert_allclose(g.a_value(d, spec), 2.0 + math.sqrt(3.0), rtol=1e-12)
    punctured = g.FiniteSet(((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    found = g.optimize_design(spec, punctured, 1.0, g.OptimizerOptions(convergence_tol=1e-8))
    assert found.report.passed
    np.testing.assert_allclose(
        g.information_matrix(found.design, spec), g.information_matrix(d, spec), atol=1e-5
    )


def test_hypercube_input_checks():
    with pytest.raises(ValueError):
        g.hypercube_linear_design(1, "D")
    with pytest.raises(ValueError):
        g.hypercube_linear_design(3, "E")


# --------------------------------------------------------------- property


@given(
    b0=st.floats(-1.0, 1.0, allow_nan=False),
    b12=st.floats(-2.0, -0.1, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_two_factor_symmetric_always_certifies(b0, b12):
    # along the symmetric slice the constructor must always pick a branch
    # whose design passes the optimality check
    spec = poisson2((b0, b12, b12))
    r = g.two_factor_design(spec, "D")
    assert r.condition_ok
    rep = g.verify_design(r.design, spec, 0.0, g.BinaryHypercube(2))
    assert rep.passed
