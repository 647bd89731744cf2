"""Model-layer tests: intensities, regression vectors, unit information.

Intensity formulas are cross-checked against a finite-difference oracle built
from each family's mean function and variance, i.e. u = 1/(var(Y)*(deta/dmu)^2)
assembled from first principles rather than from the shipped formulas.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmdesign as g
from glmdesign.errors import DomainError
from glmdesign.models import _eta_many

FAMILIES = {
    "logistic": g.logistic,
    "probit": g.probit,
    "poisson_log": g.poisson_log,
    "gamma_inverse": g.gamma_inverse,
    "linear_identity": g.linear_identity,
}


def test_gamma_intensity_is_within_two_ulp_of_exact():
    # 1 / eta / eta rounds twice; the exact 1 / eta^2 of a double is a Fraction
    eta = 10.0 ** np.random.default_rng(20).uniform(-150.0, 150.0, 2000)
    u = g.gamma_inverse.intensity_of_eta(eta)
    for e, v in zip(eta.tolist(), u.tolist()):
        exact = 1 / Fraction(e) ** 2
        assert abs(Fraction(v) - exact) <= 2 * Fraction(math.ulp(float(exact))), e


def test_gamma_intensity_keeps_its_range_ends():
    # eta^2 overflows above ~1.3e154, 1 / eta^2 not until ~1.5e162
    eta = np.array([1e-155, 1e-154, 1e154, 2e154, 1e160, 1e163])
    want = [math.inf, 1e308, 1e-308, 2.5e-309, 1e-320, 0.0]
    np.testing.assert_allclose(g.gamma_inverse.intensity_of_eta(eta), want, rtol=1e-14)


def _numeric_intensity(name, eta, h=1e-6):
    """Finite-difference 1/(var * (deta/dmu)^2) from mean/variance functions."""
    from scipy.special import ndtr

    if name == "logistic":
        mu = lambda t: 1.0 / (1.0 + math.exp(-t))
        var = mu(eta) * (1.0 - mu(eta))
    elif name == "probit":
        mu = ndtr
        var = float(ndtr(eta) * (1.0 - ndtr(eta)))
    elif name == "poisson_log":
        mu = math.exp
        var = math.exp(eta)
    elif name == "gamma_inverse":
        mu = lambda t: 1.0 / t
        var = mu(eta) ** 2  # gamma variance with unit dispersion
    else:
        mu = lambda t: t
        var = 1.0
    dmu = (mu(eta + h) - mu(eta - h)) / (2.0 * h)
    return var ** -1.0 * dmu ** 2


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_intensity_matches_first_principles(name):
    fam = FAMILIES[name]
    spec = g.ModelSpec(fam, g.single_factor_intercept(), (0.0, 1.0))
    xs = [0.25, 0.5, 1.0, 2.0] if name == "gamma_inverse" else [-2.0, -0.5, 0.0, 0.7, 2.5]
    for x in xs:
        eta = x  # beta = (0, 1)
        got = g.intensity(spec, [x])
        want = _numeric_intensity(name, eta)
        np.testing.assert_allclose(got, want, rtol=5e-8)


def test_pinned_intensity_values():
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    assert g.intensity(spec, [0.0]) == 0.25

    spec = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (0.0, -3.0, -3.0))
    np.testing.assert_allclose(g.intensity(spec, [1.0, 1.0]), math.exp(-6.0), rtol=1e-15)

    spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), (1.0, 2.0))
    np.testing.assert_allclose(g.intensity(spec, [0.0, 1.0]), 0.25, rtol=1e-15)


# the largest |eta| (to 3 decimals) at which the probit intensity is representable
PROBIT_LIMIT = 27.263


def test_probit_survives_extreme_tails():
    spec = g.ModelSpec(g.probit, g.single_factor_intercept(), (0.0, 1.0))
    for x in (-PROBIT_LIMIT, -26.0, -20.0, 20.0, 26.0, PROBIT_LIMIT):
        u = g.intensity(spec, [x])
        assert math.isfinite(u) and u > 0.0
    # the squared normal density underflows to zero just past |eta| = 27.263;
    # past that the intensity is not representable and the model layer
    # refuses rather than silently returning zero
    for x in (-40.0, -27.264, 27.264):
        with pytest.raises(DomainError):
            g.intensity(spec, [x])


def test_probit_upper_tail_pinned():
    # 1 - Phi(8.5) cancels to zero in double precision; the intensity must
    # still match its lower-tail mirror and the exact value
    spec = g.ModelSpec(g.probit, g.single_factor_intercept(), (0.0, 1.0))
    np.testing.assert_allclose(g.intensity(spec, [8.5]), 7.034881525594659e-16, rtol=1e-13)
    np.testing.assert_allclose(g.intensity(spec, [-8.5]), 7.034881525594659e-16, rtol=1e-13)


@given(eta=st.floats(-PROBIT_LIMIT, PROBIT_LIMIT))
@settings(max_examples=200, deadline=None)
def test_probit_intensity_is_even(eta):
    spec = g.ModelSpec(g.probit, g.single_factor_intercept(), (0.0, 1.0))
    np.testing.assert_allclose(
        g.intensity(spec, [eta]), g.intensity(spec, [-eta]), rtol=1e-12
    )


def test_regression_vectors():
    spec = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(g.regression_vector(spec, [1.0, 0.0]), [1.0, 1.0, 0.0])

    spec = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(3), (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(g.regression_vector(spec, [0.0, 1.0, 0.0]), [0.0, 1.0, 0.0])

    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    np.testing.assert_array_equal(g.regression_vector(spec, [0.5]), [1.0, 0.5])


def _spread(rng, shape):
    """Entries of both signs with magnitudes spread over 10^-8 to 10^8."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


@pytest.mark.parametrize("n", [1, 4, 8192, 8193])
@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_batch_rows_and_predictors_match_matmul(nu, n):
    # the batch forms give the bits of hstack and of @, contiguous or not
    rng = np.random.default_rng(100 * nu + n)
    beta = _spread(rng, nu + 1)
    with_b0 = g.ModelSpec(g.logistic, g.first_order_intercept(nu), tuple(beta))
    no_b0 = g.ModelSpec(g.logistic, g.first_order_no_intercept(nu), tuple(beta[1:]))
    pts = _spread(rng, (n, nu))
    for X in (pts, np.asfortranarray(pts), np.repeat(pts, 2, axis=0)[::2]):
        assert _eta_many(with_b0, X).tobytes() == (beta[0] + X @ beta[1:]).tobytes()
        assert _eta_many(no_b0, X).tobytes() == (X @ beta[1:]).tobytes()
        rows = g.regression_matrix(with_b0, X)
        assert rows.tobytes() == np.hstack([np.ones((n, 1)), X]).tobytes()


def test_regression_vector_dimension_mismatch():
    spec = g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        g.regression_vector(spec, [1.0, 0.0, 0.0])


def test_beta_length_must_match_kind():
    with pytest.raises(ValueError):
        g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.0, 1.0))


def test_gamma_domain_violations():
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_intercept(2), (1.0, -2.0, 0.5))
    with pytest.raises(DomainError):
        g.intensity(spec, [1.0, 0.0])  # eta = -1
    # gamma without intercept requires strictly positive beta
    with pytest.raises(DomainError):
        g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), (1.0, -2.0))


@pytest.mark.filterwarnings("error")
def test_poisson_overflow_fails_typed_naming_the_point():
    # exp(800) overflows; the caller gets the DomainError, not a RuntimeWarning
    spec = g.ModelSpec(g.poisson_log, g.single_factor_intercept(), (0.0, 800.0))
    with pytest.raises(DomainError, match=r"at point \(1\.0,\)$"):
        g.intensity_many(spec, [[0.0], [1.0]])
    with pytest.raises(DomainError, match=r"at point \(1\.0,\)$"):
        g.verify_design(
            g.Design(((0.0,), (1.0,)), (0.5, 0.5)), spec, 0.0, g.FiniteSet(((0.0,), (1.0,)))
        )


@pytest.mark.filterwarnings("error")
def test_gamma_tiny_predictor_fails_typed_naming_the_point():
    # eta = 1e-170 is in the domain, but eta**-2 overflows; the caller gets
    # the DomainError, not a RuntimeWarning
    spec = g.ModelSpec(g.gamma_inverse, g.single_factor_intercept(), (0.0, -1.0))
    region = g.FiniteSet(((-1.0,), (-1e-170,)))
    design = g.Design(((-2.0,), (-1.0,)), (0.5, 0.5))
    with pytest.raises(DomainError, match=r"at point \(-1e-170,\)$"):
        g.verify_design(design, spec, 0.0, region)


BAD_INTENSITIES = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0.0, "negative": -1.0
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("first, second", list(itertools.product(BAD_INTENSITIES, repeat=2)))
def test_intensity_range_error_names_the_first_bad_point(first, second):
    # eta = x, intensity 1 except at x = 2 and x = 3
    values = {2.0: BAD_INTENSITIES[first], 3.0: BAD_INTENSITIES[second]}
    spiky = g.custom_family("spiky", lambda eta: values.get(eta, 1.0))
    spec = g.ModelSpec(spiky, g.single_factor_intercept(), (0.0, 1.0))
    with pytest.raises(DomainError) as info:
        g.intensity_many(spec, [[0.0], [1.0], [2.0], [3.0], [4.0]])
    assert str(info.value) == (
        "intensity of family 'spiky' is not finite and positive at point (2.0,)"
    )


HALFLINE = g.custom_family("halfline", lambda eta: 1.0 / eta, domain=lambda eta: eta > 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", [*FAMILIES.values(), HALFLINE], ids=lambda f: f.name)
def test_intensity_of_no_points_is_empty(family):
    spec = g.ModelSpec(family, g.first_order_intercept(2), (1.0, 0.5, 0.5))
    u = g.intensity_many(spec, np.empty((0, 2)))
    assert u.shape == (0,) and u.dtype == np.float64


def test_unit_information_pinned():
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    u = math.exp(1.0) / (1.0 + math.exp(1.0)) ** 2
    np.testing.assert_allclose(
        g.unit_information(spec, [1.0]), u * np.ones((2, 2)), rtol=1e-14
    )

    spec = g.ModelSpec(g.linear_identity, g.first_order_intercept(2), (0.0, 0.0, 0.0))
    M = g.unit_information(spec, [0.0, 0.0])
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    np.testing.assert_array_equal(M, want)

    spec = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(2), (0.0, 0.0))
    np.testing.assert_array_equal(
        g.unit_information(spec, [1.0, 0.0]), [[1.0, 0.0], [0.0, 0.0]]
    )


@given(
    beta=st.tuples(
        st.floats(-2.0, 2.0, allow_nan=False),
        st.floats(-2.0, 2.0, allow_nan=False),
        st.floats(-2.0, 2.0, allow_nan=False),
    ),
    x=st.tuples(st.floats(-3.0, 3.0, allow_nan=False), st.floats(-3.0, 3.0, allow_nan=False)),
    name=st.sampled_from(["logistic", "probit", "poisson_log", "linear_identity"]),
)
@settings(max_examples=80, deadline=None)
def test_unit_information_is_scaled_outer_product(beta, x, name):
    spec = g.ModelSpec(FAMILIES[name], g.first_order_intercept(2), beta)
    f = g.regression_vector(spec, x)
    u = g.intensity(spec, x)
    assert u > 0.0 and math.isfinite(u)
    M = g.unit_information(spec, x)
    np.testing.assert_array_equal(M, u * np.outer(f, f))
    lam = np.linalg.eigvalsh(M)
    assert lam[-1] > 0.0
    assert lam[:-1].max() <= 1e-12 * lam[-1]  # rank one


def test_custom_family_matches_builtin():
    made = g.custom_family("poisson_again", lambda eta: math.exp(eta))
    spec = g.ModelSpec(made, g.single_factor_intercept(), (0.3, -0.7))
    ref = g.ModelSpec(g.poisson_log, g.single_factor_intercept(), (0.3, -0.7))
    xs = np.linspace(-2.0, 2.0, 9)[:, None]
    np.testing.assert_allclose(
        g.intensity_many(spec, xs), g.intensity_many(ref, xs), rtol=1e-12
    )


def test_custom_family_domain_predicate():
    made = g.custom_family("halfline", lambda eta: 1.0 / eta, domain=lambda eta: eta > 0.0)
    spec = g.ModelSpec(made, g.single_factor_intercept(), (0.0, 1.0))
    assert g.intensity(spec, [2.0]) == 0.5
    with pytest.raises(DomainError):
        g.intensity(spec, [-1.0])


def test_link_family_carries_only_its_intensity_rule():
    names = [f.name for f in dataclasses.fields(g.LinkFamily)]
    assert names == ["name", "intensity_of_eta", "eta_in_domain"]
    with pytest.raises(TypeError):
        g.LinkFamily("logistic", np.exp, None, lambda eta: eta)
    for family in FAMILIES.values():
        assert not hasattr(family, "d2_inverse_intensity")


# each site that takes an integer count: its least admitted value and message
INTEGER_SITES = {
    "BinaryHypercube.nu": (lambda v: g.BinaryHypercube(v), 1, "positive integer dimension"),
    "GridBox.resolution": (
        lambda v: g.GridBox((0.0,), (1.0,), (v,)), 2, "integer resolution >= 2 per axis"
    ),
    "RegressionKind.nu": (
        lambda v: g.RegressionKind("first_order_intercept", v), 1, "must be a positive integer"
    ),
    "hypercube_linear_design": (
        lambda v: g.hypercube_linear_design(v, "D"), 2, "needs an integer nu >= 2"
    ),
    "brute_force_weights": (
        lambda v: g.brute_force_weights(
            g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0)),
            [(0.0,), (1.0,)],
            0.0,
            v,
        ),
        10,
        "grid_resolution must be an integer >= 10",
    ),
    "OptimizerOptions.max_iterations": (
        lambda v: g.OptimizerOptions(max_iterations=v), 1, "max_iterations must be a positive"
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "fraction", "below"])
def test_integer_arguments_reject_fractional_non_finite_and_small_values(site, bad):
    build, least, message = INTEGER_SITES[site]
    value = least + 0.5 if bad == "fraction" else least - 1 if bad == "below" else float(bad)
    with pytest.raises(ValueError, match=message):
        build(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_arguments_accept_whole_floats(site):
    build, least, _ = INTEGER_SITES[site]
    build(float(least))


def test_whole_float_iteration_cap_is_stored_as_int():
    opts = g.OptimizerOptions(max_iterations=5.0)
    assert type(opts.max_iterations) is int and opts.max_iterations == 5
    spec = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 1.0))
    grid = g.GridBox((-1.0,), (1.0,), (5,))
    g.optimize_weights(spec, [(-1.0,), (1.0,)], 0.0, opts)
    g.optimize_design(spec, grid, 0.0, opts)
