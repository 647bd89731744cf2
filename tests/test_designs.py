"""Design container, regions, information matrices, and criterion values."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmdesign as g
from glmdesign import designs
from glmdesign.designs import _canonical_keys, region_label
from glmdesign.errors import SingularMatrixError

LOGISTIC_01 = g.ModelSpec(g.logistic, g.single_factor_intercept(), (0.0, 0.0))
# information matrix of the half/half design on {0, 1} under the model above
M_HALF = np.array([[0.25, 0.125], [0.125, 0.125]])


def half_design():
    return g.Design(((0.0,), (1.0,)), (0.5, 0.5))


# ---------------------------------------------------------------- container


def test_design_rejects_bad_weights():
    with pytest.raises(ValueError):
        g.Design(((0.0,), (1.0,)), (0.5, -0.5))
    with pytest.raises(ValueError):
        g.Design(((0.0,), (1.0,)), (0.5, 0.5001))
    with pytest.raises(ValueError):
        g.Design(((0.0,), (1.0,)), (1.0,))


def test_design_weights_tolerate_tiny_sum_error():
    d = g.Design(((0.0,), (1.0,)), (0.5, 0.5 + 5e-13))
    assert d.size == 2


def test_duplicate_points_detected_after_canonical_rounding():
    # 1.0 and 1.0 + 1e-13 agree in the first 12 significant digits
    with pytest.raises(ValueError):
        g.Design(((1.0,), (1.0 + 1e-13,)), (0.5, 0.5))
    # but a honest 11th-digit difference is a distinct point
    d = g.Design(((1.0,), (1.0 + 1e-10,)), (0.5, 0.5))
    assert d.size == 2


def test_canonical_point_rounds_to_12_significant_digits():
    assert g.canonical_point([0.1234567890123456]) == (0.123456789012,)
    assert g.canonical_point([0.0, -1.0]) == (0.0, -1.0)


def numpy_canonical_point(row):
    """The per-coordinate key canonical_point formed from numpy floats before
    keys were built from one tolist() pass."""
    return tuple(float(f"{c:.12g}") for c in np.atleast_1d(np.asarray(row, dtype=float)))


def test_canonical_keys_match_canonical_point():
    # Design keys its points from one tolist() pass; the keys must equal the
    # numpy per-coordinate ones bit for bit, sign of zero included
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, 1e308, -1e308,
               1.7976931348623157e308, 0.1234567890123456, 1.0 + 1e-13]
    pts = np.concatenate([
        rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-320, 308, size=(200, 3)),
        rng.choice(special, size=(200, 3)),
    ])
    keys = _canonical_keys(pts.tolist())
    for key, row in zip(keys, pts):
        ref = numpy_canonical_point(row)
        for got in (key, g.canonical_point(row)):
            assert got == ref
            assert [math.copysign(1.0, c) for c in got] == [math.copysign(1.0, c) for c in ref]


def test_design_stores_the_same_floats_as_before():
    pts = np.array([[0.1, -0.0], [1e308, 5e-324], [0.3, 1.0 / 3.0]])
    w = np.array([0.2, 0.3, 0.5])
    d = g.Design.from_arrays(pts, w)
    assert d.points == tuple(tuple(float(c) for c in row) for row in pts)
    assert d.weights == tuple(float(x) for x in w)
    assert all(type(c) is float for row in d.points for c in row)
    assert all(type(x) is float for x in d.weights)


def test_from_arrays_promotes_one_dimensional_points():
    d = g.Design.from_arrays(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert d.points == ((0.0,), (1.0,))
    assert d.nu == 1


def test_json_round_trip_is_bit_exact():
    d = g.Design(
        ((0.1234567890123, -1.0), (2.0, 1e-7)),
        (0.3333333333333333, 0.6666666666666667),
    )
    back = g.Design.from_json(d.to_json())
    assert back.points == d.points
    assert back.weights == d.weights
    doc = json.loads(d.to_json())
    assert set(doc) == {"points", "weights"}


# ------------------------------------------------------------------ regions


def test_grid_box_points_and_order():
    pts = g.region_points(g.GridBox((0.0,), (1.0,), (11,)))
    np.testing.assert_allclose(pts.ravel(), np.linspace(0.0, 1.0, 11), atol=1e-15)


def test_grid_box_two_dims_lexicographic():
    pts = g.region_points(g.GridBox((0.0, 0.0), (1.0, 1.0), (2, 3)))
    want = [[0.0, 0.0], [0.0, 0.5], [0.0, 1.0], [1.0, 0.0], [1.0, 0.5], [1.0, 1.0]]
    np.testing.assert_allclose(pts, want, atol=1e-15)


@pytest.mark.parametrize("lower, upper, resolution", [
    ((-1.0,), (2.0,), (7,)),
    ((0.1, -3.0), (2.0, 3.0), (13, 5)),
    ((0.0, 0.0, -1.0), (1.0, 2.0, 1.0), (4, 3, 5)),
])
def test_grid_box_points_match_meshgrid(lower, upper, resolution):
    pts = g.region_points(g.GridBox(lower, upper, resolution))
    axes = [np.linspace(lo, hi, n) for lo, hi, n in zip(lower, upper, resolution)]
    want = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    np.testing.assert_array_equal(pts, want)
    assert pts.flags.c_contiguous


@given(
    resolution=st.lists(st.integers(2, 40), min_size=1, max_size=3).filter(
        lambda r: math.prod(r) <= 4000
    ),
    lower=st.floats(-3.0, 3.0),
    width=st.floats(0.01, 5.0),
    block=st.integers(2, 64),
)
@settings(max_examples=60, deadline=None)
def test_grid_box_blocks_are_slices_of_its_points(resolution, lower, width, block):
    lower = [lower + i for i in range(len(resolution))]
    region = g.GridBox(lower, [lo + width for lo in lower], resolution)
    axes = [np.linspace(lo, lo + width, n) for lo, n in zip(lower, resolution)]
    want = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(designs, "ROW_BLOCK", block)
        pts = region.candidate_points()
        # a block is a buffer the next one may overwrite: compare it at once
        slices = designs._row_blocks(region.size)
        count = 0
        for b, nodes in zip(slices, region.candidate_blocks()):
            assert nodes.shape == (b.stop - b.start, region.nu) and nodes.flags.c_contiguous
            assert nodes.tobytes() == pts[b].tobytes() == want[b].tobytes()
            count += 1
    assert count == len(slices)
    assert pts.tobytes() == want.tobytes()


def test_binary_hypercube_enumeration():
    pts = g.region_points(g.BinaryHypercube(3))
    assert pts.shape == (8, 3)
    # lexicographic: first row all zeros, last all ones
    np.testing.assert_array_equal(pts[0], [0, 0, 0])
    np.testing.assert_array_equal(pts[-1], [1, 1, 1])
    assert len({tuple(r) for r in pts}) == 8


def test_finite_set_and_axis_set():
    pts = g.region_points(g.FiniteSet(((2.0, 0.0), (0.0, 1.0))))
    np.testing.assert_array_equal(pts, [[0.0, 1.0], [2.0, 0.0]])  # sorted
    axis = g.region_points(g.AxisSet((2.0, 3.0)))
    np.testing.assert_array_equal(axis, [[0.0, 3.0], [2.0, 0.0]])


def test_region_dict_round_trip():
    for region, doc, label in (
        (
            g.GridBox((0.0, -1.0), (1.0, 1.0), (5, 7)),
            {"type": "grid_box", "lower": [0.0, -1.0], "upper": [1.0, 1.0], "resolution": [5, 7]},
            "grid_box(lower=[0.0, -1.0], upper=[1.0, 1.0], resolution=[5, 7])",
        ),
        (
            g.FiniteSet(((0.0,), (1.5,))),
            {"type": "finite_set", "points": [[0.0], [1.5]]},
            "finite_set(2 points)",
        ),
        (g.BinaryHypercube(4), {"type": "binary_hypercube", "nu": 4}, "binary_hypercube(nu=4)"),
        (
            g.AxisSet((1.0, 0.5, 2.0)),
            {"type": "axis_set", "a": [1.0, 0.5, 2.0]},
            "axis_set(a=[1.0, 0.5, 2.0])",
        ),
    ):
        assert json.dumps(g.region_to_dict(region)) == json.dumps(doc)
        assert region_label(region) == label
        back = g.region_from_dict(g.region_to_dict(region))
        assert back == region
        np.testing.assert_array_equal(g.region_points(back), g.region_points(region))


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"type": "grid_box", "lower": [0.0], "upper": [1.0]},
         "region 'grid_box' is missing field 'resolution'"),
        ({"type": "finite_set"}, "region 'finite_set' is missing field 'points'"),
        ({"type": "axis_set", "a": [1.0], "b": 2},
         "region 'axis_set' has unexpected fields ['b']"),
        ({"type": "binary_hypercube", "nu": 2, "lower": [0.0], "a": [1.0]},
         "region 'binary_hypercube' has unexpected fields ['a', 'lower']"),
        ({"type": "sphere"}, "unknown region type 'sphere'"),
        ({"type": 3}, "unknown region type 3"),
        ({"type": ["grid_box"]}, "unknown region type ['grid_box']"),
        ({"points": [[0.0]]}, "region descriptor must be an object with a 'type' field"),
        ([], "region descriptor must be an object with a 'type' field"),
    ],
)
def test_region_from_dict_errors(doc, message):
    with pytest.raises(ValueError) as info:
        g.region_from_dict(doc)
    assert str(info.value) == message


# ------------------------------------------------- information matrices


def test_information_matrix_pinned_logistic():
    np.testing.assert_allclose(
        g.information_matrix(half_design(), LOGISTIC_01), M_HALF, rtol=1e-15
    )


def test_information_matrix_pinned_gamma_axes():
    spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), (1.0, 2.0))
    d = g.Design(((1.0, 0.0), (0.0, 1.0)), (1.0 / 3.0, 2.0 / 3.0))
    np.testing.assert_allclose(
        g.information_matrix(d, spec), np.diag([1.0 / 3.0, 1.0 / 6.0]), rtol=1e-14
    )


def test_single_point_design_equals_unit_information():
    spec = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (0.1, -0.4, 0.2))
    d = g.Design(((0.7, 0.3),), (1.0,))
    np.testing.assert_allclose(
        g.information_matrix(d, spec),
        g.unit_information(spec, (0.7, 0.3)),
        rtol=1e-15,
        atol=0.0,
    )


def test_information_matrix_permutation_invariant():
    spec = g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.2, -0.5, 0.9))
    pts = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    w = (0.1, 0.2, 0.3, 0.4)
    M1 = g.information_matrix(g.Design(pts, w), spec)
    order = (2, 0, 3, 1)
    M2 = g.information_matrix(
        g.Design(tuple(pts[i] for i in order), tuple(w[i] for i in order)), spec
    )
    np.testing.assert_allclose(M1, M2, rtol=1e-15)


def test_weighted_information_is_homogeneous():
    # no normalisation happens inside: scaling the weights scales the matrix.
    # A factor of 4 keeps the internal sqrt exact, so equality is bitwise.
    spec = LOGISTIC_01
    pts = np.array([[0.0], [1.0]])
    w = np.array([0.5, 0.5])
    M1 = g.weighted_information(spec, pts, w)
    M2 = g.weighted_information(spec, pts, 4.0 * w)
    np.testing.assert_array_equal(M2, 4.0 * M1)
    M3 = g.weighted_information(spec, pts, 2.0 * w)
    np.testing.assert_allclose(M3, 2.0 * M1, rtol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "weights", [[0.5, -0.5], [0.5, math.inf], [0.5, math.nan], [1.0], [0.5, 0.25, 0.25]]
)
def test_weighted_information_rejects_bad_weights(weights):
    # a NaN matrix or a broadcasting error would otherwise come out
    with pytest.raises(ValueError, match="one per point"):
        g.weighted_information(LOGISTIC_01, [[0.0], [1.0]], weights)
    # zero weights are allowed: the point simply drops out
    np.testing.assert_array_equal(
        g.weighted_information(LOGISTIC_01, [[0.0], [1.0]], [1.0, 0.0]),
        g.weighted_information(LOGISTIC_01, [[0.0]], [1.0]),
    )


# ------------------------------------------------------------- criteria


def test_phi_values_pinned():
    assert g.phi_k_of_matrix(M_HALF, 0.0) == pytest.approx(8.0, rel=1e-12)
    assert g.phi_k_of_matrix(M_HALF, 1.0) == pytest.approx(12.0, rel=1e-12)
    lam_min = (0.375 - math.sqrt(0.078125)) / 2.0
    assert g.phi_k_of_matrix(M_HALF, math.inf) == pytest.approx(1.0 / lam_min, rel=1e-12)
    for k in (0.0, 0.5, 1.0, 2.0, math.inf):
        assert g.phi_k_of_matrix(np.eye(4), k) == pytest.approx(1.0, rel=1e-14)


def test_phi_k_value_and_a_value_of_design():
    d = half_design()
    assert g.phi_k_value(d, LOGISTIC_01, 0.0) == pytest.approx(8.0, rel=1e-12)
    # classical A-value is the raw trace of the inverse, p times the k=1 mean form
    assert g.a_value(d, LOGISTIC_01) == pytest.approx(24.0, rel=1e-12)
    assert g.a_value(d, LOGISTIC_01) == pytest.approx(
        2.0 * g.phi_k_value(d, LOGISTIC_01, 1.0), rel=1e-14
    )


def test_criterion_values_of_near_singular_design_match_mpmath():
    # lam_min / lam_max is about 1.5e-9 here; eigenvalues of the formed M lost
    # cond(M) eps (relative error 1.9e-8 for Phi_0, 5.6e-8 for a_value), those
    # of its square root keep about cond(M)^1/2 eps
    mp = pytest.importorskip("mpmath")
    spec = g.ModelSpec(g.logistic, g.first_order_intercept(2), (0.0, 0.0, 0.0))
    d = g.Design.from_arrays([(0.0, 0.0), (0.0, 1.0), (1e-4, 0.0)], [1 / 3] * 3)
    with mp.workdps(50):
        M = mp.zeros(3, 3)
        for x, w in zip(d.points, d.weights):
            f = [mp.mpf(1), mp.mpf(x[0]), mp.mpf(x[1])]
            eta = sum(mp.mpf(b) * fi for b, fi in zip(spec.beta, f))
            u = mp.exp(eta) / (1 + mp.exp(eta)) ** 2
            M += mp.mpf(w) * u * mp.matrix(f) * mp.matrix(f).T
        lam = sorted(mp.eigsy(M)[0])
        trace_inv = sum(1 / v for v in lam)
        want = {
            0.0: mp.det(M) ** (-mp.mpf(1) / 3),
            1.0: trace_inv / 3,
            2.0: mp.sqrt(sum(v ** -2 for v in lam) / 3),
            "inf": 1 / lam[0],
        }
    for k, value in want.items():
        assert g.phi_k_value(d, spec, k) == pytest.approx(float(value), rel=1e-12)
    assert g.a_value(d, spec) == pytest.approx(float(trace_inv), rel=1e-12)


def test_min_eigenvalue_pinned_and_symmetry_check():
    lam_min = (0.375 - math.sqrt(0.078125)) / 2.0
    assert g.min_eigenvalue(M_HALF) == pytest.approx(lam_min, rel=1e-13)
    with pytest.raises(ValueError):
        g.min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_singular_matrix_detection():
    with pytest.raises(SingularMatrixError):
        g.phi_k_of_matrix(np.diag([1.0, 1e-11]), 0.0)
    # comfortably inside the conditioning gate
    assert math.isfinite(g.phi_k_of_matrix(np.diag([1.0, 1e-9]), 0.0))
    rank_def = np.outer([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(SingularMatrixError):
        g.phi_k_of_matrix(rank_def, 1.0)


def test_parse_criterion_order():
    assert g.parse_criterion_order("inf") == math.inf
    assert g.parse_criterion_order(0) == 0.0
    assert g.parse_criterion_order("2") == 2.0
    for bad in (-1, "nan", "x"):
        with pytest.raises(ValueError):
            g.parse_criterion_order(bad)


def _random_pd(rng, p):
    A = rng.standard_normal((p, p))
    return A @ A.T + 0.1 * np.eye(p)


@given(seed=st.integers(0, 2**31 - 1), p=st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_phi0_matches_eigen_product(seed, p):
    M = _random_pd(np.random.default_rng(seed), p)
    lam = np.linalg.eigvalsh(M)
    want = math.exp(-np.log(lam).sum() / p)
    np.testing.assert_allclose(g.phi_k_of_matrix(M, 0.0), want, rtol=1e-10)


@given(seed=st.integers(0, 2**31 - 1), p=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_phi_k_limits(seed, p):
    M = _random_pd(np.random.default_rng(seed), p)
    near0 = g.phi_k_of_matrix(M, 1e-6)
    np.testing.assert_allclose(near0, g.phi_k_of_matrix(M, 0.0), rtol=1e-4)
    huge = g.phi_k_of_matrix(M, 1e4)
    np.testing.assert_allclose(huge, g.phi_k_of_matrix(M, math.inf), rtol=1e-3)


@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]),
)
@settings(max_examples=60, deadline=None)
def test_phi_k_antitone_on_diagonal_pairs(seed, k):
    # growing a diagonal information matrix can only improve (reduce) the score
    rng = np.random.default_rng(seed)
    small = rng.uniform(0.2, 2.0, size=4)
    big = small + rng.uniform(0.0, 1.0, size=4)
    assert g.phi_k_of_matrix(np.diag(big), k) <= g.phi_k_of_matrix(np.diag(small), k) + 1e-12


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_phi_k_weakly_decreasing_in_matrix_scale(seed):
    M = _random_pd(np.random.default_rng(seed), 3)
    for k in (0.0, 1.0, 2.0, math.inf):
        v1 = g.phi_k_of_matrix(M, k)
        v2 = g.phi_k_of_matrix(2.0 * M, k)
        np.testing.assert_allclose(v2, 0.5 * v1, rtol=1e-11)
