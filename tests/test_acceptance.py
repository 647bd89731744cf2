"""Acceptance battery.

Ten end-to-end checks, one per shipped guarantee. Each prints a single
PASS/FAIL line (visible even under pytest's capture) so a log scan shows the
overall state at a glance. Tolerances are part of the contract and must not
be loosened here.

Criterion 8 includes the two-factor A case, where the optimum is not a
single layer: it mixes the two axis points with the corner (1, 1) and scores
2 + sqrt(3), against 4 for the layer with one 1.
"""

import itertools
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

import glmdesign as g
from glmdesign import cli

TOL = 1e-7

FOURPOINT_W = (
    0.29928478966984245,
    0.27143765392829233,
    0.27143765392829233,
    0.15783990247357288,
)

T_STAR = -math.log(1.0 + math.sqrt(2.0))  # analytic three-/four-point crossover


@contextmanager
def criterion(capsys, num, label):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {label}", flush=True)


def _certified(design, spec, k, region):
    """verify at the contract tolerance and check the support residuals."""
    rep = g.verify_design(design, spec, k, region, tol=TOL)
    return rep.passed and max(rep.support_residuals) <= TOL * rep.bound


# --------------------------------------------------------------------------
# 1. every closed-form constructor, under its stated condition, certifies
# --------------------------------------------------------------------------


def _sample_interval(rng):
    cases = []
    while len(cases) < 24:
        fam = ["logistic", "poisson_log", "gamma_inverse"][len(cases) % 3]
        if fam == "gamma_inverse":
            b0 = rng.uniform(0.5, 2.0)
            b1 = rng.uniform(-0.8 * b0, 1.5)
        else:
            b0, b1 = rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
        spec = g.ModelSpec(getattr(g, fam), g.single_factor_intercept(), (b0, b1))
        crit = "D" if len(cases) % 2 == 0 else "A"
        r = g.interval_boundary_design(spec, crit)
        if r.condition_ok:
            cases.append((r.design, spec, 0.0 if crit == "D" else 1.0,
                          g.GridBox((0.0,), (1.0,), (201,))))
    return cases


def _sample_two_factor(rng):
    cases = []
    while len(cases) < 40:
        fam = "logistic" if len(cases) % 2 == 0 else "poisson_log"
        lim = 1.5 if fam == "logistic" else 1.0
        beta = tuple(rng.uniform(-lim, 0.5, 3))
        spec = g.ModelSpec(getattr(g, fam), g.first_order_intercept(2), beta)
        crit = "D" if len(cases) < 20 else "A"
        r = g.two_factor_design(spec, crit)
        if r.condition_ok:
            cases.append((r.design, spec, 0.0 if crit == "D" else 1.0, g.BinaryHypercube(2)))
    return cases


def _sample_corner(rng):
    cases = []
    while len(cases) < 20:
        nu = 3 if len(cases) % 2 == 0 else 4
        if len(cases) % 4 < 2:
            beta = (rng.uniform(-1.0, 1.0), *rng.uniform(-3.0, -1.5, nu))
            spec = g.ModelSpec(g.poisson_log, g.first_order_intercept(nu), beta)
        else:
            beta = (rng.uniform(0.5, 1.5), *rng.uniform(2.0, 5.0, nu))
            spec = g.ModelSpec(g.gamma_inverse, g.first_order_intercept(nu), beta)
        crit = "D" if len(cases) % 2 == 0 else "A"
        r = g.corner_design_multifactor(spec, crit)
        if r.condition_ok:
            cases.append((r.design, spec, 0.0 if crit == "D" else 1.0, g.BinaryHypercube(nu)))
    return cases


def _sample_axis(rng):
    cases = []
    while len(cases) < 20:
        k = [0.0, 0.5, 1.0, 2.0][len(cases) % 4]
        if len(cases) % 2 == 0:
            beta = tuple(rng.uniform(0.2, 3.0, 2))
            a = tuple(rng.uniform(0.2, 2.0, 2))
            spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), beta)
            region = g.GridBox((0.1, 0.1), (2.0, 2.0), (11, 11))
        else:
            beta = tuple(rng.uniform(-3.0, -0.8, 2))
            a = (1.0, 1.0)
            spec = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(2), beta)
            region = g.BinaryHypercube(2)
        r = g.axis_design(spec, a, k, region=None)
        if r.condition_ok:
            cases.append((r.design, spec, k, region))
    return cases


def _sample_two_point(rng):
    cases = []
    while len(cases) < 20:
        fam = ["logistic", "poisson_log", "probit"][len(cases) % 3]
        lo, hi = sorted(rng.uniform(-2.0, 2.0, 2))
        if hi - lo < 0.2:
            continue
        beta = (rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5))
        spec = g.ModelSpec(getattr(g, fam), g.single_factor_intercept(), beta)
        crit = "D" if len(cases) % 2 == 0 else "A"
        d = g.binary_two_point_design(spec, lo, hi, crit)
        cases.append((d, spec, 0.0 if crit == "D" else 1.0, g.FiniteSet(((lo,), (hi,)))))
    return cases


def _sample_fourpoint(rng):
    cases = []
    while len(cases) < 20:
        fam = "poisson_log" if len(cases) % 2 == 0 else "logistic"
        b0 = rng.uniform(-0.5, 1.0)
        t = rng.uniform(T_STAR, 0.5) if fam == "poisson_log" else rng.uniform(-0.6, 0.6)
        spec = g.ModelSpec(getattr(g, fam), g.first_order_intercept(2), (b0, t, t))
        square = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        try:
            w = g.fourpoint_d_weights(spec, square)
        except ValueError:
            continue
        cases.append((g.Design(square, tuple(w)), spec, 0.0, g.BinaryHypercube(2)))
    return cases


def test_criterion_01_closed_forms_certify(capsys):
    with criterion(capsys, 1, "closed-form constructions certify at tol=1e-7"):
        rng = np.random.default_rng(20260817)
        groups = {
            "interval": _sample_interval(rng),
            "two_factor": _sample_two_factor(rng),
            "corner": _sample_corner(rng),
            "axis": _sample_axis(rng),
            "two_point": _sample_two_point(rng),
            "four_point": _sample_fourpoint(rng),
        }
        for name, cases in groups.items():
            assert len(cases) >= 20, name
            for design, spec, k, region in cases:
                assert _certified(design, spec, k, region), (
                    name, spec.family.name, spec.beta, k)


# --------------------------------------------------------------------------
# 2. closed forms against the iterative oracle
# --------------------------------------------------------------------------


def test_criterion_02_descent_reproduces_closed_forms(capsys):
    with criterion(capsys, 2, "iterative descent matches closed-form weights to 1e-5"):
        opts = g.OptimizerOptions(convergence_tol=1e-8)

        lin = g.ModelSpec(g.linear_identity, g.single_factor_intercept(), (0.0, 0.0))
        pts = [(0.0,), (1.0,)]
        w_closed = g.saturated_weights(lin, pts, "A")
        w_iter = g.optimize_weights(lin, pts, 1.0, opts).weights
        np.testing.assert_allclose(w_iter, w_closed, atol=1e-5)

        poi = g.ModelSpec(g.poisson_log, g.single_factor_intercept(), (0.0, 1.0))
        w_closed = g.binary_two_point_design(poi, 0.0, 1.0, "A").weights
        np.testing.assert_allclose(w_closed[0], 0.6998478812491185, rtol=1e-12)
        w_iter = g.optimize_weights(poi, pts, 1.0, opts).weights
        np.testing.assert_allclose(w_iter, w_closed, atol=1e-5)

        four = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (1.0, -0.5, -0.5))
        square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        w_closed = g.fourpoint_d_weights(four, square)
        np.testing.assert_allclose(w_closed, FOURPOINT_W, rtol=1e-10)
        w_iter = g.optimize_weights(four, square, 0.0, opts).weights
        np.testing.assert_allclose(w_iter, w_closed, atol=1e-5)

        gam = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), (1.0, 2.0))
        axes = [(1.0, 0.0), (0.0, 1.0)]
        for k in (0.0, 0.5, 1.0, 2.0):
            w_closed = g.phik_axis_weights(gam, (1.0, 1.0), k)
            w_iter = g.optimize_weights(gam, axes, k, opts).weights
            np.testing.assert_allclose(w_iter, w_closed, atol=1e-5)


# --------------------------------------------------------------------------
# 3. closed forms against exhaustive weight enumeration
# --------------------------------------------------------------------------


def test_criterion_03_brute_force_agreement(capsys):
    with criterion(capsys, 3, "exhaustive grid search brackets closed forms (2/resolution)"):
        lin = g.ModelSpec(g.linear_identity, g.single_factor_intercept(), (0.0, 0.0))
        pts = [(0.0,), (1.0,)]
        res = 10_000
        bf = g.brute_force_weights(lin, pts, 1.0, res)
        np.testing.assert_allclose(
            bf.weights, g.saturated_weights(lin, pts, "A"), atol=2.0 / res
        )

        poi = g.ModelSpec(g.poisson_log, g.single_factor_intercept(), (0.0, 1.0))
        bf = g.brute_force_weights(poi, pts, 1.0, res)
        np.testing.assert_allclose(
            bf.weights, g.binary_two_point_design(poi, 0.0, 1.0, "A").weights, atol=2.0 / res
        )

        four = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (1.0, -0.5, -0.5))
        square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        bf = g.brute_force_weights(four, square, 0.0, 200)
        np.testing.assert_allclose(bf.weights, g.fourpoint_d_weights(four, square), atol=2.0 / 200)


# --------------------------------------------------------------------------
# 4. the three-/four-point branch boundary sits exactly at the predicted t*
# --------------------------------------------------------------------------


def test_criterion_04_branch_boundary_bisection(capsys):
    with criterion(capsys, 4, "two-factor D branch switch located at t* to 1e-6"):
        def signed_margin(t):
            spec = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (0.0, t, t))
            r = g.two_factor_design(spec, "D")
            return r.condition_margin if r.case_label == "D-3pt" else -r.condition_margin

        lo, hi = -2.0, 0.0
        assert signed_margin(lo) > 0.0 and signed_margin(hi) < 0.0
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if signed_margin(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        t_detected = 0.5 * (lo + hi)
        assert abs(t_detected - T_STAR) <= 1e-6

        # both branches certify on their own side of the boundary
        below = g.ModelSpec(g.poisson_log, g.first_order_intercept(2),
                            (0.0, T_STAR - 2e-6, T_STAR - 2e-6))
        above = g.ModelSpec(g.poisson_log, g.first_order_intercept(2),
                            (0.0, T_STAR + 2e-6, T_STAR + 2e-6))
        rb = g.two_factor_design(below, "D")
        ra = g.two_factor_design(above, "D")
        assert rb.case_label == "D-3pt"
        assert ra.case_label == "D-4pt"
        assert _certified(rb.design, below, 0.0, g.BinaryHypercube(2))
        assert _certified(ra.design, above, 0.0, g.BinaryHypercube(2))


# --------------------------------------------------------------------------
# 5. the Poisson-axis rate condition is exactly the certification boundary
# --------------------------------------------------------------------------


def test_criterion_05_poisson_axis_condition_decides(capsys):
    with criterion(capsys, 5, "Poisson axis rate condition == verifier verdict (50 draws)"):
        rng = np.random.default_rng(5)
        disagreements = []
        for _ in range(50):
            beta = tuple(rng.uniform(-3.0, 0.5, 2))
            spec = g.ModelSpec(g.poisson_log, g.first_order_no_intercept(2), beta)
            condition = math.exp(beta[0]) + math.exp(beta[1]) <= 1.0
            for k in (0.0, 1.0, 2.0):
                r = g.axis_design(spec, (1.0, 1.0), k)
                assert r.condition_ok == condition
                rep = g.verify_design(r.design, spec, k, g.BinaryHypercube(2), tol=TOL)
                if rep.passed != condition:
                    disagreements.append((beta, k))
        assert not disagreements, disagreements


# --------------------------------------------------------------------------
# 6. the gamma axis design certifies for any measurement scale
# --------------------------------------------------------------------------


def test_criterion_06_gamma_axis_universality(capsys):
    with criterion(capsys, 6, "gamma axis design certifies on positive grid, a-free (50 draws)"):
        rng = np.random.default_rng(6)
        grid = g.GridBox((0.1, 0.1), (2.0, 2.0), (21, 21))
        for _ in range(50):
            beta = tuple(rng.uniform(0.0, 3.0, 2) + 1e-9)
            a = tuple(rng.uniform(0.0, 2.0, 2) + 1e-9)
            spec = g.ModelSpec(g.gamma_inverse, g.first_order_no_intercept(2), beta)
            k = float(rng.choice([0.0, 1.0, 2.0]))
            r = g.axis_design(spec, a, k)
            assert r.condition_ok
            assert _certified(r.design, spec, k, grid), (beta, a, k)
            unit = g.axis_design(spec, (1.0, 1.0), k)
            np.testing.assert_allclose(
                r.design.weights, unit.design.weights, atol=1e-12
            )


# --------------------------------------------------------------------------
# 7. criterion values agree with direct linear-algebra routes
# --------------------------------------------------------------------------


def test_criterion_07_phi_cross_checks(capsys):
    with criterion(capsys, 7, "phi_k against det/trace/eigen routes (100 matrices)"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = int(rng.integers(2, 7))
            A = rng.standard_normal((p, p))
            M = A @ A.T + 0.05 * np.eye(p)
            sign, logdet = np.linalg.slogdet(M)
            assert sign > 0
            np.testing.assert_allclose(
                g.phi_k_of_matrix(M, 0.0), math.exp(-logdet / p), rtol=1e-10
            )
            np.testing.assert_allclose(
                p * g.phi_k_of_matrix(M, 1.0), np.trace(np.linalg.inv(M)), rtol=1e-10
            )
            lam = np.linalg.eigvalsh(M)
            np.testing.assert_allclose(
                g.phi_k_of_matrix(M, math.inf), 1.0 / lam[0], rtol=1e-10
            )
            np.testing.assert_allclose(
                g.phi_k_of_matrix(M, 1e-6), g.phi_k_of_matrix(M, 0.0), rtol=1e-4
            )
            np.testing.assert_allclose(
                g.phi_k_of_matrix(M, 1e4), g.phi_k_of_matrix(M, math.inf), rtol=1e-3
            )


# --------------------------------------------------------------------------
# 8. hypercube layer designs for the through-origin linear model
# --------------------------------------------------------------------------


def test_criterion_08_hypercube_layers(capsys):
    with criterion(capsys, 8, "hypercube layer designs certify for nu in 2..5, D and A"):
        failures = []
        for nu in (2, 3, 4, 5):
            spec = g.ModelSpec(g.linear_identity, g.first_order_no_intercept(nu), (0.0,) * nu)
            punctured = g.FiniteSet(
                tuple(
                    tuple(float(c) for c in corner)
                    for corner in itertools.product((0.0, 1.0), repeat=nu)
                    if any(corner)
                )
            )
            for crit, k in (("D", 0.0), ("A", 1.0)):
                d = g.hypercube_linear_design(nu, crit)
                if not _certified(d, spec, k, punctured):
                    failures.append(f"nu={nu} {crit}")
        assert not failures, (
            f"uncertified layer designs: {failures}. For nu=2 A the certified "
            "optimum mixes layers 1 and 2 and scores 2+sqrt(3); the single layer "
            "with one 1 scores 4."
        )


# --------------------------------------------------------------------------
# 9. the support search lands on the closed-form designs (matrix equality)
# --------------------------------------------------------------------------


def _two_factor_betas(rng, family):
    while True:
        if family == "poisson_log":
            yield tuple(rng.uniform(-2.0, 0.5, 3))
        elif family == "logistic":
            yield tuple(rng.uniform(-1.5, 1.5, 3))
        else:  # gamma with intercept: keep every corner inside the domain
            b0 = rng.uniform(0.8, 1.5)
            b1, b2 = rng.uniform(-0.3, 1.5, 2)
            yield (b0, b1, b2)


def test_criterion_09_search_matches_closed_forms(capsys):
    with criterion(capsys, 9, "optimize_design == closed-form design information matrix (1e-5)"):
        rng = np.random.default_rng(9)
        opts = g.OptimizerOptions(convergence_tol=1e-8)
        for family in ("poisson_log", "gamma_inverse", "logistic"):
            betas = _two_factor_betas(rng, family)
            kept = 0
            while kept < 10:
                beta = next(betas)
                spec = g.ModelSpec(getattr(g, family), g.first_order_intercept(2), beta)
                for k, crit in ((0.0, "D"), (1.0, "A")):
                    closed = g.two_factor_design(spec, crit)
                    if not closed.condition_ok:
                        break
                    found = g.optimize_design(spec, g.BinaryHypercube(2), k, opts)
                    M_closed = g.information_matrix(closed.design, spec)
                    M_found = g.information_matrix(found.design, spec)
                    np.testing.assert_allclose(
                        M_found, M_closed, atol=1e-5,
                        err_msg=f"{family} beta={beta} k={k}",
                    )
                else:
                    kept += 1


# --------------------------------------------------------------------------
# 10. the command line is bit-deterministic
# --------------------------------------------------------------------------


def test_criterion_10_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "CLI reruns are byte-identical (JSON and CSV)"):
        jobs = [
            (
                {
                    "task": "construct",
                    "constructor": "two_factor_design",
                    "model": {
                        "family": "poisson_log",
                        "kind": "first_order_intercept",
                        "nu": 2,
                        "beta": [1.0, -0.5, -0.5],
                    },
                    "criterion": {"k": 0},
                },
                [],
            ),
            (
                {
                    "task": "optimize",
                    "model": {
                        "family": "logistic",
                        "kind": "first_order_intercept",
                        "nu": 2,
                        "beta": [0.2, -0.4, 0.7],
                    },
                    "criterion": {"k": 1},
                    "region": {"type": "binary_hypercube", "nu": 2},
                },
                [],
            ),
            (
                {
                    "task": "scan",
                    "model": {
                        "family": "logistic",
                        "kind": "single_factor_intercept",
                        "beta": [0.0, 1.0],
                    },
                    "criterion": {"k": 0},
                    "region": {
                        "type": "grid_box",
                        "lower": [0.0],
                        "upper": [1.0],
                        "resolution": [101],
                    },
                    "design_in": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
                },
                ["--out"],
            ),
        ]
        for idx, (cfg, out_flag) in enumerate(jobs):
            cfg_path = tmp_path / f"job{idx}.json"
            cfg_path.write_text(json.dumps(cfg))
            outputs, csvs = [], []
            csv_path = tmp_path / f"scan{idx}.csv"
            for run in range(2):
                extra = list(out_flag)
                if out_flag:
                    extra.append(str(csv_path))
                import io
                from contextlib import redirect_stdout

                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli.main(["--config", str(cfg_path), *extra])
                assert code == 0
                outputs.append(buf.getvalue())
                if out_flag:
                    csvs.append(csv_path.read_bytes())
            assert outputs[0] == outputs[1]
            if csvs:
                assert csvs[0] == csvs[1]
