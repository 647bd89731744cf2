"""End-to-end command-line behaviour: exit codes, JSON output, determinism."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import glmdesign
from glmdesign import designs
from glmdesign.cli import (
    EXIT_MODEL,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_VERIFY_FAILED,
    execute,
    main,
)
from glmdesign.constructors import CONSTRUCTORS

POISSON_3PT = {
    "task": "construct",
    "constructor": "two_factor_design",
    "model": {
        "family": "poisson_log",
        "kind": "first_order_intercept",
        "nu": 2,
        "beta": [0.0, -3.0, -3.0],
    },
    "criterion": {"k": 0},
}


def run_cli(tmp_path, cfg, extra=(), name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--config", str(path), *extra])
    return code, buf.getvalue()


def test_construct_success(tmp_path):
    code, out = run_cli(tmp_path, POISSON_3PT)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"design", "case", "condition_ok", "condition_margin"}
    assert doc["case"] == "D-3pt"
    assert doc["condition_ok"] is True
    np.testing.assert_allclose(doc["design"]["weights"], [1 / 3] * 3, rtol=1e-12)


def test_output_is_byte_identical_across_runs(tmp_path):
    code1, out1 = run_cli(tmp_path, POISSON_3PT)
    code2, out2 = run_cli(tmp_path, POISSON_3PT)
    assert (code1, out1) == (code2, out2)
    opt = {
        "task": "optimize",
        "model": POISSON_3PT["model"],
        "criterion": {"k": 0},
        "region": {"type": "binary_hypercube", "nu": 2},
    }
    code3, out3 = run_cli(tmp_path, opt)
    code4, out4 = run_cli(tmp_path, opt)
    assert code3 == EXIT_OK
    assert (code3, out3) == (code4, out4)


def test_construct_verify_round_trip(tmp_path):
    _, out = run_cli(tmp_path, POISSON_3PT)
    design = json.loads(out)["design"]
    verify = {
        "task": "verify",
        "model": POISSON_3PT["model"],
        "criterion": {"k": 0},
        "region": {"type": "binary_hypercube", "nu": 2},
        "design_in": design,
    }
    code, out2 = run_cli(tmp_path, verify)
    assert code == EXIT_OK
    report = json.loads(out2)
    assert report["pass"] is True
    assert report["worst_gap"] <= 1e-7 * report["bound"]


def test_fourpoint_five_point_construct_verifies(tmp_path):
    # fourpoint_d_weights takes p + 1 = 5 points for a three-factor model
    five = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    model = {"family": "probit", "kind": "first_order_intercept", "nu": 3,
             "beta": [0.1, -0.5, 0.4, 0.3]}
    region = {"type": "finite_set", "points": five}
    construct = {"task": "construct", "constructor": "fourpoint_d_weights",
                 "criterion": {"k": 0}, "model": model, "region": region}
    code, out = run_cli(tmp_path, construct)
    assert code == EXIT_OK
    design = json.loads(out)["design"]
    assert design["points"] == five
    verify = {"task": "verify", "model": model, "criterion": {"k": 0}, "region": region,
              "design_in": design}
    code, out2 = run_cli(tmp_path, verify)
    assert code == EXIT_OK and json.loads(out2)["pass"] is True


def test_verify_failure_emits_report_with_exit_1(tmp_path):
    verify = {
        "task": "verify",
        "model": POISSON_3PT["model"],
        "criterion": {"k": 0},
        "region": {"type": "binary_hypercube", "nu": 2},
        "design_in": {
            "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "weights": [0.5, 0.25, 0.25],
        },
    }
    code, out = run_cli(tmp_path, verify)
    assert code == EXIT_VERIFY_FAILED
    report = json.loads(out)
    assert report["pass"] is False
    assert report["worst_gap"] > 1e-3


def test_optimize_task(tmp_path):
    cfg = {
        "task": "optimize",
        "model": {
            "family": "poisson_log",
            "kind": "single_factor_intercept",
            "beta": [0.0, 1.0],
        },
        "criterion": {"k": 0},
        "region": {"type": "finite_set", "points": [[0.0], [1.0]]},
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"design", "report", "converged", "iterations"}
    assert doc["converged"] is True
    assert doc["report"]["pass"] is True
    np.testing.assert_allclose(doc["design"]["weights"], [0.5, 0.5], atol=1e-9)


def test_scan_writes_csv(tmp_path):
    cfg = {
        "task": "scan",
        "model": {
            "family": "logistic",
            "kind": "single_factor_intercept",
            "beta": [0.0, 0.0],
        },
        "criterion": {"k": 0},
        "region": {"type": "grid_box", "lower": [0.0], "upper": [1.0], "resolution": [5]},
        "design_in": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
    }
    out_path = tmp_path / "scan.csv"
    code, out = run_cli(tmp_path, cfg, extra=["--out", str(out_path)])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rows"] == 5
    assert doc["bound"] == 2.0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "x1,sensitivity,bound"
    assert len(lines) == 6


def test_failing_scan_leaves_out_untouched(tmp_path):
    # eta = 2 - x <= 0 for x >= 2: the gamma intensity is undefined there
    cfg = {
        "task": "scan",
        "model": {"family": "gamma_inverse", "kind": "single_factor_intercept", "beta": [2.0, -1.0]},
        "criterion": {"k": 1},
        "region": {"type": "grid_box", "lower": [0.0], "upper": [3.0], "resolution": [7]},
        "design_in": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
    }
    out_path = tmp_path / "scan.csv"
    out_path.write_bytes(b"x1,sensitivity,bound\nearlier table\n")
    inode = os.stat(out_path).st_ino
    code, out = run_cli(tmp_path, cfg, extra=["--out", str(out_path)])
    assert code == EXIT_MODEL
    assert json.loads(out)["error"] == "model"
    assert out_path.read_bytes() == b"x1,sensitivity,bound\nearlier table\n"
    assert os.stat(out_path).st_ino == inode


GOLDEN_DIR = Path(__file__).parent / "golden"


def test_scan_memory_stays_within_row_blocks(tmp_path):
    # a 317 x 317 scan is 100 489 rows; holding them all as tuples took
    # about 22 MB, streaming them in row blocks takes under 9 MB
    cfg = json.loads((GOLDEN_DIR / "scan_two_factor_design_a.json").read_text())
    cfg["region"]["resolution"] = [317, 317]
    out_path = tmp_path / "scan.csv"
    execute(cfg, str(out_path))  # first call: imports and one-time caches
    tracemalloc.start()
    try:
        code, _ = execute(cfg, str(out_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 12e6, peak


def test_scan_streamed_in_small_blocks_matches_golden(tmp_path, monkeypatch):
    # 121 rows in 18 blocks of at most 7; each column memo is emptied on the way
    monkeypatch.setattr(designs, "ROW_BLOCK", 7)
    cfg = json.loads((GOLDEN_DIR / "scan_two_factor_design_a.json").read_text())
    out_path = tmp_path / "scan.csv"
    code, _ = execute(cfg, str(out_path))
    assert code == EXIT_OK
    assert out_path.read_bytes() == (GOLDEN_DIR / "scan_two_factor_design_a.csv").read_bytes()


REGION_MODEL_MISMATCH = {
    "model": {"family": "logistic", "kind": "first_order_intercept", "nu": 2, "beta": [0.0, 1.0, 1.0]},
    "criterion": {"k": 0},
    "design_in": {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "weights": [0.3, 0.3, 0.4]},
}


@pytest.mark.parametrize("task", ["optimize", "verify", "scan"])
@pytest.mark.parametrize("nu, shown", [(3, "3"), (1e300, str(int(1e300)))], ids=["3", "1e300"])
def test_region_of_another_dimension_is_schema_error(tmp_path, monkeypatch, task, nu, shown):
    def never(self):
        raise AssertionError("candidates built for a region of the wrong dimension")

    monkeypatch.setattr(designs.BinaryHypercube, "candidate_points", never)
    monkeypatch.setattr(designs.BinaryHypercube, "candidate_blocks", never)
    cfg = dict(REGION_MODEL_MISMATCH, task=task, region={"type": "binary_hypercube", "nu": nu})
    code, out = run_cli(tmp_path, cfg, extra=["--out", str(tmp_path / "scan.csv")])
    assert code == EXIT_SCHEMA
    doc = json.loads(out)
    assert doc["error"] == "schema"
    assert f"dimension {shown} " in doc["message"] and "nu = 2" in doc["message"]
    assert not (tmp_path / "scan.csv").exists()


def test_scan_without_out_is_schema_error(tmp_path):
    cfg = {
        "task": "scan",
        "model": {"family": "logistic", "kind": "single_factor_intercept", "beta": [0.0, 0.0]},
        "criterion": {"k": 0},
        "region": {"type": "grid_box", "lower": [0.0], "upper": [1.0], "resolution": [5]},
        "design_in": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == EXIT_SCHEMA
    doc = json.loads(out)
    assert doc["error"] == "schema"
    assert "\n" not in out.strip()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.pop("task"),
        lambda c: c.update(task="explore"),
        lambda c: c.update(criterion={"order": 0}),
        lambda c: c.update(criterion={"k": -1}),
        lambda c: c.update(constructor="missing_constructor"),
        lambda c: c.update(extra_field=1),
        lambda c: c["model"].update(family="cauchy"),
        lambda c: c["model"].update(beta=["x", 1, 2]),
        lambda c: c.update(tolerance=-1.0),
        lambda c: c.update(seed=0),  # removed field: searches are deterministic
        lambda c: c.update(tolerance=float("inf")),
        lambda c: c["model"].update(beta=[0, 10**400, 0]),  # no double holds it
        lambda c: c.update(a=["x"]),  # checked on every construct job
        lambda c: c.update(INTERVAL, grid=[1]),  # removed field: the convexity grid is fixed
        lambda c: c.update(INTERVAL, grid=[-5]),
        lambda c: c.update(region={"type": "binary_hypercube", "nu": 1e999}),  # parses as inf
    ],
)
def test_schema_errors_exit_2(tmp_path, mutate):
    cfg = json.loads(json.dumps(POISSON_3PT))
    mutate(cfg)
    code, out = run_cli(tmp_path, cfg)
    assert code == EXIT_SCHEMA
    doc = json.loads(out)
    assert doc["error"] == "schema"
    assert isinstance(doc["message"], str) and doc["message"]


FINITE_2 = {"type": "finite_set", "points": [[0.0], [1.0]]}


@pytest.mark.parametrize(
    "job, message",
    [
        ({"constructor": "missing_constructor"}, "unknown constructor 'missing_constructor'"),
        (
            {"constructor": "two_factor_design", "criterion": {"k": 2}},
            "constructor 'two_factor_design' supports k=0 (D) or k=1 (A) only, got k=2.0",
        ),
        (
            {"constructor": "binary_two_point_design", "criterion": {"k": 0.5}, "region": FINITE_2,
             "model": {"family": "logistic", "kind": "single_factor_intercept", "beta": [0, 1]}},
            "constructor 'binary_two_point_design' supports k=0 (D) or k=1 (A) only, got k=0.5",
        ),
        (
            {"constructor": "fourpoint_d_weights", "criterion": {"k": 1}},
            "fourpoint_d_weights is a D construction; set criterion.k = 0",
        ),
        (
            {"constructor": "saturated_weights", "region": {"type": "binary_hypercube", "nu": 2}},
            "constructor 'saturated_weights' takes its support from a finite_set region",
        ),
        (
            {"constructor": "fourpoint_d_weights"},
            "constructor 'fourpoint_d_weights' takes its support from a finite_set region",
        ),
        (
            {"constructor": "saturated_weights", "region": FINITE_2},
            "constructor 'saturated_weights' needs a finite_set of exactly 3 points",
        ),
        (
            {"constructor": "binary_two_point_design", "region": FINITE_2 | {"points": [[0.0]]},
             "model": {"family": "logistic", "kind": "single_factor_intercept", "beta": [0, 1]}},
            "constructor 'binary_two_point_design' needs a finite_set of exactly 2 points",
        ),
        (
            {"constructor": "binary_two_point_design",
             "region": {"type": "finite_set", "points": [[0.0, 1.0], [1.0, 0.0]]},
             "model": {"family": "logistic", "kind": "single_factor_intercept", "beta": [0, 1]}},
            "constructor 'binary_two_point_design' needs 1-dimensional finite_set points",
        ),
        (
            {"constructor": "saturated_weights",
             "region": {"type": "finite_set", "points": [[0.0], [1.0], [2.0]]}},
            "constructor 'saturated_weights' needs 2-dimensional finite_set points",
        ),
        (
            {"constructor": "fourpoint_d_weights",
             "region": {"type": "finite_set", "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}},
            "constructor 'fourpoint_d_weights' needs a finite_set of exactly 4 points",
        ),
    ],
)
def test_construct_schema_errors(tmp_path, job, message):
    cfg = json.loads(json.dumps(POISSON_3PT)) | job
    code, out = run_cli(tmp_path, cfg)
    assert code == EXIT_SCHEMA
    assert json.loads(out) == {"error": "schema", "message": message}


INTERVAL = {
    "task": "construct",
    "constructor": "interval_boundary_design",
    "model": {"family": "logistic", "kind": "single_factor_intercept", "beta": [0.0, 1.0]},
    "criterion": {"k": 0},
}


def test_grid_field_is_rejected(tmp_path):
    # the interval constructor checks its condition on a fixed grid; a job
    # that still sets one is refused, as one that sets the removed seed is
    code, out = run_cli(tmp_path, INTERVAL | {"grid": [999]})
    assert code == EXIT_SCHEMA
    assert json.loads(out) == {"error": "schema", "message": "unexpected configuration fields ['grid']"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_result_is_model_error(tmp_path):
    # q = 1/u overflows along the interval, so its condition margin would be
    # -inf: the constructor raises a DomainError naming beta instead
    job = json.loads(json.dumps(INTERVAL))
    job["model"]["beta"] = [0.0, 705.0]
    code, out = run_cli(tmp_path, job)
    assert code == EXIT_MODEL
    doc = json.loads(out)
    assert doc["error"] == "model"
    assert "beta=(0.0, 705.0)" in doc["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_saturated_a_construct_at_subnormal_intensity(tmp_path):
    # u = e^-710 at (1, 0) and (0, 1) is a subnormal double; the A weights
    # must still be finite, and those of the intercept 0
    points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    model = {"family": "poisson_log", "kind": "first_order_intercept", "nu": 2}
    job = {
        "task": "construct",
        "constructor": "saturated_weights",
        "model": model | {"beta": [-700.0, -10.0, -10.0]},
        "criterion": {"k": 1},
        "region": {"type": "finite_set", "points": points},
    }
    code, out = run_cli(tmp_path, job)
    assert code == EXIT_OK, out
    spec = glmdesign.ModelSpec(
        glmdesign.poisson_log, glmdesign.first_order_intercept(2), (0.0, -10.0, -10.0)
    )
    ref = glmdesign.saturated_weights(spec, points, "A")
    np.testing.assert_allclose(json.loads(out)["design"]["weights"], ref, rtol=1e-15)


def test_non_finite_number_in_output_is_model_error(tmp_path, monkeypatch):
    # a non-finite number that reaches the output is refused, because strict
    # JSON cannot carry it
    def infinite_margin(spec, crit):
        design = glmdesign.Design.from_arrays([(0.0,), (1.0,)], [0.5, 0.5])
        return glmdesign.ConstructResult(design, "D-boundary", False, -np.inf)

    monkeypatch.setattr("glmdesign.constructors.interval_boundary_design", infinite_margin)
    code, out = run_cli(tmp_path, INTERVAL)
    assert code == EXIT_MODEL
    doc = json.loads(out)
    assert doc["error"] == "model"
    assert "JSON" in doc["message"]


def test_config_file_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--config", str(path)])
    assert code == EXIT_SCHEMA
    assert json.loads(buf.getvalue())["error"] == "schema"


def test_config_file_missing(tmp_path):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--config", str(tmp_path / "nope.json")])
    assert code == EXIT_SCHEMA


def test_domain_error_exits_3(tmp_path):
    cfg = {
        "task": "construct",
        "constructor": "axis_design",
        "model": {
            "family": "gamma_inverse",
            "kind": "first_order_no_intercept",
            "nu": 2,
            "beta": [1.0, -2.0],
        },
        "criterion": {"k": 1},
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == EXIT_MODEL
    doc = json.loads(out)
    assert doc["error"] == "model"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_order_exits_3(tmp_path):
    # trace M^-200 of this axis design exceeds the double range
    cfg = {
        "task": "verify",
        "model": {
            "family": "poisson_log",
            "kind": "first_order_no_intercept",
            "nu": 2,
            "beta": [-3.0, -3.0],
        },
        "criterion": {"k": 200},
        "region": {"type": "binary_hypercube", "nu": 2},
        "design_in": {"points": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]},
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == EXIT_MODEL
    doc = json.loads(out)
    assert doc["error"] == "model"
    assert "overflow" in doc["message"]


def test_infinite_k_verify_is_schema_error(tmp_path):
    cfg = {
        "task": "verify",
        "model": {"family": "logistic", "kind": "single_factor_intercept", "beta": [0.0, 0.0]},
        "criterion": {"k": "inf"},
        "region": {"type": "finite_set", "points": [[0.0], [1.0]]},
        "design_in": {"points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == EXIT_SCHEMA


def test_set_overrides(tmp_path):
    # flip the same base job to a hotter parameter point via --set; the
    # construction switches branches (four-point regime at beta = 0)
    code, out = run_cli(
        tmp_path,
        POISSON_3PT,
        extra=["--set", "model.beta=[0, 0, 0]"],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["case"] == "D-4pt"
    assert doc["condition_ok"] is True
    np.testing.assert_allclose(doc["design"]["weights"], [0.25] * 4, rtol=1e-10)
    # dotted paths may create intermediate objects; string values need no quotes
    code2, out2 = run_cli(
        tmp_path,
        POISSON_3PT,
        extra=["--set", "constructor=corner_design_multifactor"],
    )
    assert code2 == EXIT_OK
    assert json.loads(out2)["case"] == "D-corner"


def test_bad_set_assignment_is_schema_error(tmp_path):
    code, out = run_cli(tmp_path, POISSON_3PT, extra=["--set", "no-equals-sign"])
    assert code == EXIT_SCHEMA


def test_axis_constructor_defaults_unit_a(tmp_path):
    cfg = {
        "task": "construct",
        "constructor": "axis_design",
        "model": {
            "family": "gamma_inverse",
            "kind": "first_order_no_intercept",
            "nu": 2,
            "beta": [1.0, 2.0],
        },
        "criterion": {"k": 1},
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["case"] == "axis-gamma"
    np.testing.assert_allclose(doc["design"]["weights"], [1 / 3, 2 / 3], rtol=1e-12)
    assert doc["design"]["points"] == [[1.0, 0.0], [0.0, 1.0]]


def test_readme_lists_every_constructor():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| constructor | criterion |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \| ([^|]+?) \|", table, re.MULTILINE)
    listed = {name: (rule, support) for name, rule, support in rows}
    assert listed == {
        name: (rule, "—" if size is None else f"{size} points")
        for name, (rule, size, _) in CONSTRUCTORS.items()
    }


def test_module_entry_point_subprocess(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(POISSON_3PT))
    # the child imports the same package as this process
    entries = [str(Path(glmdesign.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, entries)))
    proc = subprocess.run(
        [sys.executable, "-m", "glmdesign.cli", "--config", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_OK
    _, inproc = run_cli(tmp_path, POISSON_3PT)
    assert proc.stdout == inproc
