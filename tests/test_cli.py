"""End-to-end command-line behaviour: exit codes, JSON output, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glmdesign
from glmdesign.cli import (
    EXIT_MODEL,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_VERIFY_FAILED,
    main,
)

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
    assert report["worst_gap"] <= 1e-7 * max(1.0, abs(report["bound"]))


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
