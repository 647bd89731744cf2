"""Golden CLI outputs: every job under tests/golden must reproduce its
recorded stdout (and, for scans, its CSV) byte for byte.

Each ``<name>.json`` is a job description; ``<name>.stdout`` is the exact
text the ``design`` command printed for it, and a scan job also has the
``<name>.csv`` table it wrote to ``--out <name>.csv``.  Every job exits 0.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from glmdesign.cli import EXIT_OK, main
from glmdesign.constructors import CONSTRUCTORS

GOLDEN = Path(__file__).parent / "golden"
JOBS = sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_golden_set_is_complete():
    constructs = {json.loads((GOLDEN / f"{n}.json").read_text()).get("constructor") for n in JOBS}
    assert constructs - {None} == set(CONSTRUCTORS)
    tasks = {json.loads((GOLDEN / f"{n}.json").read_text())["task"] for n in JOBS}
    assert tasks == {"construct", "optimize", "verify", "scan"}


def test_verify_job_is_fed_from_its_construct():
    verify = json.loads((GOLDEN / "verify_two_factor_design.json").read_text())
    built = json.loads((GOLDEN / "construct_two_factor_design.stdout").read_text())
    assert verify["design_in"] == built["design"]


@pytest.mark.parametrize("name", JOBS)
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = GOLDEN / f"{name}.json"
    csv = GOLDEN / f"{name}.csv"
    argv = ["--config", str(cfg)]
    if csv.exists():
        argv += ["--out", csv.name]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == EXIT_OK
    assert buf.getvalue().encode("utf-8") == (GOLDEN / f"{name}.stdout").read_bytes()
    if csv.exists():
        assert (tmp_path / csv.name).read_bytes() == csv.read_bytes()
