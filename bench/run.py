"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload cli_jobs --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src`` (nothing is installed).  BLAS and OpenMP are pinned to one
thread.  Bytecode goes to ``bench/out/pycache`` and is compiled by one
untimed import before the workload starts, so every measured process loads
bytecode whatever ``__pycache__`` the checkout holds.  The workload runs in
a fresh process group, killed whole if it overruns.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` gives the end-to-end metrics and ``--trace 1``
the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli_jobs", "certify_sweep", "grid_search")

# The whole command must end within 180 s.
DEADLINE_S = 175.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Imports every module a measured process imports, so that their bytecode is
# compiled before any of them is timed.
WARM_UP = ("import sys; sys.path.insert(0, sys.argv[1]); "
           "import glmdesign.cli, cases, checks, reference, tracer")


def _last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("workload printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one glmdesign benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "glmdesign" / "__init__.py").is_file():
        print(f"no glmdesign sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(BENCH / "out" / "pycache")
    warm = subprocess.run([sys.executable, "-c", WARM_UP, str(BENCH)], env=env, cwd=root,
                          capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        print(f"benchmark failed: the package does not import:\n{warm.stderr[-2000:]}",
              file=sys.stderr)
        return 1
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]

    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("benchmark failed: the workload overran", file=sys.stderr)
        return 1
    sys.stderr.write(stderr)
    try:
        if proc.returncode != 0:
            raise ValueError(f"workload exited with code {proc.returncode}")
        result = _last_json(stdout)
    except ValueError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    for name, m in sorted(metrics.items()):
        print(f"{args.workload:14s} {name:45s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
