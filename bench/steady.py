"""Steadiness check: run every workload in two sets of ten runs and report,
per metric and workload, whether the sets agree within BENCHMARK.json's
bounds.

    python3 bench/steady.py

Run from the root of a checkout.  Each run gets its own seed: 1-10 in the
first set, 11-20 in the second.  For each set and end-to-end metric it
prints the median, the quartiles and the spread (interquartile distance over
the median, from statistics.quantiles with n=4), the figure each bound was
set from.  Two sets agree when every spread, setup_s included, stays within
its bound, the two medians of every metric differ by at most the bound (as
a share of the first), and the share of failed operations is the same.  Raw
results go to bench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETS = 2
RUNS = 10


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    results = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                runs.append(one_run(spec, workload, seed))
                print(f"{workload} set {s + 1} run {i + 1}/{RUNS} (seed {seed}) done",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        results[workload] = sets
        print(f"\n{workload}")
        print(f"  {'metric':22s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        for m in metrics:
            stats = [summarize([r["metrics"][m["name"]]["value"] for r in runs]) for runs in sets]
            for s, st in enumerate(stats):
                verdict = []
                if st["spread"] > m["bound"]:
                    verdict.append("spread over bound")
                if s == 1:
                    a, b = stats[0]["median"], st["median"]
                    if abs(b - a) / a > m["bound"]:
                        verdict.append(f"medians differ by {abs(b - a) / a:.3f}")
                steady &= not verdict
                if st["spread"] > m["bound"] / 3:
                    verdict.append("(spread over a third of the bound)")
                print(f"  {m['name']:22s} {s + 1:3d} {st['median']:12.6g} {st['q1']:12.6g} "
                      f"{st['q3']:12.6g} {st['spread']:7.4f} {m['bound']:6.3f}  "
                      f"{'; '.join(verdict) or 'ok'}")
        correct = all(r["correct"] for runs in sets for r in runs)
        same_share = len(set(shares)) == 1
        steady &= correct and same_share
        print(f"  failed share per set: {shares}  correct in every run: {correct}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
