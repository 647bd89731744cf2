"""One workload in one process: import the package, generate inputs from the
seed, run whole rounds of phases until the run length is spent, check every
output, and print one JSON result as the last line of stdout.

Run by ``bench/run.py``, which pins BLAS to one thread and puts the
checkout's ``src`` first on PYTHONPATH; see bench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time starts before the package import

import argparse
import importlib
import itertools
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SRC = Path.cwd() / "src"

SECONDS_LIMIT = 170.0  # a run must end within 180 s, start-up included


def _import_package():
    g = importlib.import_module("glmdesign")
    if SRC.resolve() not in Path(g.__file__).resolve().parents:
        raise SystemExit(f"glmdesign was imported from {g.__file__}, not from {SRC}")
    return g, importlib.import_module("glmdesign.cli")


g, cli = _import_package()

import numpy as np  # noqa: E402  (already loaded by the package import)

import cases  # noqa: E402
import checks  # noqa: E402
import reference as R  # noqa: E402
from tracer import Tracer  # noqa: E402


class Run:
    """What one process accumulates: failures, metric samples, the tracer."""

    def __init__(self, in_process_cli: bool):
        self.tally = checks.Tally()
        self.samples: dict[str, list[float]] = defaultdict(list)
        # wall times of single calls: metric -> call -> seconds, one per call
        self.call_samples: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.tracer: Tracer | None = None
        self.in_process_cli = in_process_cli
        self.child_peak_kb = 0  # largest peak RSS of a CLI child process
        self.op = 0

    def start_op(self) -> None:
        self.op += 1
        if self.tracer is not None:
            self.tracer.op = self.op

    @contextmanager
    def checking(self):
        """Checks call the package too; keep those calls out of the spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True

    def attempt(self, what: str, fn):
        """Run one operation; (result, seconds), or (None, 0) when it raised."""
        self.start_op()
        t = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # one failed operation must not end the run
            self.tally.record(what, [f"raised {exc!r}"])
            return None, 0.0
        return result, time.perf_counter() - t

    def check(self, what: str, problems_fn) -> bool:
        with self.checking():
            return self.tally.record(what, problems_fn())


def run_child(cmd: list[str], out_path: Path, timeout: float = 60.0):
    """Run a child to completion with its stdout in ``out_path``;
    returns (exit code, output, peak RSS in kB).  ``os.wait4`` gives this
    child's own resource usage, which RUSAGE_CHILDREN would mix with every
    other child's."""
    with open(out_path, "w+", encoding="utf-8") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        fh.seek(0)
        return proc.returncode, fh.read(), usage.ru_maxrss


# ---------------------------------------------------------------------------
# Phases.  prepare(rng) draws a round's inputs, a list of items; execute()
# runs some of them, accumulating time and work, and checks every output.
#
# Every phase runs on every workload, so every metric is measured on each.
# The workload's own phases run at full size on fresh seeded draws each
# round; the others run as probes, small and on inputs drawn once from a
# fixed seed.  The machine's speed switches between two levels about 30%
# apart every second or so, so a sample must span many seconds: a round is
# cut into steps, every phase's steps are spread evenly over the round, and
# each phase pools its work and time over the round into one sample.
# Metrics are medians of these per-round samples, except the wall times of
# single calls (search_s, oracle_s), which are sums of per-call medians.

PROBE_SEED = 0


class Phase:
    metric = ""
    chunk = 1  # items per step of a full phase
    probe_reps = 10  # steps of a probe per round
    # A probe's pass runs between other phases' steps, which leave the
    # caches cold (a child process, a 440 MB enumeration), and a cold pass is
    # slower and far more variable.  So an in-process probe step first runs
    # its pass once untimed.  Probes that start processes turn this off.
    warm_pass = True

    def __init__(self, full: bool):
        self.full = full
        self._fixed = None

    def prepare(self, rng) -> list:
        if self.full:
            return self.draw(rng)
        if self._fixed is None:
            self._fixed = self.draw(np.random.default_rng(PROBE_SEED))
        return self._fixed

    def steps(self, items: list, run) -> list:
        """A probe's steps each run all its items; a full phase's steps are
        slices of ``chunk`` items.  The steps of one round pool their work
        and time into one sample, taken after the last step."""
        if self.full:
            parts = [items[i:i + self.chunk] for i in range(0, len(items), self.chunk)]
        else:
            parts = [items] * self.probe_reps
        acc = self.start()
        return [lambda part=part, last=(n == len(parts) - 1): self.step(part, run, acc, last)
                for n, part in enumerate(parts)]

    def step(self, part, run, acc, last) -> None:
        if self.warm_pass and not self.full:
            self.execute(part, run, self.start())
        self.execute(part, run, acc)
        if last:
            self.record(acc, run)

    def start(self) -> dict:
        return {"spent": 0.0, "work": 0}

    def record(self, acc, run) -> None:
        if acc["spent"] > 0.0:
            run.samples[self.metric].append(acc["work"] / acc["spent"])


def _design_of(built):
    return built.design if hasattr(built, "case_label") else built


def _construct_problems(built):
    if hasattr(built, "condition_ok") and not built.condition_ok:
        return [f"condition does not hold (margin {built.condition_margin!r})"]
    return []


def _certify_problems(case, built, report):
    design = _design_of(built)
    return _construct_problems(built) + checks.certified(
        R.Model.of(case.spec), case.k, design.point_array, design.weight_array,
        case.points(), case.allowed, report)


class CertifyPhase(Phase):
    """Closed forms built and certified on their own regions.

    The numeric two-factor branches (D-4pt, A-4pt-numeric) have a
    heavy-tailed cost: one construction can take 0.1-0.6 s against a 3 ms
    median, so a seeded draw of them would make a round's total depend on
    the seed.  Their draws are therefore one fixed set, repeated in every
    round of every run, so each sample holds the same tail; the other
    families are drawn from the seed each round."""

    metric = "certified_per_s"
    chunk = 23  # 460 draws a round, shuffled: 20 steps of mixed families
    probe_reps = 20  # a probe pass takes only ~20 ms
    FULL = {"interval": 48, "two_factor": 192, "corner": 32, "axis": 36, "two_point": 36,
            "fourpoint": 32, "saturated": 32, "phik_axis": 36, "hypercube": 16}
    PROBE = {"interval": 3, "two_factor": 3, "corner": 2, "axis": 3, "two_point": 3,
             "fourpoint": 1, "saturated": 2, "phik_axis": 3, "hypercube": 4}

    def __init__(self, full: bool):
        super().__init__(full)
        self._two_factor = None

    def draw(self, rng):
        if not self.full:
            items = cases.certify_cases(g, rng, self.PROBE)
        else:
            if self._two_factor is None:
                self._two_factor = cases.certify_cases(
                    g, np.random.default_rng(PROBE_SEED), {"two_factor": self.FULL["two_factor"]})
            counts = {name: n for name, n in self.FULL.items() if name != "two_factor"}
            items = cases.certify_cases(g, rng, counts) + self._two_factor
        return [items[i] for i in rng.permutation(len(items))]

    def execute(self, items, run, acc):
        for case in items:
            def build_and_verify(case=case):
                built = case.build()
                return built, g.verify_design(_design_of(built), case.spec, case.k, case.region)

            out, dt = run.attempt(case.label, build_and_verify)
            if out is not None:
                acc["spent"] += dt
                acc["work"] += run.check(case.label, lambda: _certify_problems(case, *out))


class VerifyPhase(Phase):
    """verify_design on grids of 10^6 points (10^5 for the probe)."""

    metric = "verify_points_per_s"
    chunk = 2  # one gamma axis and one interval design per step
    probe_reps = 20  # a probe pass verifies for only ~20 ms

    def draw(self, rng):
        return cases.verify_cases(g, rng, 3 if self.full else 1, 1000 if self.full else 316)

    def execute(self, items, run, acc):
        for case in items:
            built, _ = run.attempt(case.label + " (build)", case.build)
            if built is None:
                continue
            report, dt = run.attempt(case.label, lambda: g.verify_design(
                _design_of(built), case.spec, case.k, case.region))
            if report is not None:
                acc["spent"] += dt
                acc["work"] += report.candidates
                run.check(case.label, lambda: _certify_problems(case, built, report))


class ScanPhase(Phase):
    """sensitivity_scan plus write_scan_csv on ~10^5 rows (~5 * 10^3 for the
    probe); two designs a round, so a round's sample spans two moments."""

    metric = "scan_rows_per_s"

    def draw(self, rng):
        if self.full:
            return [cases.scan_case(g, rng, 317), cases.scan_case(g, rng, 317)]
        return [cases.scan_case(g, rng, 71)]

    def execute(self, items, run, acc):
        path = OUT / f"scan-{'full' if self.full else 'probe'}.csv"
        for case in items:
            built, _ = run.attempt(case.label + " (build)", case.build)
            if built is None:
                continue
            design = _design_of(built)

            def scan():
                rows = g.sensitivity_scan(design, case.spec, case.k, case.region)
                g.write_scan_csv(rows, str(path))
                return len(rows)

            rows, dt = run.attempt(case.label, scan)
            if rows is not None:
                acc["spent"] += dt
                acc["work"] += rows
                run.check(case.label, lambda: checks.scan_csv(
                    path, R.Model.of(case.spec), case.k, design.point_array,
                    design.weight_array, case.points()))


def _search_problems(result, problem):
    cand = R.grid(*problem.box)
    problems = [] if result.converged else ["search did not converge"]
    return problems + checks.certified(
        R.Model.of(problem.spec), problem.k, result.design.point_array,
        result.design.weight_array, cand, cand, result.report)


class SearchPhase(Phase):
    """optimize_design on GridBox problems with no closed form."""

    metric = "search_s"

    def draw(self, rng):
        return cases.search_problems(g, self.full)

    def execute(self, items, run, acc):
        for problem in items:
            result, dt = run.attempt(problem.label, lambda: g.optimize_design(
                problem.spec, g.GridBox(*problem.box), problem.k))
            if result is not None:
                acc["calls"].append((problem.label, dt))
                run.check(problem.label, lambda: _search_problems(result, problem))

    def start(self):
        return {"calls": []}

    def record(self, acc, run):
        # the metric is a sum of per-call medians over the run
        for call, dt in acc["calls"]:
            run.call_samples[self.metric][call].append(dt)


def _oracle_problems(spec, k, res, found):
    iterative = g.optimize_weights(spec, cases.SQUARE, k)
    problems = checks.on_simplex(found.weight_array) + checks.weights_close(
        found.point_array, found.weight_array, cases.SQUARE, iterative.weight_array, 2.0 / res)
    if k == 0.0:
        problems += checks.weights_close(found.point_array, found.weight_array, cases.SQUARE,
                                         g.fourpoint_d_weights(spec, cases.SQUARE), 2.0 / res)
    return problems


class OraclePhase(Phase):
    """brute_force_weights on the four-point square for D and A."""

    metric = "oracle_s"

    def draw(self, rng):
        spec = cases.oracle_spec(g, rng)
        res = 200 if self.full else 40
        return [(spec, 0.0, res), (spec, 1.0, res)]

    def execute(self, items, run, acc):
        for spec, k, res in items:
            what = f"brute_force_weights k={k:g} at {res}"
            found, dt = run.attempt(what, lambda: g.brute_force_weights(spec, cases.SQUARE, k, res))
            if found is not None:
                acc["calls"].append((what, dt))
                run.check(what, lambda: _oracle_problems(spec, k, res, found))

    start = SearchPhase.start
    record = SearchPhase.record


class CliPhase(Phase):
    """``design`` CLI jobs, each in a fresh process (a closed loop, one client).
    In the traced run the jobs call ``glmdesign.cli.execute`` in-process.
    A round's sample is its mean wall time per job."""

    metric = "cli_job_s"
    probe_reps = 2
    warm_pass = False

    def draw(self, rng):
        return cases.cli_jobs(rng, self.full)

    def start(self):
        return {"spent": 0.0, "work": 0, "outputs": {}}

    def record(self, acc, run):
        if acc["work"]:
            run.samples[self.metric].append(acc["spent"] / acc["work"])

    def _run_job(self, config_path, out_path, run):
        if run.in_process_cli:
            with open(config_path, encoding="utf-8") as fh:
                cfg = json.load(fh)
            return cli.execute(cfg, out_path=None if out_path is None else str(out_path))
        cmd = [sys.executable, "-m", "glmdesign.cli", "--config", str(config_path)]
        if out_path is not None:
            cmd += ["--out", str(out_path)]
        code, stdout, peak_kb = run_child(cmd, config_path.with_suffix(".out"))
        run.child_peak_kb = max(run.child_peak_kb, peak_kb)
        return code, stdout

    def execute(self, items, run, acc):
        folder = OUT / f"cli-{'full' if self.full else 'probe'}"
        folder.mkdir(parents=True, exist_ok=True)
        outputs = acc["outputs"]
        for job in items:
            config = dict(job.config)
            if job.feed is not None:
                if job.feed not in outputs:
                    run.tally.record(job.name, [f"no output from {job.feed}"])
                    continue
                config["design_in"] = json.loads(outputs[job.feed])["design"]
            config_path = folder / f"{job.name.replace(' ', '-')}.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            out_path = folder / "scan.csv" if config["task"] == "scan" else None
            result, dt = run.attempt(job.name, lambda: self._run_job(config_path, out_path, run))
            if result is None:
                continue
            acc["spent"] += dt
            acc["work"] += 1
            code, stdout = result
            if code == 0:
                outputs.setdefault(job.name, stdout)
            run.check(job.name, lambda: _job_problems(job, config, code, stdout, out_path, outputs))


class SetupPhase(Phase):
    """Set-up (package import plus input generation) in a fresh workload
    process, sampled across the run like the probes."""

    metric = "setup_s"
    probe_reps = 2
    warm_pass = False

    def __init__(self, argv: list[str]):
        super().__init__(False)
        self.cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]

    def draw(self, rng):
        return [None]

    def start(self):
        return {}

    def record(self, acc, run):
        pass

    def execute(self, items, run, acc):
        proc, _ = run.attempt("set-up", lambda: subprocess.run(
            self.cmd, capture_output=True, text=True, timeout=60, check=True))
        if proc is not None:
            setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
            run.samples[self.metric].append(setup_s)
            run.check("set-up", lambda: [] if setup_s > 0.0 else ["no set-up time"])


def _job_problems(job, config, code, stdout, out_path, outputs):
    if code != 0:
        return [f"exit code {code}: {stdout.strip()[:200]}"]
    kind, arg = job.check
    if kind == "same":
        return [] if stdout == outputs.get(arg) else [f"rerun output differs from {arg}"]
    doc = json.loads(stdout)
    model = R.Model(config["model"]["family"], config["model"]["kind"] != "first_order_no_intercept",
                    config["model"]["beta"])
    k = float(config["criterion"]["k"])
    if kind == "certify":
        d = doc["design"]
        problems = [] if doc["condition_ok"] else ["condition does not hold"]
        return problems + checks.certified(model, k, d["points"], d["weights"], arg, arg)
    if kind == "report":
        d = config["design_in"]
        return checks.certified(model, k, d["points"], d["weights"], arg, arg, doc)
    if kind == "search":
        d = doc["design"]
        problems = [] if doc["converged"] else ["search did not converge"]
        return problems + checks.certified(model, k, d["points"], d["weights"], arg, arg,
                                           doc["report"])
    d = config["design_in"]  # scan
    problems = [] if doc["rows"] == len(arg) else [f"{doc['rows']} rows, expected {len(arg)}"]
    return problems + checks.scan_csv(out_path, model, k, d["points"], d["weights"], arg)


WORKLOADS = {
    "cli_jobs": {"cli"},
    "certify_sweep": {"certify", "verify", "scan"},
    "grid_search": {"search", "oracle"},
}

PHASES = (("cli", CliPhase), ("certify", CertifyPhase), ("verify", VerifyPhase),
          ("scan", ScanPhase), ("search", SearchPhase), ("oracle", OraclePhase))


def phases_of(workload: str) -> list[Phase]:
    main = WORKLOADS[workload]
    return [cls(name in main) for name, cls in PHASES]


def round_steps(phases, inputs, run) -> list:
    """Every phase's steps, in order within the phase and spread evenly
    over the round: step i of n sits at (i + 1/2) / n."""
    placed = []
    for p, (phase, items) in enumerate(zip(phases, inputs)):
        steps = phase.steps(items, run)
        placed += [((i + 0.5) / len(steps), p, step) for i, step in enumerate(steps)]
    return [step for _, _, step in sorted(placed, key=lambda t: t[:2])]


def run_round(phases, inputs, run) -> None:
    for step in round_steps(phases, inputs, run):
        step()


# ---------------------------------------------------------------------------
# The checks must be able to fail: designs known not to be optimal go through
# the same checks and must be rejected, by the package report and by the
# reference on its own.


def selftest() -> list[str]:
    """Problems with the checks themselves (empty when both bad designs fail)."""
    lin = g.ModelSpec(g.linear_identity, g.first_order_no_intercept(2), (1.0, 1.0))
    layer = g.Design(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5))  # nu=2 A, worst gap 4
    pois = g.ModelSpec(g.poisson_log, g.first_order_intercept(2), (1.0, -0.5, -0.5))
    optimum = g.two_factor_design(pois, "D").design
    skew = optimum.weight_array + 0.02 * np.array([1.0, -1.0, 1.0, -1.0])
    perturbed = g.Design.from_arrays(optimum.point_array, skew / skew.sum())
    found = []
    tally = checks.Tally()
    for what, design, spec, k in (("single layer nu=2 A", layer, lin, 1.0),
                                  ("perturbed two-factor D", perturbed, pois, 0.0)):
        report = g.verify_design(design, spec, k, g.BinaryHypercube(2))
        args = (R.Model.of(spec), k, design.point_array, design.weight_array, R.corners(2), R.corners(2))
        tally.record(what, checks.certified(*args, report))
        if not checks.certified(*args):
            found.append(f"the reference alone accepts the {what} design")
    if tally.failed != 2:
        found.append(f"{tally.failed} of 2 known-bad designs counted as failed")
    return found


# ---------------------------------------------------------------------------


PER_LAYER_TIMES = (
    "cli.execute", "constructors", "optimize.optimize_weights", "optimize.optimize_design",
    "optimize.brute_force_weights", "equivalence.verify_design", "equivalence.sensitivity_scan",
    "equivalence.write_scan_csv", "designs.region_points", "designs.information_matrix",
    "designs.Design.from_arrays", "models.intensity_many", "models.regression_matrix",
)

PER_LAYER_COUNTS = {
    "cli.execute.calls": "count", "cli.stdout_bytes": "bytes",
    "constructors.calls": "count", "constructors.numeric_calls": "count",
    "optimize.optimize_weights.calls": "count", "optimize.optimize_design.calls": "count",
    "optimize.outer_iterations": "count", "optimize.brute_force_weights.weightings": "count",
    "optimize.brute_force_weights.bytes_computed": "bytes",
    "equivalence.verify_design.calls": "count", "equivalence.candidates": "points",
    "equivalence.csv_bytes": "bytes",
    "designs.region_points.calls": "count", "designs.region_points.points": "points",
    "designs.information_matrix.calls": "count", "designs.Design.from_arrays.calls": "count",
    "models.intensity_many.calls": "count", "models.intensity_many.points": "points",
    "models.regression_matrix.calls": "count",
}


def import_times(repeats: int = 3) -> dict[str, float]:
    """Cumulative import times from ``-X importtime`` in fresh processes."""
    found = defaultdict(list)
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$")
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import glmdesign"],
                              capture_output=True, text=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            m = pattern.match(line)
            if m and m.group(2) in ("glmdesign", "scipy.special"):
                found[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {"import.glmdesign_s": statistics.median(found["glmdesign"]),
            "import.scipy_special_s": statistics.median(found["scipy.special"])}


def traced_metrics(phases, inputs, seconds, workload, seed, run) -> dict:
    """A warm-up round, then pairs of the same round, untraced then traced,
    until the run length is spent.  Per-layer self times are medians over
    traced rounds; counts come from one traced round (every traced round
    repeats them, having the same inputs)."""
    tracer = Tracer()
    start = time.perf_counter()
    run_round(phases, inputs, run)  # warm-up, so the first pair starts warm too
    overhead, self_s, counts = [], defaultdict(list), None
    while True:
        pair_start = t = time.perf_counter()
        run_round(phases, inputs, run)
        untraced = time.perf_counter() - t
        tracer.reset()
        tracer.install(g)
        run.tracer = tracer
        try:
            t = time.perf_counter()
            run_round(phases, inputs, run)
            overhead.append(time.perf_counter() - t - untraced)
        finally:
            run.tracer = None
            tracer.uninstall()
        for group in PER_LAYER_TIMES:
            self_s[group].append(tracer.self_s.get(group, 0.0))
        counts = counts if counts is not None else dict(tracer.counts)
        if _last_round(start, pair_start, seconds):
            break
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    metrics = {f"{group}.s": (statistics.median(v), "s") for group, v in self_s.items()}
    metrics.update({name: (counts.get(name, 0), unit) for name, unit in PER_LAYER_COUNTS.items()})
    metrics.update({name: (v, "s") for name, v in import_times().items()})
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return metrics


def _last_round(start: float, round_start: float, seconds: float) -> bool:
    """Stop where the run ends closest to ``seconds``, assuming the next
    round takes as long as the last."""
    now = time.perf_counter()
    return now - start + (now - round_start) / 2.0 >= seconds


def untraced_metrics(phases, inputs, rng, seconds, workload, run) -> dict:
    """Whole rounds until the run length is spent."""
    start = time.perf_counter()
    for n in itertools.count(1):
        t = time.perf_counter()
        run_round(phases, inputs, run)
        if _last_round(start, t, seconds):
            break
        inputs = [phase.prepare(rng) for phase in phases]
    print(f"{n} rounds in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    # on cli_jobs the work happens in the CLI children, so their largest peak counts
    peak_kb = run.child_peak_kb if workload == "cli_jobs" else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    metrics = {"peak_rss_mb": (peak_kb / 1024.0, "MB")}
    units = {"setup_s": "s", "cli_job_s": "s", "certified_per_s": "designs/s",
             "verify_points_per_s": "points/s", "scan_rows_per_s": "rows/s", "search_s": "s",
             "oracle_s": "s"}
    for name, calls in run.call_samples.items():
        run.samples[name] = [sum(statistics.median(v) for v in calls.values())]
    for name, unit in units.items():
        metrics[name] = (statistics.median(run.samples[name]), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print only its time")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(args.seed)
    phases = phases_of(args.workload)
    inputs = [phase.prepare(rng) for phase in phases]
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:
        setup = SetupPhase(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", "0"])
        phases.append(setup)
        inputs.append(setup.prepare(rng))

    broken_checks = selftest()
    for line in broken_checks:
        print(f"selftest: {line}", file=sys.stderr)
    seconds = min(args.seconds, SECONDS_LIMIT)
    run = Run(in_process_cli=bool(args.trace))
    run.samples["setup_s"].append(setup_s)
    if args.trace:
        metrics = traced_metrics(phases, inputs, seconds, args.workload, args.seed, run)
    else:
        metrics = untraced_metrics(phases, inputs, rng, seconds, args.workload, run)
    for reason in run.tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not broken_checks and run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
