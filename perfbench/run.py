"""hcspec benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-product --seed 1 --seconds 20 --trace 0

One client drives ``hcspec.cli.main([...])`` in this process, one case at a
time; a case is one CLI command on a scenario file written before timing
starts, and it is done when its report file has been written and checked
against the golden store and the independent checks.  Runs execute whole
rounds (see ``workloads.py``) until ``--seconds`` is used, and at least
enough rounds for ``MIN_CASES`` cases, so that p90 has ten samples beyond it.

``--trace 0`` prints the end-to-end metrics, with case times scaled to the
reference pace of the host (see ``Pace``).  ``--trace 1`` runs a fixed,
seed-determined set of rounds twice, first untraced and then traced on
different members of the same positions, and prints the per-layer metrics;
its counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: one client on a shared 2-core machine, and steadier timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import workloads  # noqa: E402

MIN_CASES = 100
HARD_CAP_S = 140.0
SETUP_SAMPLES = 7

# Rounds per phase of a traced run, sized to about 5-12 s untraced each.
TRACE_ROUNDS = {"dense-product": 1, "symbolic-sums": 4, "nfactor-verdicts": 3, "joint-pairs": 8}

END_TO_END_UNITS = {
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = [
    *(f"numerics.{f}.calls" for f in ("pseudo_inverse", "range_projection", "numeric_rank")),
    "numerics.dilation.calls",
    "numerics.dilation.self_ms",
    "numerics.dilation.calls_le64",
    "numerics.dilation.calls_65_256",
    "numerics.dilation.calls_gt256",
    "numerics.eig_work_n3",
    *(f"numerics.{f}.{s}" for f in ("hermitian_eig", "kronecker") for s in ("calls", "self_ms")),
    *(
        f"complexes.{f}.{s}"
        for f in ("hodge", "cohomology_dim", "check_identities", "validate", "spectrum_multiset", "random_complex")
        for s in ("calls", "self_ms")
    ),
    "tensorprod.tensor_complex.calls",
    "tensorprod.tensor_complex.self_ms",
    "tensorprod.kuenneth_check.ms",
    "tensorprod.verify_product_spectrum.ms",
    *(f"spectra.{f}.{s}" for f in ("enumerate_below", "find_uncovered") for s in ("calls", "self_ms")),
    "spectra.enumerate_below.values",
    "spectra.minkowski_oracle_check.calls",
    "spectra.minkowski_oracle_check.ms",
    *(f"spectra.{f}.{s}" for f in ("normalize", "minkowski_sum") for s in ("calls", "self_ms")),
    "spectra.union.calls",
    "spectra.normalize.atoms_in",
    "spectra.normalize.atoms_out",
    *(
        f"dbar.{f}.{s}"
        for f in ("riemann_surface_product_report", "neumann_compactness", "product_box_spectrum")
        for s in ("calls", "ms")
    ),
    *(
        f"jointspec.{f}.{s}"
        for f in ("joint_spectrum", "tensor_pair_spectrum", "sum_operator_check")
        for s in ("calls", "ms")
    ),
    "scenario.load_scenario.self_ms",
    "scenario.dump_report.self_ms",
    "scenario.report_bytes",
    "cli.main.calls",
    "cli.main.self_ms",
    "trace.overhead_ratio",
]


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name == "scenario.report_bytes":
        return "bytes"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


# ---------------------------------------------------------------------------
# Set-up time

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import hcspec.cli\n"
    "print(time.perf_counter() - start)\n"
)


def import_hcspec() -> float:
    """Import ``hcspec.cli`` here, the first sample of the set-up time."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hcspec.cli  # noqa: F401

    return time.perf_counter() - start


def fresh_import_seconds() -> float:
    """Import time of ``hcspec.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env=dict(os.environ),
    )
    return float(done.stdout.strip())


# ---------------------------------------------------------------------------
# Cases


class Prepared:
    """A case whose scenario file is on disk; the scenario itself is dropped."""

    __slots__ = ("key", "command", "argv", "sha", "expect")

    def __init__(self, case: workloads.Case, path: Path, report: Path) -> None:
        self.key = case.key
        self.command = case.command
        self.sha = case.scenario_sha()
        self.expect = case.expect
        self.argv = [case.command, str(path), "--out", str(report), *case.flags]
        path.write_bytes(case.scenario_bytes())


def prepare(workload: str, seed: int, rounds: range, cases_dir: Path) -> list[list[Prepared]]:
    cases_dir.mkdir(parents=True, exist_ok=True)
    report = cases_dir / "report.json"
    prepared = []
    for r in rounds:
        batch = workloads.round_cases(workload, seed, r)
        prepared.append(
            [Prepared(c, cases_dir / f"r{r}-{i}.json", report) for i, c in enumerate(batch)]
        )
    return prepared


class Runner:
    """Runs prepared cases and checks each report; records latencies."""

    def __init__(self, cli, expected: dict) -> None:
        self.cli = cli
        self.expected = expected
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, case: Prepared) -> None:
        self.attempted += 1
        report_path = Path(case.argv[3])
        report_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = self.cli.main(case.argv)
        except (Exception, SystemExit) as exc:  # a case must not stop the run
            self.latencies.append(time.perf_counter() - start)
            self._failure(case, f"raised {type(exc).__name__}: {exc}")
            return
        self.latencies.append(time.perf_counter() - start)
        if code != 0:
            self._failure(case, f"exit code {code}")
            return
        record = self.expected.get(case.key)
        if record is None:
            self._failure(case, "no golden record")
            return
        if record["sha"] != case.sha:
            self._failure(case, "scenario differs from the recorded one")
            return
        try:
            with report_path.open(encoding="utf-8") as handle:
                report = json.load(handle)
            wrong = golden.field_mismatches(record["fields"], golden.exact_fields(case.command, code, report))
            wrong += golden.independent_problems(case.command, case.expect, report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._failure(case, f"unreadable report: {type(exc).__name__}: {exc}")
            return
        if wrong:
            self._failure(case, "mismatch: " + ", ".join(wrong))

    def _failure(self, case: Prepared, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{case.key} ({case.command}): {message}")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Machine pace

# How each workload's case times follow the reference task's time as the
# host's speed changes: the slope of log unscaled metric on log reference
# ratio across 10 runs per workload on this host, rounded.  Interpreter-bound
# workloads follow it more closely than LAPACK-bound ones.
PACE_EXPONENT = {"dense-product": 0.4, "symbolic-sums": 0.65, "nfactor-verdicts": 0.7, "joint-pairs": 0.5}
SETUP_PACE_EXPONENT = 0.8

# The reference pace: the reference task takes 10 ms (about its time on a
# 2-core shared x86-64 host, one BLAS thread, in the host's slower state).
REFERENCE_S = 10e-3


def _reference_task() -> None:
    """Interpreter work on a dict of a thousand Fractions, like the program's
    symbolic layer: of the tasks tried, its time tracked case times best."""
    counts: dict = {}
    for i in range(1000):
        value = Fraction(i % 97 + 1, i % 13 + 1)
        counts[value] = counts.get(value, 0) + 1
    sorted(counts.items())


class Pace:
    """The host's speed relative to the reference pace, over a run.

    The host's speed changes by up to 2x in phases of seconds to minutes,
    which no run can average away.  Between cases, at most every
    ``PERIOD_S``, the benchmark times a fixed reference task (benchmark code,
    never program code).  ``factors`` gives, for each moment asked, the
    median of the samples within ``HALF_WINDOW_S`` of it over the reference
    time, raised to the workload's exponent.  Case times are divided by it.
    """

    PERIOD_S = 0.5
    HALF_WINDOW_S = 3.0

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self.times: list[float] = []
        self.samples: list[float] = []

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= self.PERIOD_S

    def sample(self) -> None:
        gc.disable()  # the program's leftover garbage must not slow the reference
        try:
            start = time.perf_counter()
            _reference_task()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        self.times.append(time.perf_counter())
        self.samples.append(elapsed / REFERENCE_S)

    def factors(self, moments: list[float]) -> list[float]:
        import numpy as np  # here, not at the top: setup_s times numpy's import

        times = np.asarray(self.times)
        samples = np.asarray(self.samples)
        lo = np.searchsorted(times, np.asarray(moments) - self.HALF_WINDOW_S)
        hi = np.searchsorted(times, np.asarray(moments) + self.HALF_WINDOW_S)
        return [float(np.median(samples[a : max(b, a + 1)])) ** self.exponent for a, b in zip(lo, hi)]


def setup_pace() -> float:
    """A fresh pace factor for one import-time sample."""
    pace = Pace(SETUP_PACE_EXPONENT)
    for _ in range(5):
        pace.sample()
    return pace.factors([pace.times[-1]])[0]


# ---------------------------------------------------------------------------
# Runs


def settle() -> None:
    """Collect, then freeze the benchmark's own objects (golden store, cases)
    so the program's garbage collections do not scan them."""
    gc.collect()
    gc.freeze()


def timed_run(runner: Runner, rounds: list[list[Prepared]], seconds: float, pace: Pace):
    """Whole rounds until ``seconds`` is used (to the nearest half round).

    Returns the rounds done, the wall time, and the case latencies and the
    summed case time, scaled to the reference pace."""
    min_rounds = math.ceil(MIN_CASES / len(rounds[0]))
    settle()
    starts: list[float] = []
    slices: list[float] = []
    start = time.perf_counter()
    done = 0
    while True:
        for case in rounds[done % len(rounds)]:
            if pace.due():
                pace.sample()
            starts.append(time.perf_counter())
            runner.run(case)
            slices.append(time.perf_counter() - starts[-1])
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed > HARD_CAP_S:
            break
        if done >= min_rounds and elapsed + 0.5 * elapsed / done >= seconds:
            break
    wall = time.perf_counter() - start
    pace.sample()
    factors = pace.factors(starts)
    latencies = [t / f for t, f in zip(runner.latencies, factors)]
    return done, wall, latencies, sum(t / f for t, f in zip(slices, factors))


def end_to_end(args, cli, expected: dict, cases_dir: Path, setup: list[float]) -> tuple[Runner, dict]:
    members = max(m for _, _, m in workloads.positions(args.workload))
    rounds = prepare(args.workload, args.seed, range(members), cases_dir)
    runner = Runner(cli, expected)
    pace = Pace(PACE_EXPONENT[args.workload])
    done, wall, latencies, total = timed_run(runner, rounds, args.seconds, pace)
    n = len(latencies)
    metrics = {
        "cases_per_s": n / total,
        "case_ms_p50": percentile(latencies, 0.5) * 1e3,
        "case_ms_p90": percentile(latencies, 0.9) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"cases_per_s": n, "case_ms_p50": n, "case_ms_p90": n, "setup_s": len(setup), "peak_rss_mb": 1}
    raw = runner.latencies
    print(
        f"workload {args.workload} seed {args.seed}: {done} rounds, {n} cases, {wall:.2f} s wall; "
        f"reference ratio median {statistics.median(pace.samples):.3f} over {len(pace.samples)} samples; "
        f"unscaled: {n / wall:.4f} cases/s, p50 {percentile(raw, 0.5) * 1e3:.4f} ms, "
        f"p90 {percentile(raw, 0.9) * 1e3:.4f} ms"
    )
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {END_TO_END_UNITS[name]:<4} (n={samples[name]})")
    print(f"  {'fail_ratio':<12} {runner.failed / max(runner.attempted, 1):12.4f} 1    (n={runner.attempted})")
    return runner, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def run_traced(runner: Runner, cases: list[Prepared]):
    """Run ``cases`` under a fresh tracer; returns the tracer and the wall time."""
    import tracer as tracing

    spans = tracing.Tracer()
    spans.install()
    try:
        start = time.perf_counter()
        for case in cases:
            spans.begin_case(case.key)
            runner.run(case)
        return spans, time.perf_counter() - start
    finally:
        spans.uninstall()


def traced(args, cli, expected: dict, cases_dir: Path) -> tuple[Runner, dict]:
    import tracer as tracing

    k = TRACE_ROUNDS[args.workload]
    rounds = prepare(args.workload, args.seed, range(2 * k), cases_dir)
    runner = Runner(cli, expected)
    settle()
    # Untraced baseline on rounds k..2k-1: the same positions with other
    # members, so no case runs twice in the process.
    start = time.perf_counter()
    for case in (c for batch in rounds[k:] for c in batch):
        runner.run(case)
    untraced_s = time.perf_counter() - start
    untraced_cases = runner.attempted

    spans, traced_s = run_traced(runner, [c for batch in rounds[:k] for c in batch])
    traced_cases = runner.attempted - untraced_cases
    layer = tracing.layer_metrics(spans)
    layer["trace.overhead_ratio"] = (untraced_cases / untraced_s) / (traced_cases / traced_s)
    spans.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.npz")
    print(
        f"workload {args.workload} seed {args.seed}: traced {traced_cases} cases in {traced_s:.2f} s "
        f"({len(spans.start)} spans), untraced {untraced_cases} cases in {untraced_s:.2f} s"
    )
    metrics = {}
    for name in PER_LAYER:
        metrics[name] = {"value": layer.get(name, 0), "unit": per_layer_unit(name)}
        print(f"  {name:<48} {metrics[name]['value']:>16} {metrics[name]['unit']}")
    return runner, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hcspec" / "cli.py").is_file():
        return fail(f"no program source at {SRC / 'hcspec'}; run from a full checkout")
    if not golden.golden_path(args.workload).is_file():
        return fail(f"no golden record for {args.workload}")

    setup = [import_hcspec() / setup_pace()]
    import hcspec.cli as cli

    if not args.trace:
        setup += [fresh_import_seconds() / setup_pace() for _ in range(SETUP_SAMPLES - 1)]
    expected = golden.load_golden(args.workload)
    cases_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.trace:
            runner, metrics = traced(args, cli, expected, cases_dir)
        else:
            runner, metrics = end_to_end(args, cli, expected, cases_dir, setup)
    finally:
        shutil.rmtree(cases_dir, ignore_errors=True)
    for problem in runner.problems:
        sys.stderr.write(f"perfbench: failed case {problem}\n")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
