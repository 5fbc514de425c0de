"""Tests of the benchmark itself.

Run from the repository root, after the golden store is recorded:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import golden  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
import hcspec.cli as cli  # noqa: E402

SEED = 7

# Metrics that are counts of work and must repeat exactly for a seed.
EXACT = [
    name
    for name in run.PER_LAYER
    if name.endswith((".calls", ".calls_le64", ".calls_65_256", ".calls_gt256"))
    or name
    in (
        "numerics.eig_work_n3",
        "spectra.enumerate_below.values",
        "spectra.normalize.atoms_in",
        "spectra.normalize.atoms_out",
        "scenario.report_bytes",
    )
]


def _prepared(workload: str, tmp_path: Path, limit: int | None = None) -> list[run.Prepared]:
    [batch] = run.prepare(workload, SEED, range(1), tmp_path)
    return batch[:limit]


def _traced_counts(workload: str, cases: list[run.Prepared]) -> dict:
    runner = run.Runner(cli, golden.load_golden(workload))
    spans, _ = run.run_traced(runner, cases)
    assert runner.failed == 0, runner.problems
    metrics = tracer.layer_metrics(spans)
    return {name: metrics.get(name, 0) for name in EXACT}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_check_catches_a_corrupted_field(workload, tmp_path):
    case = _prepared(workload, tmp_path, limit=1)[0]
    expected = golden.load_golden(workload)

    clean = run.Runner(cli, expected)
    clean.run(case)
    assert (clean.attempted, clean.failed) == (1, 0), clean.problems

    corrupted = copy.deepcopy(expected)
    fields = corrupted[case.key]["fields"]
    name = sorted(n for n in fields if n not in ("exit_code", "pass"))[0]
    fields[name] = ["corrupted", fields[name]]
    caught = run.Runner(cli, corrupted)
    caught.run(case)
    assert (caught.attempted, caught.failed) == (1, 1)
    assert name in caught.problems[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload, tmp_path):
    cases = _prepared(workload, tmp_path, limit=12)
    assert _traced_counts(workload, cases) == _traced_counts(workload, cases)


def test_workloads_do_not_touch_each_others_layers(tmp_path):
    counts = {w: _traced_counts(w, _prepared(w, tmp_path / w)) for w in workloads.WORKLOADS}
    for workload in ("symbolic-sums", "nfactor-verdicts"):
        touched = {k: v for k, v in counts[workload].items() if k.startswith("numerics.") and v}
        assert touched == {}, workload
    assert counts["joint-pairs"]["numerics.dilation.calls"] == 0
    assert counts["joint-pairs"]["numerics.hermitian_eig.calls"] > 0
    for workload in ("dense-product", "nfactor-verdicts"):
        assert counts[workload]["spectra.minkowski_oracle_check.calls"] == 0, workload
    assert counts["symbolic-sums"]["spectra.minkowski_oracle_check.calls"] > 0
    assert counts["dense-product"]["numerics.dilation.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "joint-pairs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
