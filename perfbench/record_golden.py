"""Record the golden store: the exact report fields of every case any seed can
produce, at the current commit of the program.

Usage (from the repository root):

    python3 perfbench/record_golden.py --workload dense-product

Every case must exit 0 and pass the independent checks; the script refuses
to write a store otherwise.  Run it only to define the benchmark, never to
make a changed program pass.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

import golden
import workloads


def record(workload: str) -> int:
    sys.path.insert(0, str(run.SRC))
    import hcspec.cli as cli
    import numpy

    cases: dict = {}
    problems: list[str] = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        scenario_path = Path(tmp) / "scenario.json"
        report_path = Path(tmp) / "report.json"
        for position, member, batch in workloads.universe(workload):
            for case in batch:
                scenario_path.write_bytes(case.scenario_bytes())
                code = cli.main([case.command, str(scenario_path), "--out", str(report_path), *case.flags])
                if code != 0:
                    problems.append(f"{case.key}: exit code {code}")
                    continue
                report = json.loads(report_path.read_text(encoding="utf-8"))
                problems += [f"{case.key}: {p}" for p in golden.independent_problems(case.command, case.expect, report)]
                cases[case.key] = {"sha": case.scenario_sha(), "fields": golden.exact_fields(case.command, code, report)}
            if member == workloads.positions(workload)[position][2] - 1:
                print(f"{workload}: position {position} done, {time.perf_counter() - start:.1f} s", flush=True)
    if problems:
        for problem in problems[:50]:
            sys.stderr.write(f"record_golden: {problem}\n")
        return 1
    setting = {"python": platform.python_version(), "numpy": numpy.__version__}
    golden.write_golden(workload, cases, setting)
    print(f"{workload}: recorded {len(cases)} cases in {time.perf_counter() - start:.1f} s")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="record the perfbench golden store")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args()
    status = 0
    for workload in args.workload or workloads.WORKLOADS:
        status |= record(workload)
    return status


if __name__ == "__main__":
    sys.exit(main())
