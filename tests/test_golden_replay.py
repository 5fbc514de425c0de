"""Fixed subsets of the ``nfactor-verdicts`` and ``symbolic-sums`` benchmark
universes, replayed through the CLI against the benchmark's golden store.

The case generators and the golden store are read from ``perfbench``, which
this test only imports: a change to a ``dbar``, ``dbar-n`` or ``symbolic``
report that the benchmark would count as a failed case fails here first.
"""

import json
import sys
from pathlib import Path

from hcspec.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import golden  # noqa: E402
import workloads  # noqa: E402


def _replay(workload: str, members: range, tmp_path: Path) -> int:
    """Replay ``members`` of every position of ``workload``; the case count."""
    expected = golden.load_golden(workload)
    scenario, out = tmp_path / "scenario.json", tmp_path / "report.json"
    replayed = 0
    for position, (_, _, universe_members) in enumerate(workloads.positions(workload)):
        for member in members[:universe_members]:
            for case in workloads.member_cases(workload, position, member):
                record = expected[case.key]
                assert record["sha"] == case.scenario_sha(), case.key
                scenario.write_bytes(case.scenario_bytes())
                code = main([case.command, str(scenario), *case.flags, "--out", str(out)])
                report = json.loads(out.read_text(encoding="utf-8"))
                fields = golden.exact_fields(case.command, code, report)
                assert golden.field_mismatches(record["fields"], fields) == [], case.key
                replayed += 1
    return replayed


def test_nfactor_verdicts_match_the_golden_store(tmp_path):
    # members 0-6 of every position: 409 of the universe's 3,487 cases,
    # among them the one fixed tuple of each of n = 4 to 7 (member 0)
    replayed = _replay("nfactor-verdicts", range(7), tmp_path)
    assert replayed >= 400, replayed


def test_symbolic_sums_match_the_golden_store(tmp_path):
    # members 0-2 of every position: each oracle band, union and essential,
    # and every P2, P3 and P4 coprime position (steps 9/11, 37/43, 97/103)
    replayed = _replay("symbolic-sums", range(3), tmp_path)
    assert replayed == 3 * len(workloads.positions("symbolic-sums")), replayed
