"""A fixed subset of the ``nfactor-verdicts`` benchmark universe, replayed
through the CLI against the benchmark's golden store.

The case generators and the golden store are read from ``perfbench``, which
this test only imports: a change to a ``dbar`` or ``dbar-n`` report that the
benchmark would count as a failed case fails here first.
"""

import json
import sys
from pathlib import Path

from hcspec.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import golden  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "nfactor-verdicts"

#: Members replayed at every position: 409 of the universe's 3,487 cases,
#: among them the one fixed tuple of each of n = 4 to 7 (member 0).
MEMBERS = range(7)


def test_nfactor_verdicts_match_the_golden_store(tmp_path):
    expected = golden.load_golden(WORKLOAD)
    scenario, out = tmp_path / "scenario.json", tmp_path / "report.json"
    replayed = 0
    for position, (_, _, members) in enumerate(workloads.positions(WORKLOAD)):
        for member in MEMBERS[:members]:
            for case in workloads.member_cases(WORKLOAD, position, member):
                record = expected[case.key]
                assert record["sha"] == case.scenario_sha(), case.key
                scenario.write_bytes(case.scenario_bytes())
                code = main([case.command, str(scenario), "--out", str(out)])
                report = json.loads(out.read_text(encoding="utf-8"))
                fields = golden.exact_fields(case.command, code, report)
                assert golden.field_mismatches(record["fields"], fields) == [], case.key
                replayed += 1
    assert replayed >= 400, replayed
