"""The failure lines of the fuzz suites, one planted fault per line.

Each test patches one name a suite reads, so that the suite meets the fault
it exists to catch, and checks that the run fails with that line's message.
"""

import dataclasses
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from hcspec import fuzzing, jointspec, tensorprod
from hcspec.cli import main
from hcspec.dbar import Verdict
from hcspec.spectra import EMPTY, INFINITE, Point, SpectralSet

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _fails_with(result, pattern):
    assert result.passed is False
    assert any(re.fullmatch(pattern, failure) for failure in result.failures), result.failures


def _wrapped(monkeypatch, module, name, change):
    """Patch ``module.name`` to hand its result to ``change`` first."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(original(*args)))


def _flipped(verdict):
    return Verdict.NONCOMPACT if verdict is Verdict.COMPACT else Verdict.COMPACT


@pytest.mark.parametrize(
    "name, fields, pattern",
    [
        ("verify_product_spectrum", {"max_gap": 1.0}, r"case \d+: spectrum gap 1\.00e\+00 at degree -?\d+"),
        ("kuenneth_check", {}, r"case \d+: Kuenneth mismatch \{.*\}"),
        ("block_structure_check", {}, r"case \d+: block structure residuals \{.*\}"),
    ],
)
def test_tensor_suite_reports_each_failed_check(monkeypatch, name, fields, pattern):
    assert fuzzing.run_tensor_suite(0, 3).passed
    _wrapped(monkeypatch, tensorprod, name, lambda report: dataclasses.replace(report, passed=False, **fields))
    _fails_with(fuzzing.run_tensor_suite(0, 3), pattern)


def test_fuzz_command_fails_on_a_failed_tensor_check(monkeypatch, capsys):
    _wrapped(monkeypatch, tensorprod, "kuenneth_check", lambda report: dataclasses.replace(report, passed=False))
    assert main(["fuzz", str(SCENARIOS / "chain-product.json"), "--cases", "3", "--seed", "0"]) == 1
    report = json.loads(capsys.readouterr().out)
    tensor = next(entry for entry in report["results"]["suites"] if entry["suite"] == "tensor")
    assert report["pass"] is False and tensor["passed"] is False
    assert tensor["failures"] == list(fuzzing.run_tensor_suite(0, 3).failures)


def test_verdict_suite_reports_an_essential_value_outside_the_spectrum(monkeypatch):
    assert fuzzing.run_verdict_suite(0, 5).passed
    stray = SimpleNamespace(
        verdict=Verdict.NONCOMPACT, spectrum=EMPTY, essential_spectrum=SpectralSet.of(Point(1, INFINITE))
    )
    monkeypatch.setattr(fuzzing, "neumann_compactness", lambda *args: stray)
    _fails_with(fuzzing.run_verdict_suite(0, 5), r"case \d+: essential value 1 not in spectrum")


def test_verdict_suite_reports_disagreeing_criteria(monkeypatch):
    _wrapped(
        monkeypatch,
        fuzzing,
        "neumann_compactness",
        lambda report: SimpleNamespace(
            verdict=_flipped(report.verdict), spectrum=report.spectrum, essential_spectrum=report.essential_spectrum
        ),
    )
    _fails_with(
        fuzzing.run_verdict_suite(0, 5),
        r"case \d+: criteria disagree \(cross-sums \w+, factor essentials \w+, product essential \w+, verdict .+\)",
    )


def test_surface_product_suite_reports_a_verdict_against_the_direct_formula(monkeypatch):
    assert fuzzing.run_surface_product_suite(0, 3).passed
    _wrapped(
        monkeypatch,
        fuzzing,
        "riemann_surface_product_report",
        lambda report: SimpleNamespace(
            verdict=_flipped(report.verdict), fired_rule=report.fired_rule, witnesses=report.witnesses
        ),
    )
    _fails_with(
        fuzzing.run_surface_product_suite(0, 3),
        r"(non-genuine )?case \d+: degree \d+ is \S+ by .+, the direct formula says \S+",
    )


def test_surface_product_suite_reports_witnesses_against_the_direct_formula(monkeypatch):
    _wrapped(
        monkeypatch,
        fuzzing,
        "riemann_surface_product_report",
        lambda report: dataclasses.replace(report, witnesses=(*report.witnesses, (0, 1, 1))),
    )
    _fails_with(
        fuzzing.run_surface_product_suite(0, 3),
        r"(non-genuine )?case \d+: degree \d+ witnesses differ from the direct formula",
    )


def test_joint_suite_reports_sum_operator_gaps(monkeypatch):
    assert fuzzing.run_joint_suite(0, 3).passed
    _wrapped(monkeypatch, jointspec, "sum_operator_check", lambda report: dataclasses.replace(report, passed=False))
    _fails_with(fuzzing.run_joint_suite(0, 3), r"case \d+: sum-operator gaps \S+ / \S+")


def test_joint_suite_reports_a_mapping_against_the_assembly(monkeypatch):
    original = jointspec.spectral_mapping
    monkeypatch.setattr(
        jointspec, "spectral_mapping", lambda points, f: original(points, lambda lam, mu: f(lam, mu) + 1)
    )
    _fails_with(fuzzing.run_joint_suite(0, 3), r"case \d+: mapping vs assembly gap \S+")
