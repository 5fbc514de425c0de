"""The failure lines of the fuzz suites, one planted fault per line.

Each test patches one name a suite reads, so that the suite meets the fault
it exists to catch, and checks that the run fails with that line's message.
The last test checks that ``fuzz --oracle-cutoff`` reaches the suites that
read a cutoff.
"""

import json
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from hcspec import complexes, fuzzing, jointspec, tensorprod
from hcspec.cli import main
from hcspec.dbar import CompactnessReport, Verdict
from hcspec.spectra import EMPTY, INFINITE, Point, SpectralSet

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _fails_with(result, pattern):
    assert result.passed is False
    assert any(re.fullmatch(pattern, failure) for failure in result.failures), result.failures


def _wrapped(monkeypatch, module, name, change):
    """Patch ``module.name`` to hand its result to ``change`` first."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: change(original(*args, **kwargs)))


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
    _wrapped(monkeypatch, tensorprod, name, lambda report: report._replace(passed=False, **fields))
    _fails_with(fuzzing.run_tensor_suite(0, 3), pattern)


def test_fuzz_command_fails_on_a_failed_tensor_check(monkeypatch, capsys):
    _wrapped(monkeypatch, tensorprod, "kuenneth_check", lambda report: report._replace(passed=False))
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
        lambda report: CompactnessReport(
            report.verdict,
            report.fired_rule,
            (*report.witnesses, (0, 1, 1)),
            report.essential_spectrum,
            report.trace,
            report.spectrum,
        ),
    )
    _fails_with(
        fuzzing.run_surface_product_suite(0, 3),
        r"(non-genuine )?case \d+: degree \d+ witnesses differ from the direct formula",
    )


def test_joint_suite_reports_sum_operator_gaps(monkeypatch):
    assert fuzzing.run_joint_suite(0, 3).passed
    _wrapped(monkeypatch, jointspec, "sum_operator_check", lambda report: report._replace(passed=False))
    _fails_with(fuzzing.run_joint_suite(0, 3), r"case \d+: sum-operator gaps \S+ / \S+")


def test_joint_suite_reports_a_mapping_against_the_assembly(monkeypatch):
    original = jointspec.spectral_mapping
    monkeypatch.setattr(
        jointspec, "spectral_mapping", lambda points, f: original(points, lambda lam, mu: f(lam, mu) + 1)
    )
    _fails_with(fuzzing.run_joint_suite(0, 3), r"case \d+: mapping vs assembly gap \S+")


def test_complex_suite_reports_a_failed_validation(monkeypatch):
    assert fuzzing.run_complex_suite(0, 3).passed
    built = []
    _wrapped(monkeypatch, complexes, "random_complex", lambda complex_: built.append(complex_) or complex_)
    _wrapped(monkeypatch, complexes, "validate", lambda report: report._replace(passed=False))
    result = fuzzing.run_complex_suite(0, 3)
    assert result.failures == tuple(
        f"case {case}: cochain validation failed for dims {list(complex_.dims)}" for case, complex_ in enumerate(built)
    )


def _drawn_sets(monkeypatch):
    """The spectral sets the suite draws, three a case: ``a``, ``b``, ``c``."""
    drawn = []
    _wrapped(monkeypatch, fuzzing, "random_spectral_set", lambda s: drawn.append(s) or s)
    return drawn


def test_spectra_suite_reports_a_broken_associativity(monkeypatch):
    assert fuzzing.run_spectra_suite(0, 4).passed
    drawn = _drawn_sets(monkeypatch)
    _wrapped(monkeypatch, fuzzing, "sets_semantically_equal", lambda equal: False)
    result = fuzzing.run_spectra_suite(0, 4)
    assert result.failures == tuple(
        f"case {case}: associativity broke for {a}, {b}, {c}"
        for case, (a, b, c) in enumerate(zip(drawn[::3], drawn[1::3], drawn[2::3]))
    )


def test_spectra_suite_reports_a_broken_commutativity(monkeypatch):
    drawn = _drawn_sets(monkeypatch)
    original = fuzzing.minkowski_sum

    def faulty(x, y):
        # b + a of the current case comes out empty, every other sum is right
        a = (len(drawn) - 1) // 3 * 3
        return EMPTY if (x, y) == (drawn[a + 1], drawn[a]) else original(x, y)

    monkeypatch.setattr(fuzzing, "minkowski_sum", faulty)
    result = fuzzing.run_spectra_suite(0, 4)
    cases = list(enumerate(zip(drawn[::3], drawn[1::3])))
    broken = [(case, a, b) for case, (a, b) in cases if a != b and not original(a, b).is_empty()]
    assert broken
    for case, a, b in broken:
        assert f"case {case}: commutativity broke for {a}, {b}" in result.failures


def test_surface_product_suite_reports_an_undecidable_verdict(monkeypatch):
    _wrapped(
        monkeypatch,
        fuzzing,
        "riemann_surface_product_report",
        lambda report: SimpleNamespace(
            verdict=Verdict.UNDECIDABLE, fired_rule=report.fired_rule, witnesses=report.witnesses
        ),
    )
    result = fuzzing.run_surface_product_suite(0, 3)
    for case in range(3):
        assert f"case {case}: unexpected undecidable verdict" in result.failures


def test_surface_product_suite_reports_a_middle_degree_that_did_not_spread(monkeypatch):
    original = fuzzing.riemann_surface_product_report
    sizes = []

    def only_degree_one_noncompact(factors, q):
        report = original(factors, q)
        if q == 0:
            sizes.append(len(factors))
        verdict = Verdict.NONCOMPACT if q == 1 else Verdict.COMPACT
        return SimpleNamespace(verdict=verdict, fired_rule=report.fired_rule, witnesses=report.witnesses)

    monkeypatch.setattr(fuzzing, "riemann_surface_product_report", only_degree_one_noncompact)
    result = fuzzing.run_surface_product_suite(0, 6)
    genuine = sizes[:6]  # the non-genuine draw that follows checks no spread
    assert 2 in genuine and any(n >= 3 for n in genuine)
    for case, n in enumerate(genuine):
        message = f"case {case}: middle-degree non-compactness did not spread"
        assert (message in result.failures) == (n >= 3), (case, n)


def test_fuzz_command_passes_the_oracle_cutoff_to_the_spectral_suites(monkeypatch, capsys):
    cutoffs = []
    for name in ("minkowski_oracle_check", "enumerate_below"):
        original = getattr(fuzzing, name)
        monkeypatch.setattr(
            fuzzing, name, lambda *args, original=original: cutoffs.append(args[-1]) or original(*args)
        )
    argv = ["fuzz", str(SCENARIOS / "symbolic-ap-pair.json"), "--cases", "3", "--seed", "0", "--oracle-cutoff", "45/2"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert [suite["suite"] for suite in report["results"]["suites"]] == ["spectra", "verdicts"]
    assert len(cutoffs) == 3 + 3 * 2 and set(cutoffs) == {Fraction(45, 2)}
