"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the suite is also what ``pytest`` gates the build on.
"""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from hcspec import fuzzing
from hcspec.cli import main
from hcspec.dbar import Verdict, builtin_models, neumann_compactness
from hcspec.spectra import AP, Point, SpectralSet, minkowski_sum

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SEED = 20250809


def _report(number: int, passed: bool, summary: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {summary}")


@pytest.fixture(scope="module")
def tensor_suite():
    start = time.monotonic()
    result = fuzzing.run_tensor_suite(SEED, 200)
    return result, time.monotonic() - start


def test_criterion_1_product_spectrum_pairing(tensor_suite):
    result, elapsed = tensor_suite
    spectrum_failures = [f for f in result.failures if "spectrum" in f]
    passed = not spectrum_failures and elapsed < 60.0
    _report(
        1,
        passed,
        f"product-Laplacian eigenvalue pairing on 200 random pairs "
        f"(gap <= 1e-7) in {elapsed:.1f}s",
    )
    assert not spectrum_failures, spectrum_failures[:3]
    assert elapsed < 60.0


def test_criterion_2_operator_identities_and_hodge():
    result = fuzzing.run_complex_suite(SEED, 200)
    _report(
        2,
        result.passed,
        "solution/inverse identities and Hodge projectors on 200 seeded "
        "complexes (residuals <= 1e-8)",
    )
    assert result.passed, result.failures[:3]


def test_criterion_3_kuenneth_convolution(tensor_suite):
    result, _ = tensor_suite
    kuenneth_failures = [f for f in result.failures if "Kuenneth" in f]
    _report(
        3,
        not kuenneth_failures,
        "product cohomology equals the factor convolution (exact integers) "
        "on the same 200 pairs",
    )
    assert not kuenneth_failures, kuenneth_failures[:3]


def test_criterion_9_product_laplacian_block_structure(tensor_suite):
    result, _ = tensor_suite
    block_failures = [f for f in result.failures if "block structure" in f]
    _report(
        9,
        not block_failures,
        "dense product Laplacian vanishes off its diagonal blocks and matches "
        "Delta_j (x) I + I (x) Delta'_k on each, within 1e-8, on the same 200 pairs",
    )
    assert not block_failures, block_failures[:3]


def test_criterion_4_minkowski_oracle():
    result = fuzzing.run_spectra_suite(SEED, 1000, Fraction(100))
    worked = minkowski_sum(
        SpectralSet.of(AP(0, 2)), SpectralSet.of(AP(0, 3))
    ) == SpectralSet.of(Point(0), AP(2, 1))
    passed = result.passed and worked
    _report(
        4,
        passed,
        "1000 fuzzed Minkowski sums verified by exact enumeration at cutoff "
        "100; worked progression case matches exactly",
    )
    assert worked
    assert result.passed, result.failures[:3]


def test_criterion_5_product_essential_semantics():
    result = fuzzing.run_verdict_suite(SEED, 500, Fraction(100))
    _report(
        5,
        result.passed,
        "essential within spectrum at cutoff 100 and compactness criterion "
        "equivalences on 500 fuzzed models",
    )
    assert result.passed, result.failures[:3]


def test_criterion_6_surface_product_logic():
    result = fuzzing.run_surface_product_suite(SEED, 500)
    disc = builtin_models()["infinite-bergman-factor"]
    bidisc = neumann_compactness(disc, disc, 0, 1)
    passed = result.passed and bidisc.verdict is Verdict.NONCOMPACT
    _report(
        6,
        passed,
        "monotonicity and shortcut implications on 500 fuzzed factor tuples "
        "(n in 2..4), every verdict against the direct formula on those and on "
        "500 non-genuine tuples; bidisc-style pairing non-compact at (0,1)",
    )
    assert bidisc.verdict is Verdict.NONCOMPACT
    assert result.passed, result.failures[:3]


def test_criterion_7_joint_spectra():
    result = fuzzing.run_joint_suite(SEED, 200)
    _report(
        7,
        result.passed,
        "tensored joint spectra match Cartesian products and sum-operator "
        "eigenvalues within 1e-7 on 200 fuzzed pairs",
    )
    assert result.passed, result.failures[:3]


def test_criterion_8_deterministic_reports(tmp_path):
    pairs = (
        ("chain.json", "validate"),
        ("chain-product.json", "tensor"),
        ("random-complex.json", "spectrum"),
        ("symbolic-ap-pair.json", "symbolic"),
        ("bidisc.json", "dbar"),
        ("riemann-triple.json", "dbar-n"),
        ("joint-pair.json", "joint"),
    )
    identical = True
    for scenario, command in pairs:
        first = tmp_path / f"a-{scenario}.json"
        second = tmp_path / f"b-{scenario}.json"
        assert main([command, str(SCENARIOS / scenario), "--out", str(first)]) == 0
        assert main([command, str(SCENARIOS / scenario), "--out", str(second)]) == 0
        identical = identical and first.read_bytes() == second.read_bytes()
    _report(8, identical, "byte-identical reports for every shipped scenario")
    assert identical
