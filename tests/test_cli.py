import argparse
import csv
import hashlib
import io
import json
import math
import random
import re
import time
import warnings
from pathlib import Path

import pytest

from hcspec import cli, complexes, dbar, fuzzing, spectra
from hcspec.cli import main
from hcspec.fuzzing import random_factor_model
from hcspec.scenario import dump_report, parse_factor_model
from hcspec.spectra import minkowski_sum

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else {})


def test_validate_chain(capsys):
    code, report = run_cli(capsys, "validate", SCENARIOS / "chain.json")
    assert code == 0 and report["pass"]
    assert report["results"]["residuals"]["0"] == 0.0


def test_spectrum_command(capsys):
    code, report = run_cli(capsys, "spectrum", SCENARIOS / "chain.json")
    assert code == 0
    assert report["results"]["degrees"]["0"] == [1.0]
    assert report["results"]["degrees"]["1"] == [1.0]


def test_hodge_and_identities(capsys):
    for command in ("hodge", "identities"):
        code, report = run_cli(capsys, command, SCENARIOS / "random-complex.json")
        assert code == 0 and report["pass"], (command, report)


def test_tensor_chain_product(capsys):
    code, report = run_cli(capsys, "tensor", SCENARIOS / "chain-product.json")
    assert code == 0 and report["pass"]
    assert report["results"]["max_pairing_gap"] <= 1e-7
    assert report["results"]["kuenneth_passed"]


def test_symbolic_worked_case(capsys):
    code, report = run_cli(
        capsys, "symbolic", SCENARIOS / "symbolic-ap-pair.json", "--oracle-cutoff", "100"
    )
    assert code == 0 and report["pass"]
    atoms = report["results"]["result"]["atoms"]
    assert atoms == [
        {"kind": "point", "value": "0", "mult": 1},
        {"kind": "ap", "base": "2", "step": "1", "mult": 1},
    ]
    assert report["results"]["oracle"]["passed"]


def test_dbar_bidisc(capsys):
    code, report = run_cli(capsys, "dbar", SCENARIOS / "bidisc.json")
    assert code == 0
    assert report["results"]["verdict"] == "non-compact"
    assert report["results"]["witnesses"]


def test_dbar_n_triple(capsys):
    code, report = run_cli(capsys, "dbar-n", SCENARIOS / "riemann-triple.json")
    assert code == 0
    assert report["results"]["verdict"] == "non-compact"
    assert report["results"]["fired_rule"] == "infinite-bergman-space"


def test_joint_pair(capsys):
    code, report = run_cli(capsys, "joint", SCENARIOS / "joint-pair.json")
    assert code == 0 and report["pass"]
    assert report["results"]["joint_points"] == [[[1.0, 0.0], [3.0, 0.0]], [[2.0, 0.0], [4.0, 0.0]]]


def test_fuzz_command(capsys):
    code, report = run_cli(
        capsys, "fuzz", SCENARIOS / "symbolic-ap-pair.json", "--cases", "25", "--seed", "5"
    )
    assert code == 0
    names = {entry["suite"] for entry in report["results"]["suites"]}
    assert names == {"spectra", "verdicts"}
    assert all(entry["failures"] == [] for entry in report["results"]["suites"])


def _shifted_sum(a, b):
    """A wrong Minkowski sum: the true one moved up by 1."""
    return minkowski_sum(minkowski_sum(a, b), spectra.SpectralSet.of(spectra.Point(1)))


def test_spectra_suite_reports_a_wrong_sum(monkeypatch):
    monkeypatch.setattr(fuzzing, "minkowski_sum", _shifted_sum)
    result = fuzzing.run_spectra_suite(5, 20)
    assert not result.passed
    # the shift keeps associativity and commutativity, so only the oracle sees it
    assert result.failures
    assert all(re.fullmatch(r"case \d+: oracle mismatch for .+ \+ .+", failure) for failure in result.failures)


def test_fuzz_command_fails_on_a_wrong_sum(monkeypatch, capsys):
    monkeypatch.setattr(fuzzing, "minkowski_sum", _shifted_sum)
    code, report = run_cli(
        capsys, "fuzz", SCENARIOS / "symbolic-ap-pair.json", "--cases", "20", "--seed", "5"
    )
    assert code == 1 and report["pass"] is False
    spectra_suite = next(entry for entry in report["results"]["suites"] if entry["suite"] == "spectra")
    assert spectra_suite["passed"] is False
    assert spectra_suite["failures"] == list(fuzzing.run_spectra_suite(5, 20).failures)


def test_reports_are_deterministic(tmp_path, capsys):
    for scenario, command in (
        ("chain.json", "validate"),
        ("chain-product.json", "tensor"),
        ("random-complex.json", "spectrum"),
        ("symbolic-ap-pair.json", "symbolic"),
        ("bidisc.json", "dbar"),
        ("riemann-triple.json", "dbar-n"),
        ("joint-pair.json", "joint"),
    ):
        first = tmp_path / f"a-{scenario}.out"
        second = tmp_path / f"b-{scenario}.out"
        assert main([command, str(SCENARIOS / scenario), "--out", str(first)]) == 0
        assert main([command, str(SCENARIOS / scenario), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["spectrum", str(SCENARIOS / "chain.json"), "--csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("degrees.0[0],") for line in lines)


def test_csv_quotes_a_name_with_a_comma_and_a_newline(tmp_path):
    doc = json.loads((SCENARIOS / "riemann-triple.json").read_text())
    doc["payload"]["factors"][0] = {**_MYSTERY_FACTOR, "name": "a,b\nc"}
    path, out = tmp_path / "named.json", tmp_path / "report.csv"
    path.write_text(json.dumps(doc))
    assert main(["dbar-n", str(path), "--csv", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert 'factors[0],"a,b\nc"\nfactors[1],infinite-bergman-factor\n' in text
    rows = list(csv.reader(io.StringIO(text)))
    assert ["factors[0]", "a,b\nc"] in rows and all(len(row) == 2 for row in rows)


def _naive_csv_rows(value, prefix, rows):
    """The key/value rows of a JSON report's results, as ``--csv`` flattens them."""
    if isinstance(value, dict):
        for key in sorted(value):
            _naive_csv_rows(value[key], f"{prefix}.{key}" if prefix else key, rows)
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            _naive_csv_rows(item, f"{prefix}[{idx}]", rows)
    else:
        rows.append(f"{prefix},{'' if value is None else value}\n")
    return rows


_SHIPPED_RUNS = [
    *((command, scenario) for command in ("validate", "spectrum", "hodge", "identities")
      for scenario in ("chain.json", "random-complex.json")),
    ("tensor", "chain-product.json"),
    ("joint", "joint-pair.json"),
    ("symbolic", "symbolic-ap-pair.json"),
    ("dbar", "bidisc.json"),
    ("dbar-n", "bidisc.json"),
    ("dbar-n", "riemann-triple.json"),
]


@pytest.mark.parametrize("command, scenario", _SHIPPED_RUNS)
def test_csv_of_shipped_scenarios_keeps_its_bytes(tmp_path, command, scenario):
    # no shipped field needs quoting, so each row is still "key,value"
    report, table = tmp_path / "report.json", tmp_path / "report.csv"
    assert main([command, str(SCENARIOS / scenario), "--out", str(report)]) in (0, 1)
    assert main([command, str(SCENARIOS / scenario), "--csv", "--out", str(table)]) in (0, 1)
    results = json.loads(report.read_text(encoding="utf-8"))["results"]
    expected = "key,value\n" + "".join(_naive_csv_rows(results, "", []))
    assert table.read_text(encoding="utf-8") == expected


def test_tol_flag_changes_outcome(capsys):
    # with an absurdly tight tolerance the tiny cochain residuals of a random
    # complex are flagged
    code, report = run_cli(
        capsys, "validate", SCENARIOS / "random-complex.json", "--tol", "1e-30"
    )
    assert code == 1 and not report["pass"]


def test_max_dim_guard(capsys):
    code = main(["tensor", str(SCENARIOS / "chain-product.json"), "--max-dim", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "SizeOverflowError" in err


def test_joint_max_dim_guard(capsys):
    # the tensored pair of the two 2 x 2 factors is 4 x 4
    code = main(["joint", str(SCENARIOS / "joint-pair.json"), "--max-dim", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "SizeOverflowError" in err


@pytest.mark.parametrize(
    "command, entry",
    [
        # 1e308 is a finite entry, but the Laplacian d* d overflows to Inf;
        # the eigen gate's NonFiniteError is the only output, with no warning
        pytest.param("spectrum", 1e308, id="spectrum"),
        pytest.param("hodge", 1e308, id="hodge"),
        pytest.param("identities", 1e308, id="identities"),
        pytest.param("tensor", 1e308, id="tensor"),
        # 1e-320 is nonzero above its rank cutoff, but its reciprocal overflows
        pytest.param("identities", 1e-320, id="identities-subnormal"),
    ],
)
def test_non_finite_intermediates_exit_2(tmp_path, capsys, command, entry):
    factor = {"lo": 0, "dims": [1, 1], "differentials": {"0": [[[entry, 0.0]]]}}
    if command == "tensor":
        doc = {"version": "1", "kind": "finite-pair", "payload": {"left": factor, "right": factor}}
    else:
        doc = {"version": "1", "kind": "finite-complex", "payload": factor}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "NonFiniteError" in err and "Warning" not in err


_OVERFLOWING = {
    # d o d of these entries overflows: to NaN where Inf meets -Inf, else to Inf
    "nan": {"dims": [2, 2, 1], "differentials": {"0": [[1e300, 1e300], [1e300, 1e300]], "1": [[1e300, -1e300]]}},
    "inf": {"dims": [1, 2, 1], "differentials": {"0": [[1e300], [1e300]], "1": [[1e300, 1e300]]}},
}


@pytest.mark.parametrize(
    "command, payload",
    [
        pytest.param("validate", _OVERFLOWING["nan"], id="validate-nan"),
        pytest.param("validate", _OVERFLOWING["inf"], id="validate-inf"),
        pytest.param("tensor", {"left": _OVERFLOWING["nan"], "right": _OVERFLOWING["inf"]}, id="tensor"),
    ],
)
def test_overflowing_cochain_composite_exits_2(tmp_path, capsys, command, payload):
    # no RuntimeWarning (an error under the suite's filter) and no report
    kind = "finite-pair" if command == "tensor" else "finite-complex"
    path, out = tmp_path / "huge.json", tmp_path / "report.json"
    path.write_text(json.dumps({"version": "1", "kind": kind, "payload": payload}))
    code = main([command, str(path), "--out", str(out)])
    assert code == 2
    assert "NonFiniteError: d o d overflows at degree 0" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_joint_pair_exits_2(tmp_path, capsys):
    # the normality residual of t is Inf - Inf: NonFiniteError, no warning
    t = [[1e300, 1e300], [1e300, 1e300]]
    s = [[1e300, -1e300], [-1e300, 1e300]]
    path, out = tmp_path / "huge.json", tmp_path / "report.json"
    path.write_text(json.dumps({"version": "1", "kind": "finite-pair", "payload": {"t": t, "s": s}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["joint", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "NonFiniteError: the normality residual of the first matrix overflows\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [(), ("--csv",)], ids=["json", "csv"])
def test_hodge_with_nan_residuals_does_not_pass(monkeypatch, tmp_path, capsys, flags):
    # the CSV flattens the JSON text, so both refuse to print the NaN (exit 2)
    monkeypatch.setattr(
        complexes, "_projector_residuals", lambda *projectors: {"sum_minus_identity": math.nan, "pairwise_products": 0.0}
    )
    out = tmp_path / "report"
    code = main(["hodge", str(SCENARIOS / "chain.json"), "--out", str(out), *flags])
    assert code == 2
    assert capsys.readouterr().err == "UnprintableResultError: a result is NaN\n"
    assert not out.exists()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "1", "kind": "finite-complex"}')
    code = main(["validate", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize("bad", ["x", 0.5, True])
@pytest.mark.parametrize(
    "command, scenario, field",
    [
        ("dbar", "bidisc.json", "p"),
        ("dbar", "bidisc.json", "q"),
        ("dbar-n", "riemann-triple.json", "q"),
    ],
)
def test_dbar_degrees_must_be_integers(tmp_path, capsys, command, scenario, field, bad):
    doc = json.loads((SCENARIOS / scenario).read_text())
    doc["payload"][field] = bad
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: $.payload.{field}:" in err


def _edited_scenario(tmp_path, scenario, keys, value) -> Path:
    """A copy of a shipped scenario with the entry at ``keys`` set to ``value``."""
    doc = json.loads((SCENARIOS / scenario).read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


_MYSTERY_FACTOR = {"name": "mystery", "complex_dimension": 1, "closed_range": True}


@pytest.mark.parametrize(
    "command, scenario, keys, bad, json_path",
    [
        pytest.param(
            "symbolic", "symbolic-ap-pair.json", ["payload", "a", "atoms", 0],
            {"kind": "point", "value": True}, "$.payload.a.atoms[0].value", id="point-value",
        ),
        pytest.param(
            "symbolic", "symbolic-ap-pair.json", ["payload", "a", "atoms", 0, "step"],
            True, "$.payload.a.atoms[0].step", id="step",
        ),
        pytest.param(
            "symbolic", "symbolic-ap-pair.json", ["payload", "a", "atoms", 0, "mult"],
            True, "$.payload.a.atoms[0].mult", id="mult",
        ),
        pytest.param(
            "validate", "random-complex.json", ["payload", "random", "dims"],
            [True, 2], "$.payload.random.dims", id="random-dims",
        ),
        pytest.param(
            "validate", "random-complex.json", ["payload", "random", "seed"],
            False, "$.payload.random.seed", id="random-seed",
        ),
        pytest.param(
            "validate", "random-complex.json", ["payload", "random", "lo"],
            True, "$.payload.random.lo", id="random-lo",
        ),
        pytest.param(
            "validate", "chain.json", ["payload", "dims"], [True, 1], "$.payload.dims", id="dims",
        ),
        pytest.param("validate", "chain.json", ["payload", "lo"], False, "$.payload.lo", id="lo"),
        pytest.param(
            "validate", "chain.json", ["payload", "differentials", "0", 0, 0],
            True, "$.payload.differentials.0[0][0]", id="matrix-entry",
        ),
        pytest.param(
            "validate", "random-complex.json", ["rng_seed"], True, "$.rng_seed", id="rng-seed",
        ),
        pytest.param(
            "dbar", "bidisc.json", ["payload", "factors", 0],
            {**_MYSTERY_FACTOR, "complex_dimension": True},
            "$.payload.factors[0].complex_dimension", id="complex-dimension",
        ),
        pytest.param(
            "dbar", "bidisc.json", ["payload", "factors", 0],
            {**_MYSTERY_FACTOR, "bergman_dim": True},
            "$.payload.factors[0].bergman_dim", id="bergman-dim",
        ),
    ],
)
def test_json_booleans_are_not_integers(tmp_path, capsys, command, scenario, keys, bad, json_path):
    path = _edited_scenario(tmp_path, scenario, keys, bad)
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: {json_path}:" in err


@pytest.mark.parametrize(
    "command, scenario, keys, bad, error",
    [
        pytest.param(
            "joint", "joint-pair.json", ["payload", "s"], [[3.0]],
            "PairShapeError: size mismatch", id="joint-size-mismatch",
        ),
        pytest.param(
            "joint", "joint-pair.json", ["payload", "t"], [[1.0, 0.0]],
            "PairShapeError: both matrices must be square", id="joint-non-square",
        ),
        pytest.param(
            "joint", "joint-pair.json", ["payload", "t", 0, 0], 10**399,
            "ParseError: $.payload.t[0][0]: integer beyond float range", id="joint-huge-integer",
        ),
        pytest.param(
            "joint", "joint-pair.json", ["payload", "s", 1, 1], [4.0, -(10**399)],
            "ParseError: $.payload.s[1][1]: integer beyond float range", id="joint-huge-imaginary",
        ),
        pytest.param(
            "validate", "chain.json", ["payload", "differentials", "0", 0, 0], 10**399,
            "ParseError: $.payload.differentials.0[0][0]: integer beyond float range",
            id="validate-huge-integer",
        ),
    ],
)
def test_malformed_matrices_exit_2(tmp_path, capsys, command, scenario, keys, bad, error):
    path = _edited_scenario(tmp_path, scenario, keys, bad)
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert error in err


@pytest.mark.parametrize("bad", [[["0,0"]], "0,0"], ids=["array", "string"])
@pytest.mark.parametrize(
    "command, scenario, keys, base, field, json_path",
    [
        pytest.param(
            "dbar", "bidisc.json", ["payload", "factors", 0], _MYSTERY_FACTOR, "box_spectrum",
            "$.payload.factors[0].box_spectrum", id="box-spectrum",
        ),
        pytest.param(
            "dbar", "bidisc.json", ["payload", "factors", 0], _MYSTERY_FACTOR, "cohomology_dim",
            "$.payload.factors[0].cohomology_dim", id="cohomology-dim",
        ),
        pytest.param(
            "validate", "chain.json", ["payload"], {"lo": 0, "dims": [1, 1]}, "differentials",
            "$.payload.differentials", id="differentials",
        ),
    ],
)
def test_non_object_fields_exit_2(tmp_path, capsys, command, scenario, keys, base, field, json_path, bad):
    path = _edited_scenario(tmp_path, scenario, keys, {**base, field: bad})
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: {json_path}: expected an object" in err


@pytest.mark.parametrize("spelling", ["00,0", " 0 ,0", "+0,0", "0_0,0", "0,0 ", "0,-0", "\u0660,0"])
@pytest.mark.parametrize(
    "field, first, second",
    [
        pytest.param(
            "box_spectrum",
            {"spectrum": {"atoms": [{"kind": "point", "value": "1"}]}},
            {"spectrum": {"atoms": [{"kind": "point", "value": "2"}]}},
            id="box-spectrum",
        ),
        pytest.param("cohomology_dim", 1, "unknown", id="cohomology-dim"),
    ],
)
def test_noncanonical_bidegree_keys_exit_2(tmp_path, capsys, field, first, second, spelling):
    # another spelling of (0, 0) would silently replace the "0,0" entry
    factor = {**_MYSTERY_FACTOR, field: {"0,0": first, spelling: second}}
    code = main(["dbar", str(_edited_scenario(tmp_path, "bidisc.json", ["payload", "factors", 0], factor))])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: $.payload.factors[0].{field}: bidegree keys look like 'p,q'; got {spelling!r}" in err


def test_complex_dimension_above_the_cap_exits_2_before_any_grid(tmp_path, capsys):
    factor = {**_MYSTERY_FACTOR, "complex_dimension": dbar.MAX_COMPLEX_DIMENSION + 1}
    code = main(["dbar", str(_edited_scenario(tmp_path, "bidisc.json", ["payload", "factors", 0], factor))])
    assert code == 2
    assert "ParseError: $.payload.factors[0]: complex dimension must lie in [1, 31]" in capsys.readouterr().err
    start = time.perf_counter()
    with pytest.raises(dbar.BadDimensionError):
        dbar.DbarFactorModel(name="huge", complex_dimension=10**9)
    assert time.perf_counter() - start < 0.1
    # the cap itself is accepted: two such factors have 32^2 splittings
    at_cap = {**_MYSTERY_FACTOR, "complex_dimension": dbar.MAX_COMPLEX_DIMENSION}
    path = _dbar_scenario(tmp_path, [at_cap, at_cap], p=31, q=31)
    code, report = run_cli(capsys, "dbar", path)
    assert code == 0 and report["results"]["verdict"] == "undecidable"


def _union_with_empty(tmp_path, atoms) -> Path:
    """A ``symbolic`` union scenario of a set with these atoms and the empty set."""
    doc = {
        "version": "1",
        "kind": "spectral-model",
        "payload": {"operation": "union", "a": {"atoms": atoms}, "b": {"atoms": []}},
    }
    path = tmp_path / "union.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "atom, error",
    [
        pytest.param(
            {"kind": "point", "value": "-1/2"},
            "$.payload.a.atoms[1]: spectral values must be nonnegative", id="negative-value",
        ),
        pytest.param(
            {"kind": "ap", "base": "-1", "step": "1"},
            "$.payload.a.atoms[1]: progression base must be nonnegative", id="negative-base",
        ),
        pytest.param(
            {"kind": "ap", "base": "0", "step": "0"},
            "$.payload.a.atoms[1]: progression step must be positive", id="zero-step",
        ),
        pytest.param(
            {"kind": "ap", "base": "0", "step": "-3/2"},
            "$.payload.a.atoms[1]: progression step must be positive", id="negative-step",
        ),
        pytest.param(
            {"kind": "ap", "base": "-1", "step": "x"},
            "$.payload.a.atoms[1].step: bad rational 'x'", id="bad-step-before-base",
        ),
        pytest.param(
            {"kind": "blob"},
            "$.payload.a.atoms[1].kind: expected 'point' or 'ap', got 'blob'", id="unknown-kind",
        ),
        pytest.param(
            {"kind": "point", "value": "1/0"},
            "$.payload.a.atoms[1].value: bad rational '1/0'", id="zero-denominator",
        ),
        pytest.param(
            {"kind": "point", "value": "1", "mult": 0},
            "$.payload.a.atoms[1].mult: expected a positive integer or 'inf', got 0", id="zero-mult",
        ),
        pytest.param(
            {"kind": "blob", "mult": "2"},
            "$.payload.a.atoms[1].mult: expected a positive integer or 'inf', got '2'",
            id="mult-before-kind",
        ),
        pytest.param(
            {"kind": "point"},
            "$.payload.a.atoms[1].value: expected an integer or 'p/q' string, got None",
            id="missing-value",
        ),
    ],
)
def test_malformed_atoms_name_their_path(tmp_path, capsys, atom, error):
    # the atom checks run in the parser, so each keeps its JSON path and text
    path = _union_with_empty(tmp_path, [{"kind": "point", "value": "0"}, atom])
    code = main(["symbolic", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"ParseError: {error}\n"


@pytest.mark.parametrize(
    "text", ["1e-5000", "1e3000000", "1e-3000000", "9" * 4301 + "e0", "1/1" + "0" * 4300]
)
def test_rationals_beyond_the_printable_digits_exit_2(tmp_path, capsys, text):
    path = _union_with_empty(tmp_path, [{"kind": "ap", "base": text, "step": "1"}])
    start = time.process_time()
    code = main(["symbolic", str(path)])
    elapsed = time.process_time() - start
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError: $.payload.a.atoms[0].base: ")
    assert elapsed < 0.5  # the exponent is checked before the number is built


@pytest.mark.parametrize(
    "text, shown",
    [
        ("0.5", "1/2"),
        (" 3/2 ", "3/2"),
        ("1_000", "1000"),
        ("1e6", "1000000"),
        ("25e-2", "1/4"),
        ("-0", "0"),
        ("1e4000", "1" + "0" * 4000),
        ("0e3000000", "0"),
    ],
)
def test_accepted_rational_forms(tmp_path, capsys, text, shown):
    path = _union_with_empty(tmp_path, [{"kind": "point", "value": text}])
    code, report = run_cli(capsys, "symbolic", path)
    assert code == 0
    assert report["results"]["result"]["atoms"] == [{"kind": "point", "value": shown, "mult": 1}]


def test_dbar_undecidable_with_partial_data(tmp_path, capsys):
    scenario = {
        "version": "1",
        "kind": "dbar-factors",
        "payload": {
            "factors": [
                {"name": "mystery", "complex_dimension": 1, "closed_range": True},
                {"builtin": "abstract-compact-factor"},
            ],
            "p": 0,
            "q": 0,
        },
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(scenario))
    code, report = run_cli(capsys, "dbar", path)
    assert code == 0
    assert report["results"]["verdict"] == "undecidable"
    assert report["results"]["spectrum"] is None


def _zero_factor(name, mult) -> dict:
    """A one-dimensional factor that is {0} with ``mult`` at every bidegree."""
    zero = {"spectrum": {"atoms": [{"kind": "point", "value": "0", "mult": mult}]}}
    return {
        "name": name,
        "complex_dimension": 1,
        "closed_range": True,
        "bergman_dim": mult,
        "box_spectrum": {key: zero for key in ("0,0", "0,1", "1,0", "1,1")},
    }


def _dbar_scenario(tmp_path, factors, **degrees) -> Path:
    path = tmp_path / "factors.json"
    payload = {"factors": factors, **degrees}
    path.write_text(json.dumps({"version": "1", "kind": "dbar-factors", "payload": payload}))
    return path


def test_kernel_only_product_is_compact_in_both_reports(tmp_path, capsys):
    # {0:inf} (x) {0:1}: the essential spectrum {0:inf} is a kernel, on
    # which N is 0, so both reports say compact
    factors = [_zero_factor("heavy-kernel", "inf"), _zero_factor("point-kernel", 1)]
    kernel = {"atoms": [{"kind": "point", "value": "0", "mult": "inf"}]}
    code, report = run_cli(capsys, "dbar", _dbar_scenario(tmp_path, factors, p=0, q=0))
    assert code == 0
    assert report["results"]["verdict"] == "compact"
    assert report["results"]["essential"] == kernel
    assert report["results"]["essential_spectrum"] == kernel
    code, report = run_cli(capsys, "dbar-n", _dbar_scenario(tmp_path, factors, q=0))
    assert code == 0
    assert report["results"]["verdict"] == "compact"
    assert report["results"]["essential_spectrum"] == kernel


@pytest.mark.parametrize(
    "atom, verdict, rule",
    [
        ({"kind": "point", "value": "0", "mult": 1}, "undecidable", "unknown-factor-data"),
        ({"kind": "ap", "base": "1", "step": "1"}, "non-compact", "infinite-bergman-space"),
    ],
    ids=["zero-entry", "positive-entry"],
)
def test_bergman_shortcut_skips_entries_within_zero(tmp_path, capsys, atom, verdict, rule):
    # the shortcut's term pairs the Bergman kernel with the other factor's
    # (0, 1) entry; an entry within {0} keeps that term within {0}
    heavy = {"name": "heavy-unknown", "complex_dimension": 1, "closed_range": True, "bergman_dim": "inf"}
    other = {
        "name": "other",
        "complex_dimension": 1,
        "closed_range": True,
        "box_spectrum": {"0,1": {"spectrum": {"atoms": [atom]}}},
    }
    code, report = run_cli(capsys, "dbar", _dbar_scenario(tmp_path, [heavy, other], p=0, q=1))
    assert code == 0
    assert (report["results"]["verdict"], report["results"]["fired_rule"]) == (verdict, rule)


@pytest.mark.parametrize("command, degrees", [("dbar", {"p": 0, "q": 1}), ("dbar-n", {"q": 1})])
def test_a_null_box_entry_reads_as_an_omitted_one(tmp_path, capsys, command, degrees):
    omitted = _zero_factor("partial", 1)
    del omitted["box_spectrum"]["0,1"]
    null = {**omitted, "box_spectrum": {**omitted["box_spectrum"], "0,1": None}}
    model = parse_factor_model(null, "$.payload.factors[0]")
    assert model.box_spectrum[(0, 1)] is None and model.box_spectrum[(0, 0)] is not None
    assert model == parse_factor_model(omitted, "$.payload.factors[0]")
    results = []
    for factor in (null, omitted):
        code, report = run_cli(capsys, command, _dbar_scenario(tmp_path, [factor, _zero_factor("other", 1)], **degrees))
        results.append((code, report["results"]))
    assert results[0] == results[1]
    assert results[0][1]["fired_rule"] == "unknown-factor-data"


def test_module_error_is_surfaced_by_name(tmp_path, capsys):
    noncommuting = {
        "version": "1",
        "kind": "finite-pair",
        "payload": {
            "t": [[0.0, 1.0], [1.0, 0.0]],
            "s": [[1.0, 0.0], [0.0, 2.0]],
        },
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(noncommuting))
    code = main(["joint", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "NotCommutingError" in err


@pytest.mark.parametrize(
    "make, error",
    [
        pytest.param(lambda path: None, "cannot read the file", id="missing"),
        pytest.param(lambda path: path.mkdir(), "cannot read the file", id="directory"),
        pytest.param(
            lambda path: path.write_bytes(b'{"version": "\xff"}'), "unreadable JSON: 'utf-8' codec",
            id="non-utf8",
        ),
        pytest.param(
            lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
            "unreadable JSON: maximum recursion depth",
            id="deep-nesting",
        ),
    ],
)
def test_unreadable_scenario_exits_2(tmp_path, capsys, make, error):
    path = tmp_path / "scenario.json"
    make(path)
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: {path}: {error}" in err
    # the message names the path as pathlib spells it
    assert main(["validate", f"{tmp_path}//./scenario.json"]) == 2
    assert f"ParseError: {path}: {error}" in capsys.readouterr().err


_TWICE_IN_BOX = (
    '{"version": "1", "kind": "dbar-factors", "payload": {"p": 0, "q": 0, "factors": ['
    '{"name": "twice", "complex_dimension": 1, "closed_range": true, "box_spectrum": {'
    '"0,0": {"spectrum": {"atoms": [{"kind": "point", "value": "1"}]}}, '
    '"0,0": {"spectrum": {"atoms": [{"kind": "point", "value": "2"}]}}}}, '
    '{"builtin": "gaussian-weight-line"}]}}'
)


@pytest.mark.parametrize(
    "command, text, key",
    [
        pytest.param("dbar", _TWICE_IN_BOX, "0,0", id="box-spectrum"),
        pytest.param(
            "dbar",
            '{"version": "1", "kind": "dbar-factors", "payload": {"p": 0, "q": 0, "q": 1, "factors": ['
            '{"builtin": "infinite-bergman-factor"}, {"builtin": "infinite-bergman-factor"}]}}',
            "q",
            id="payload",
        ),
        pytest.param(
            "symbolic",
            '{"version": "1", "kind": "spectral-model", "payload": {"operation": "essential", '
            '"a": {"atoms": [{"kind": "point", "value": "1", "mult": "inf", "value": "2"}]}}}',
            "value",
            id="atom",
        ),
        pytest.param("symbolic", '{"kind": "x", "version": "1", "kind": "spectral-model"}', "kind", id="document"),
    ],
)
def test_repeated_json_keys_exit_2(tmp_path, capsys, command, text, key):
    # plain json.loads keeps the last of two equal keys, so the first entry would be dropped unseen
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: {path}: repeated key {key!r} in one JSON object" in err


@pytest.mark.parametrize(
    "text, key, json_path",
    [
        ('{"version": "1", "version": "1", "kind": "dbar-factors", "payload": {}}', "version", "$"),
        (
            '{"version": "1", "kind": "dbar-factors", "payload": {"q": 0, "factors": [], "q": 1}}',
            "q",
            "$.payload",
        ),
        (
            '{"version": "1", "kind": "dbar-factors", "payload": {"q": 1, "factors": [{"builtin": '
            '"infinite-bergman-factor"}, {"name": "x", "complex_dimension": 1, "box_spectrum": '
            '{"0,0": null, "0,1": null, "0,0": {"spectrum": {"atoms": []}}}}]}}',
            "0,0",
            "$.payload.factors[1].box_spectrum",
        ),
    ],
    ids=["document", "payload", "box-spectrum"],
)
def test_a_repeated_key_is_named_by_its_json_path(tmp_path, capsys, text, key, json_path):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["dbar-n", str(path)]) == 2
    assert capsys.readouterr().err == f"ParseError: {path}: repeated key {key!r} in one JSON object at {json_path}\n"


def test_a_repeated_key_before_broken_json_keeps_the_plain_message(tmp_path, capsys):
    # the first read stops at the repeated key; the path needs the whole text
    path = tmp_path / "scenario.json"
    path.write_text('{"payload": {"q": 0, "q": 1}, "kind": ')
    assert main(["dbar-n", str(path)]) == 2
    assert capsys.readouterr().err == f"ParseError: {path}: repeated key 'q' in one JSON object\n"


def test_the_scenario_file_is_read_once_and_digested(tmp_path, capsys, monkeypatch):
    # CRLF line ends: the digest hashes the bytes read, not the decoded text
    path = tmp_path / "scenario.json"
    path.write_bytes((SCENARIOS / "symbolic-ap-pair.json").read_bytes().replace(b"\n", b"\r\n"))
    opened, original = [], Path.open

    def counted(self, *args, **kwargs):  # read_text and read_bytes open through it
        opened.append(self == path)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counted)
    code, report = run_cli(capsys, "symbolic", path, "--oracle-cutoff", "7/2")
    monkeypatch.undo()
    assert code == 0 and opened.count(True) == 1
    flags = json.dumps({"oracle_cutoff": "7/2"}, sort_keys=True).encode("utf-8")
    assert report["inputs_digest"] == hashlib.sha256(path.read_bytes() + b"\x00" + flags).hexdigest()


@pytest.mark.parametrize(
    "payload, json_path",
    [
        pytest.param({"random": {"dims": [3, 10**399], "seed": 1}}, "$.payload.random.dims[1]", id="random"),
        pytest.param({"dims": [1, 10**30]}, "$.payload.dims[1]", id="explicit"),
        pytest.param({"dims": [1, 4097]}, "$.payload.dims[1]", id="explicit-cap-plus-one"),
    ],
)
def test_degree_dimensions_are_capped(tmp_path, capsys, payload, json_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"version": "1", "kind": "finite-complex", "payload": payload}))
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: {json_path}: dimension exceeds the cap 4096" in err


@pytest.mark.parametrize(
    "command, kind, payload, error",
    [
        pytest.param(
            "validate", "finite-complex", {"random": {"dims": [1] * 65, "seed": 1}},
            "ParseError: $.payload.random.dims: 65 degrees exceed the cap 64", id="degrees",
        ),
        pytest.param(
            "validate", "finite-complex", {"dims": [4096, 4096, 4096]},
            "ParseError: $.payload.dims: the differentials would hold more than 4096**2 entries",
            id="entries",
        ),
        pytest.param(
            "tensor", "finite-pair",
            {"left": {"random": {"dims": [1] * 64, "seed": 1}}, "right": {"random": {"dims": [64] * 64, "seed": 2}}},
            "SizeOverflowError: product differentials of 715653120 entries exceed the cap 4096**2",
            id="product-entries",
        ),
    ],
)
def test_complex_sizes_are_capped_in_all(tmp_path, capsys, command, kind, payload, error):
    # each degree is within the cap, but the whole would exhaust memory
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"version": "1", "kind": kind, "payload": payload}))
    start = time.perf_counter()
    code = main([command, str(path)])
    elapsed = time.perf_counter() - start
    assert code == 2 and error in capsys.readouterr().err
    assert elapsed < 1.0


@pytest.mark.parametrize("spelling", ["00", "+0", " 0", "0 ", "0_0", "-0", "\u0660"])
def test_noncanonical_degree_keys_exit_2(tmp_path, capsys, spelling):
    # another spelling of degree 0 would silently replace the "0" entry
    payload = {"dims": [1, 1], "differentials": {"0": [[1.0]], spelling: [[2.0]]}}
    path = tmp_path / "keys.json"
    path.write_text(json.dumps({"version": "1", "kind": "finite-complex", "payload": payload}))
    code = main(["spectrum", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: $.payload.differentials: keys are integer degrees like '0' or '-1'; got {spelling!r}" in err


@pytest.mark.parametrize("key", ["0", "-1", "12"])
def test_canonical_degree_keys_are_accepted(tmp_path, capsys, key):
    payload = {"lo": int(key), "dims": [1, 1], "differentials": {key: [[2.0]]}}
    path = tmp_path / "keys.json"
    path.write_text(json.dumps({"version": "1", "kind": "finite-complex", "payload": payload}))
    code, report = run_cli(capsys, "spectrum", path)
    assert code == 0
    assert report["results"]["degrees"] == {key: [4.0], str(int(key) + 1): [4.0]}


@pytest.mark.parametrize(
    "argv, error",
    [
        pytest.param(["fuzz", "symbolic-ap-pair.json", "--cases", "-3"], "--cases:", id="cases-negative"),
        pytest.param(["fuzz", "symbolic-ap-pair.json", "--cases", "0"], "--cases:", id="cases-zero"),
        pytest.param(["fuzz", "symbolic-ap-pair.json", "--cases", "10001"], "--cases:", id="cases-cap-plus-one"),
        pytest.param(
            ["symbolic", "symbolic-ap-pair.json", "--oracle-cutoff=-5"], "--oracle-cutoff:",
            id="cutoff-negative",
        ),
        pytest.param(
            ["fuzz", "symbolic-ap-pair.json", "--oracle-cutoff", "0"], "--oracle-cutoff:",
            id="fuzz-cutoff-zero",
        ),
        pytest.param(["validate", "chain.json", "--tol", "-1"], "--tol:", id="tol-negative"),
        pytest.param(["validate", "random-complex.json", "--tol", "nan"], "--tol:", id="tol-nan"),
        pytest.param(["tensor", "chain-product.json", "--tol", "inf"], "--tol:", id="tol-inf"),
    ],
)
def test_flag_ranges_exit_2(capsys, argv, error):
    command, scenario, *flags = argv
    code = main([command, str(SCENARIOS / scenario), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: {error}" in err


@pytest.mark.parametrize(
    "argv, keys, source",
    [
        pytest.param(["fuzz", "joint-pair.json", "--seed", "-1"], None, "--seed", id="flag"),
        pytest.param(["fuzz", "symbolic-ap-pair.json"], ["rng_seed"], "$.rng_seed", id="rng-seed"),
        pytest.param(
            ["validate", "random-complex.json"], ["payload", "random", "seed"],
            "$.payload.random.seed", id="random-seed",
        ),
    ],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv, keys, source):
    command, scenario, *flags = argv
    path = SCENARIOS / scenario if keys is None else _edited_scenario(tmp_path, scenario, keys, -1)
    code = main([command, str(path), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: {source}: expected a nonnegative integer seed, got -1" in err


def _symbolic_scenario(tmp_path, a_atoms, b_atoms, operation="minkowski") -> Path:
    path = tmp_path / "sum.json"
    payload = {"operation": operation, "a": {"atoms": a_atoms}, "b": {"atoms": b_atoms}}
    path.write_text(json.dumps({"version": "1", "kind": "spectral-model", "payload": payload}))
    return path


@pytest.mark.parametrize("csv", [False, True], ids=["json", "csv"])
@pytest.mark.parametrize(
    "a, b",
    [("9" * 4300, "9" * 4300), ("1/" + "9" * 4300, "1/" + "9" * 4299 + "7")],
    ids=["numerator", "denominator"],
)
def test_unprintable_result_exits_2_before_writing(tmp_path, capsys, a, b, csv):
    # both operands parse, but their sum has a 4,301-digit numerator or an
    # 8,600-digit denominator, which no report can print
    path = _symbolic_scenario(
        tmp_path, [{"kind": "point", "value": a}], [{"kind": "point", "value": b}]
    )
    out = tmp_path / "report.txt"
    code = main(["symbolic", str(path), "--out", str(out)] + ["--csv"] * csv)
    assert code == 2
    assert "UnprintableResultError: a result has a rational beyond 4300 digits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("csv", [False, True], ids=["json", "csv"])
def test_unprintable_multiplicity_exits_2_before_writing(tmp_path, capsys, csv):
    # both multiplicities parse, but their product has 6,000 digits, which
    # str refuses; the report must fail as unprintable, not with a traceback
    nines = int("9" * 3000)
    path = _symbolic_scenario(
        tmp_path, [{"kind": "point", "value": "1", "mult": nines}], [{"kind": "point", "value": "2", "mult": nines}]
    )
    out = tmp_path / "report.txt"
    code = main(["symbolic", str(path), "--out", str(out)] + ["--csv"] * csv)
    assert code == 2
    assert "UnprintableResultError: a result has an integer beyond 4300 digits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "atom", [{"kind": "point", "value": "1"}, {"kind": "ap", "base": "1", "step": "1"}], ids=["point", "ap"]
)
def test_infinite_and_huge_multiplicities_merge_to_infinite(tmp_path, capsys, atom):
    # INFINITE plus a 401-digit int overflows float addition; the merge is INFINITE
    huge = 10**400
    path = _symbolic_scenario(tmp_path, [{**atom, "mult": "inf"}, {**atom, "mult": huge}], [], operation="union")
    code, report = run_cli(capsys, "symbolic", path)
    assert code == 0
    assert report["results"]["result"]["atoms"] == [{**atom, "mult": "inf"}]


def test_oracle_budget_exits_2(tmp_path, capsys):
    sixths = [{"kind": "ap", "base": "0", "step": "1/6", "mult": 1}]
    path = _symbolic_scenario(tmp_path, sixths, sixths)
    code = main(["symbolic", str(path), "--oracle-cutoff", "100000"])
    err = capsys.readouterr().err
    assert code == 2
    assert (
        "OracleBudgetError: the oracle would enumerate 360000000000 value pairs "
        "below the cutoff, above the cap 1048576"
    ) in err


@pytest.mark.parametrize("cutoff", [None, "1/100"])
def test_symbolic_gap_budget_exits_2(tmp_path, capsys, cutoff):
    a = [{"kind": "ap", "base": "0", "step": "1/997", "mult": 1}]
    b = [{"kind": "ap", "base": "0", "step": "1/991", "mult": 1}]
    path = _symbolic_scenario(tmp_path, a, b)
    start = time.perf_counter()
    code = main(["symbolic", str(path), *(["--oracle-cutoff", cutoff] if cutoff else [])])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert (
        "SymbolicBudgetError: the Minkowski sum would expand 986040 Frobenius gap values, "
        "above the budget 65536"
    ) in err


def _factors_scenario(tmp_path, count, q) -> Path:
    path = tmp_path / "factors.json"
    factors = [{"builtin": "infinite-bergman-factor"}] * count
    payload = {"factors": factors, "q": q}
    path.write_text(json.dumps({"version": "1", "kind": "dbar-factors", "payload": payload}))
    return path


@pytest.mark.parametrize("count", [0, 1])
def test_dbar_n_with_fewer_than_two_factors_exits_2(tmp_path, capsys, count):
    code = main(["dbar-n", str(_factors_scenario(tmp_path, count, 0))])
    err = capsys.readouterr().err
    assert code == 2
    assert f"TooFewFactorsError: the product report needs at least two factors, got {count}" in err


@pytest.mark.parametrize("q", [0, 40])
def test_dbar_n_forty_factors_at_the_end_degrees(tmp_path, capsys, q):
    path = _factors_scenario(tmp_path, 40, q)
    start = time.perf_counter()
    code, report = run_cli(capsys, "dbar-n", path)
    assert time.perf_counter() - start < 2.0
    assert code == 0 and report["results"]["q"] == q


def test_dbar_n_bit_vector_budget_exits_2(tmp_path, capsys):
    code = main(["dbar-n", str(_factors_scenario(tmp_path, 40, 20))])
    err = capsys.readouterr().err
    assert code == 2
    assert "BitVectorBudgetError: 40 factors have 137846528820 bit vectors of weight 20" in err


def test_points_only_oracle_at_a_huge_cutoff(tmp_path, capsys):
    a = [{"kind": "point", "value": v, "mult": m} for v, m in (("0", 2), ("1/2", "inf"), ("7/3", 3))]
    b = [{"kind": "point", "value": v, "mult": m} for v, m in (("1/6", 1), ("5", 4))]
    path = _symbolic_scenario(tmp_path, a, b)
    start = time.perf_counter()
    code, report = run_cli(capsys, "symbolic", path, "--oracle-cutoff", "1000000000")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and report["pass"]
    assert report["results"]["oracle"] == {"cutoff": "1000000000", "passed": True}


def test_symbolic_builds_each_sum_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return minkowski_sum(a, b)

    monkeypatch.setattr(spectra, "minkowski_sum", counting)
    monkeypatch.setattr(cli, "minkowski_sum", counting)
    points = [{"kind": "point", "value": "1/2", "mult": 2}]
    for path in (SCENARIOS / "symbolic-ap-pair.json", _symbolic_scenario(tmp_path, points, points)):
        calls.clear()
        code, report = run_cli(capsys, "symbolic", path, "--oracle-cutoff", "100")
        assert code == 0 and report["results"]["oracle"]["passed"]
        assert len(calls) == 1


def _random_pair_scenario(tmp_path, p, q) -> Path:
    rnd = random.Random(12)
    factors = [
        {
            "name": name,
            "complex_dimension": 1,
            "closed_range": True,
            "bergman_dim": json.loads(dump_report(model.bergman_dim)),
            "box_spectrum": {
                f"{a},{b}": json.loads(dump_report({"spectrum": entry.spectrum, "essential": None}))
                for (a, b), entry in model.box_spectrum.items()
            },
        }
        for name, model in ((name, random_factor_model(rnd, name)) for name in ("x", "y"))
    ]
    directory = tmp_path / f"p{p}q{q}"
    directory.mkdir()
    return _dbar_scenario(directory, factors, p=p, q=q)


def test_dbar_folds_once(tmp_path, monkeypatch, capsys):
    # the verdict, the spectrum and the essential spectrum of one dbar report
    # come from one product_operator fold over the splittings
    calls = []

    def counting(a, b):
        calls.append(1)
        return minkowski_sum(a, b)

    monkeypatch.setattr(spectra, "minkowski_sum", counting)
    monkeypatch.setattr(dbar, "minkowski_sum", counting)
    paths = [SCENARIOS / "bidisc.json"]
    paths += [_random_pair_scenario(tmp_path, p, q) for p in range(3) for q in range(3)]
    for path in paths:
        payload = json.loads(path.read_text())["payload"]
        x, y = (parse_factor_model(f, "factor") for f in payload["factors"])
        splits = dbar._splittings((1, 1), payload["p"], payload["q"])
        terms = [(x.box_spectrum[a], y.box_spectrum[b]) for a, b in splits]
        calls.clear()
        spectra.product_operator(terms)
        once = len(calls)
        calls.clear()
        code, report = run_cli(capsys, "dbar", path)
        assert code == 0 and report["results"]["spectrum"] is not None
        assert len(calls) == once, path


def test_dbar_spectrum_over_the_gap_budget_exits_2(tmp_path, capsys):
    # no essential spectrum, so the verdict needs no sum, but the product
    # spectrum does: the report is refused rather than written without it
    def factor(name, step):
        entry = {"spectrum": {"atoms": [{"kind": "ap", "base": "0", "step": step, "mult": 1}]}}
        box = dict.fromkeys(("0,0", "0,1", "1,0", "1,1"), entry)
        return {"name": name, "complex_dimension": 1, "closed_range": True, "box_spectrum": box}

    path = _dbar_scenario(tmp_path, [factor("a", "1/997"), factor("b", "1/991")], p=0, q=0)
    code = main(["dbar", str(path)])
    assert code == 2
    assert "SymbolicBudgetError: the Minkowski sum would expand 986040" in capsys.readouterr().err


def test_solution_operator_shortcut_needs_the_bad_bit(tmp_path, capsys):
    # factor 0 has essential spectrum only at bit 0, and the one vector that
    # puts it there pairs it with factor 1's empty (0, 1) entry: the parts
    # are empty or within {0}, so both reports are compact at q = 1
    def entry(atom):
        return {"spectrum": {"atoms": [atom] if atom else []}}

    ap = {"kind": "ap", "base": "1", "step": "1", "mult": 1}
    factors = [
        {
            "name": "f0",
            "complex_dimension": 1,
            "closed_range": True,
            "box_spectrum": {"0,0": entry({**ap, "mult": "inf"}), "0,1": entry(ap)},
        },
        {
            "name": "f1",
            "complex_dimension": 1,
            "closed_range": True,
            "box_spectrum": {"0,0": entry(ap), "0,1": entry(None)},
        },
    ]
    code, report = run_cli(capsys, "dbar-n", _dbar_scenario(tmp_path, factors, q=1))
    assert code == 0
    assert (report["results"]["verdict"], report["results"]["fired_rule"]) == (
        "compact",
        "essential-spectrum-empty",
    )
    code, report = run_cli(capsys, "dbar", _dbar_scenario(tmp_path, factors, p=0, q=1))
    assert code == 0 and report["results"]["verdict"] == "compact"


@pytest.mark.parametrize(
    "command, scenario, expected",
    [
        ("validate", "bidisc.json", "finite-complex"),
        ("spectrum", "joint-pair.json", "finite-complex"),
        ("hodge", "symbolic-ap-pair.json", "finite-complex"),
        ("identities", "chain-product.json", "finite-complex"),
        ("tensor", "chain.json", "finite-pair"),
        ("symbolic", "bidisc.json", "spectral-model"),
        ("dbar", "chain.json", "dbar-factors"),
        ("dbar-n", "symbolic-ap-pair.json", "dbar-factors"),
        ("joint", "riemann-triple.json", "finite-pair"),
    ],
)
def test_wrong_scenario_kind_exits_2(capsys, command, scenario, expected):
    actual = json.loads((SCENARIOS / scenario).read_text())["kind"]
    code = main([command, str(SCENARIOS / scenario)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"ParseError: $.kind: expected {expected}, got {actual}" in err


def test_fuzz_refuses_an_unknown_kind(tmp_path, capsys):
    # fuzz runs the suites of any scenario kind; only an unknown kind is wrong
    path = _edited_scenario(tmp_path, "chain.json", ["kind"], "finite-triple")
    code = main(["fuzz", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "ParseError: $.kind: kind must be one of" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dbar", "bidisc.json", "--tol", "1e-6"],
        ["validate", "chain.json", "--seed", "3"],
        ["symbolic", "symbolic-ap-pair.json", "--max-dim", "9"],
    ],
)
def test_unread_flag_is_a_usage_error(capsys, argv):
    command, scenario, *flags = argv
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(SCENARIOS / scenario), *flags])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_parser_is_built_once(monkeypatch, capsys):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert main(["validate", str(SCENARIOS / "chain.json")]) == 0
    assert main(["dbar", str(SCENARIOS / "bidisc.json")]) == 0
    capsys.readouterr()
    assert calls == []
