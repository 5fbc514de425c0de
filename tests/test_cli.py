import json
from pathlib import Path

import numpy as np
import pytest

from hcspec.cli import main

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


@pytest.mark.parametrize(
    "command, entry",
    [
        # 1e308 is a finite entry, but the Laplacian d* d overflows to Inf
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
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "NonFiniteError" in err


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
