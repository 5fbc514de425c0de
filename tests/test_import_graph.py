"""Each half of the toolkit runs without the other; the package surface loads on use.

``import hcspec`` binds its public names lazily (PEP 562), and the command
line and the scenario parser import each layer where it is used.  So
``dbar``, ``dbar-n`` and ``symbolic`` without ``--oracle-cutoff`` never load
numpy, and the dense commands never load the exact layer (``spectra``,
``dbar``, ``fractions`` and the ``decimal`` it imports); ``symbolic`` and
``joint`` load ``spectra`` but not ``dbar``.  No record of the package is a
dataclass, so no exact path loads ``dataclasses`` or the ``inspect`` it
imports, and ``csv`` loads only under ``--csv``.  The first two tests run
commands in a fresh interpreter, where an eager import of any of these
anywhere on their path would show.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hcspec
from hcspec import cli, limits

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(hcspec.__file__).resolve().parent.parent

# Imports hcspec.cli, then runs commands; prints the exit codes and which of
# the watched modules are loaded after the import and after each command.
_FRESH_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hcspec
import hcspec.cli
def loaded():
    return [name for name in json.loads(sys.argv[3]) if name in sys.modules]
after = [loaded()]
codes = []
for command, scenario, out in json.loads(sys.argv[2]):
    codes.append(hcspec.cli.main([command, scenario, "--out", out]))
    after.append(loaded())
print(json.dumps({"codes": codes, "loaded": after}))
"""

#: The public names of ``hcspec/__init__``, each loaded on first access.
EAGER_EXPORTS = (
    "FiniteComplex", "HodgeSplit", "check_identities", "cohomology_dim", "hodge", "laplacian",
    "laplacian_inverse", "off_block_residual", "random_complex", "solution_operator",
    "spectrum_multiset", "validate",
    "CompactnessReport", "DbarFactorModel", "Verdict", "builtin_models", "neumann_compactness",
    "riemann_surface_product_report",
    "ToolkitError",
    "CommutingPair", "JointSpectrumPoints", "check_pair", "joint_spectrum", "spectral_mapping",
    "sum_operator_check", "tensor_pair_spectrum",
    "EigenDecomposition", "Tolerance", "hermitian_eig", "pseudo_inverse", "svd",
    "AP", "EMPTY", "INFINITE", "OperatorSpectrum", "Point", "SpectralSet", "enumerate_below",
    "essential_part", "is_subset", "minkowski_oracle_check", "minkowski_sum", "normalize", "union",
    "ProductBlockIndex", "block_structure_check", "kuenneth_check", "product_laplacian_blocks",
    "tensor_complex", "verify_product_spectrum",
)

#: Every command's flags and their defaults; ``inputs_digest`` hashes the
#: values, so a changed default would change every report's digest.
FLAG_DEFAULTS = {
    "validate": {"out": None, "csv": False, "tol": None},
    "spectrum": {"out": None, "csv": False, "tol": None},
    "hodge": {"out": None, "csv": False, "tol": None},
    "identities": {"out": None, "csv": False, "tol": None},
    "tensor": {"out": None, "csv": False, "tol": None, "max_dim": 4096},
    "symbolic": {"out": None, "csv": False, "oracle_cutoff": None},
    "dbar": {"out": None, "csv": False},
    "dbar-n": {"out": None, "csv": False},
    "joint": {"out": None, "csv": False, "tol": None, "max_dim": 4096},
    "fuzz": {"out": None, "csv": False, "seed": None, "oracle_cutoff": None, "cases": 100},
}


def _fresh_run(tmp_path, runs: list[tuple[str, str]], watched: tuple[str, ...]) -> dict:
    """Exit codes and watched modules loaded of ``runs`` (command, scenario
    name) in a fresh interpreter; every report must read ``"pass": true``."""
    runs = [
        (command, str(SCENARIOS / name), str(tmp_path / f"{idx}-{command}.json"))
        for idx, (command, name) in enumerate(runs)
    ]
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, str(SRC), json.dumps(runs), json.dumps(watched)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    for _, _, out in runs:
        assert json.loads(Path(out).read_text(encoding="utf-8"))["pass"] is True
    return json.loads(done.stdout)


def test_exact_commands_never_load_numpy(tmp_path):
    runs = [("dbar-n", "riemann-triple.json"), ("dbar", "bidisc.json"), ("symbolic", "symbolic-ap-pair.json")]
    result = _fresh_run(tmp_path, runs, ("numpy", "dataclasses", "inspect", "csv"))
    assert result == {"codes": [0, 0, 0], "loaded": [[], [], [], []]}


def test_dense_commands_never_load_the_exact_layer(tmp_path):
    runs = [
        ("validate", "chain.json"),
        ("spectrum", "random-complex.json"),
        ("hodge", "chain.json"),
        ("identities", "random-complex.json"),
        ("tensor", "chain-product.json"),
        ("symbolic", "symbolic-ap-pair.json"),
        ("joint", "joint-pair.json"),
    ]
    result = _fresh_run(tmp_path, runs, ("hcspec.spectra", "hcspec.dbar", "fractions", "decimal"))
    assert result["codes"] == [0] * 7
    assert result["loaded"][:6] == [[]] * 6  # after the import and each dense command
    assert [loaded for loaded in result["loaded"][6:] if "hcspec.dbar" in loaded] == []


def test_eager_exports_resolve_lazily():
    listed = dir(hcspec)
    for name in EAGER_EXPORTS:
        assert getattr(hcspec, name) is not None, name
        assert name in listed, name
    assert set(EAGER_EXPORTS) == set(hcspec.__all__)
    with pytest.raises(AttributeError):
        hcspec.no_such_name  # noqa: B018


def test_exports_are_the_defining_modules_objects():
    from hcspec import numerics, spectra

    assert hcspec.Tolerance is numerics.Tolerance
    assert hcspec.minkowski_sum is spectra.minkowski_sum
    assert numerics.DEFAULT_TOL is limits.DEFAULT_TOL


def test_machine_epsilon_is_numpys():
    assert limits._EPS == float(np.finfo(np.float64).eps)


def test_every_command_has_its_flags_pinned():
    assert set(FLAG_DEFAULTS) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(FLAG_DEFAULTS))
def test_help_lists_the_same_flags_and_defaults(command, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main([command, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    for flag in FLAG_DEFAULTS[command]:
        assert "--" + flag.replace("_", "-") in text
    args = vars(cli._build_parser().parse_args([command, "scenario.json"]))
    assert args == {"command": command, "scenario": "scenario.json", **FLAG_DEFAULTS[command]}


@pytest.mark.parametrize("command", sorted(FLAG_DEFAULTS))
def test_help_is_the_full_parsers_help_of_the_command(command, capsys):
    texts = []
    for parse in (cli.main, cli._build_parser().parse_args):
        with pytest.raises(SystemExit) as stop:
            parse([command, "--help"])
        texts.append((stop.value.code, capsys.readouterr()))
    assert texts[0] == texts[1] and texts[0][1].out.startswith(f"usage: hcspec {command} [-h]")


#: A value for each flag of ``FLAG_DEFAULTS``; ``None`` for a switch.
FLAG_VALUES = {
    "out": "report.txt", "csv": None, "tol": "1e-6", "max_dim": "12", "seed": "5",
    "oracle_cutoff": "7/2", "cases": "3",
}


@pytest.mark.parametrize("command", sorted(FLAG_DEFAULTS))
def test_command_parser_reads_what_the_full_parser_reads(command):
    flags = list(FLAG_DEFAULTS[command])
    for chosen in ([], *([flag] for flag in flags), flags):
        argv = [command, "scenario.json"]
        for flag in chosen:
            argv += ["--" + flag.replace("_", "-"), *([FLAG_VALUES[flag]] if FLAG_VALUES[flag] else [])]
        assert vars(cli._parse_args(argv)) == vars(cli._build_parser().parse_args(argv)), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["symbolic", "scenario.json", "--bogus"],
        ["dbar", "scenario.json", "--oracle-cutoff", "5"],
        ["fuzz", "scenario.json", "--cases", "many"],
        ["symbolic"],
        ["no-such-command", "scenario.json"],
        [],
    ],
)
def test_a_bad_command_line_keeps_its_usage_and_exit_code(argv, capsys):
    outcomes = []
    for parse in (cli.main, cli._build_parser().parse_args):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        outcomes.append((stop.value.code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 2
    assert outcomes[0][1].err.startswith("usage: hcspec")
