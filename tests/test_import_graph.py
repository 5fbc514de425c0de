"""The exact commands run without numpy; the package surface loads on use.

``import hcspec`` binds its public names lazily (PEP 562), and the command
line imports the dense layers inside the handlers that need them, so
``dbar``, ``dbar-n`` and ``symbolic`` without ``--oracle-cutoff`` never load
numpy.  No record of the package is a dataclass, so no path loads
``dataclasses`` or the ``inspect`` it imports, and ``csv`` loads only under
``--csv``.  The first test runs the exact commands in a fresh interpreter,
where an eager import of any of these anywhere on their path would show.
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

_EXACT_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hcspec
import hcspec.cli
def loaded():
    return [name for name in ("numpy", "dataclasses", "inspect", "csv") if name in sys.modules]
after = [loaded()]
codes = []
for command, scenario, out in json.loads(sys.argv[2]):
    codes.append(hcspec.cli.main([command, scenario, "--out", out]))
    after.append(loaded())
print(json.dumps({"codes": codes, "loaded": after}))
"""

#: The public names ``hcspec/__init__`` imported eagerly before it loaded
#: them on first access.
EAGER_EXPORTS = (
    "FiniteComplex", "HodgeSplit", "check_identities", "cohomology_dim", "hodge", "laplacian",
    "laplacian_inverse", "off_block_residual", "random_complex", "solution_operator",
    "spectrum_multiset", "validate",
    "CompactnessReport", "DbarFactorModel", "Verdict", "builtin_models", "neumann_compactness",
    "riemann_surface_product_report",
    "ToolkitError",
    "CommutingPair", "JointSpectrumPoints", "check_pair", "joint_spectrum", "spectral_mapping",
    "sum_operator_check", "tensor_pair_spectrum",
    "EigenDecomposition", "Tolerance", "hermitian_eig", "numeric_rank", "pseudo_inverse",
    "range_projection",
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


def test_exact_commands_never_load_numpy(tmp_path):
    runs = [
        ("dbar-n", str(SCENARIOS / "riemann-triple.json"), str(tmp_path / "dbar-n.json")),
        ("dbar", str(SCENARIOS / "bidisc.json"), str(tmp_path / "dbar.json")),
        ("symbolic", str(SCENARIOS / "symbolic-ap-pair.json"), str(tmp_path / "symbolic.json")),
    ]
    done = subprocess.run(
        [sys.executable, "-c", _EXACT_RUN, str(SRC), json.dumps(runs)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(done.stdout)
    assert result == {"codes": [0, 0, 0], "loaded": [[], [], [], []]}
    for _, _, out in runs:
        assert json.loads(Path(out).read_text(encoding="utf-8"))["pass"] is True


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
