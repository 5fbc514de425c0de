"""The report writer: ``dump_report`` is the canonical ``json.dumps`` text.

``dump_report`` is the package's one report writer: it writes a report in
one pass, spectral sets straight from their keys, and ``--csv`` flattens its
text.  Its text must be exactly ``json.dumps(_ready(report), sort_keys=True,
indent=2)`` and a newline, where ``_ready``, which lives only here, builds
the JSON document of a report from its leaves by another route: spectral
sets from their atom view, rationals by ``str(Fraction)``.  ``_ready``
covers only the closed set of report leaves; the writer refuses any other
with ``TypeError``.  The exact-arithmetic reports of the shipped scenarios
are pinned by hash, so a format drift fails even where two runs of the same
code would agree.
"""

import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcspec import cli
from hcspec.cli import main
from hcspec.fuzzing import SuiteResult
from hcspec.scenario import PRINTABLE_DIGITS, UnprintableResultError, _write_spectral_set, dump_report, parse_spectral_set
from hcspec.spectra import (
    AP,
    EMPTY,
    INFINITE,
    OperatorSpectrum,
    Point,
    SpectralSet,
    essential_part,
    minkowski_sum,
    normalize,
    union,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import golden  # noqa: E402
import workloads  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _ready(value):
    """The JSON document of a report whose leaves are of the report kinds."""
    if isinstance(value, dict):
        return {str(key): _ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ready(item) for item in value]
    if isinstance(value, SpectralSet):
        return {"atoms": [_ready(atom) for atom in value.atoms]}
    if isinstance(value, (Point, AP)):
        mult = "inf" if value.mult == INFINITE else value.mult
        if isinstance(value, Point):
            return {"kind": "point", "mult": mult, "value": str(value.value)}
        return {"base": str(value.base), "kind": "ap", "mult": mult, "step": str(value.step)}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [_ready(value.real), _ready(value.imag)]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def reference(report) -> str:
    return json.dumps(_ready(report), sort_keys=True, indent=2) + "\n"


_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['say "hi"', "back\\slash", "tab\tline\nend\r\x00\x1f\x7f", "é ü 日本 \U0001f600", "\ud800"]),
)
# 2 against "2" collide once keys are strings; "10" sorts before "2"
_KEYS = st.one_of(st.integers(-12, 12), _TEXT, st.sampled_from([2, 10, "2", "10"]), st.tuples(st.integers(0, 3)))
_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf, 0.1]),
)
_COMPLEX = st.complex_numbers(allow_nan=False)
# subclasses of float and complex, so they are report leaves too
_NUMPY = st.one_of(_FLOATS.map(np.float64), _COMPLEX.map(np.complex128))
_RATIONALS = st.builds(Fraction, st.integers(0, 5000), st.integers(1, 60))
_MULTS = st.sampled_from((1, 2, 7, INFINITE))
_ATOMS = st.one_of(
    st.builds(Point, _RATIONALS, _MULTS),
    st.builds(AP, _RATIONALS, _RATIONALS.filter(bool), _MULTS),
)
_SETS = st.one_of(st.just(EMPTY), st.lists(_ATOMS, max_size=5).map(normalize))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(10**40), 10**300]),
    _TEXT,
    _FLOATS,
    _NUMPY,
    _COMPLEX,
    st.fractions(),
    _SETS,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.dictionaries(_KEYS, _VALUES, max_size=5))
def test_dump_report_is_the_reference_text(report):
    assert dump_report(report) == reference(report)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_SETS)
def test_written_spectral_sets_parse_back(s):
    assert parse_spectral_set(json.loads(dump_report(s)), "$") == s


def test_spectral_sets_write_every_atom_field():
    s = normalize([Point(Fraction(1, 3), INFINITE), AP(Fraction(2, 3), 2, 1)])
    report = {"10": [s, EMPTY], 2: essential_part(s)}
    text = dump_report(report)
    assert text == reference(report)
    assert '"kind": "point",\n          "mult": "inf",\n          "value": "1/3"' in text
    assert text.index('"10"') < text.index('"2"')


def _sum(a, b):
    return minkowski_sum(SpectralSet.of(a), SpectralSet.of(b))


#: Sets with long runs of points: coprime sums (757 and 4,897 atoms), runs cut
#: by mult changes, progressions between runs, and sets on a lattice finer than 1.
_LONG_RUNS = {
    "37/43": _sum(AP(2, 37), AP(3, 43)),
    "97/103": _sum(AP(0, 97), AP(1, 103)),
    "mixed-mults": normalize(
        [Point(v, 1 + v % 7 // 3) for v in range(300)] + [Point(v, INFINITE) for v in range(300, 340, 3)]
    ),
    "interleaved": union(
        _sum(AP(0, 11, 2), AP(500, 13, 2)),
        normalize([AP(40, 1000), AP(61, 999, INFINITE), AP(200, 1001, 2), *(Point(v) for v in range(400))]),
    ),
    "scale-6": union(_sum(AP(Fraction(1, 2), Fraction(37, 3)), AP(0, Fraction(43, 2))), normalize([AP(1, Fraction(5, 6))])),
}


@pytest.mark.parametrize("name", sorted(_LONG_RUNS))
def test_long_point_runs_write_the_reference_text(name):
    s = _LONG_RUNS[name]
    assert len(s.keys) > 100
    report = {"results": {"result": s, "essential": essential_part(s)}, "sets": [s, EMPTY, s]}
    assert dump_report(report) == reference(report)


@pytest.mark.parametrize(
    "atoms",
    [
        [*(Point(v) for v in range(500)), Point(10**PRINTABLE_DIGITS), *(Point(v) for v in range(501, 600))],
        [*(Point(v) for v in range(500)), AP(1, 10**PRINTABLE_DIGITS), *(Point(v) for v in range(501, 600))],
        [*(Point(Fraction(v, 3)) for v in range(500)), Point(Fraction(10**PRINTABLE_DIGITS * 3 + 1, 3))],
    ],
    ids=["value", "step", "scale-3"],
)
def test_an_unprintable_value_deep_in_a_run_is_refused_before_any_text(atoms):
    s = SpectralSet(atoms)  # the trusted constructor keeps the order: the value sits inside a run
    out = []
    with pytest.raises(UnprintableResultError, match=f"beyond {PRINTABLE_DIGITS} digits"):
        _write_spectral_set(s, out, "\n")
    assert out == []
    with pytest.raises(UnprintableResultError, match=f"beyond {PRINTABLE_DIGITS} digits"):
        dump_report({"results": {"result": s}})


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        np.float64("nan"),
        complex(0.0, float("nan")),
        {"deep": [1, {"x": float("nan")}]},
    ],
    ids=["float", "numpy", "complex", "nested"],
)
def test_nan_is_refused_by_name(value):
    with pytest.raises(UnprintableResultError, match="NaN"):
        dump_report({"results": value})


def test_negative_infinity_keeps_its_sign():
    report = {"x": -math.inf, "y": math.inf, "z": complex(-math.inf, 1), "n": np.complex128(complex(1, -math.inf))}
    text = dump_report(report)
    assert text == reference(report)
    assert json.loads(text) == {"x": "-inf", "y": "inf", "z": ["-inf", 1.0], "n": [1.0, "-inf"]}


def test_an_unknown_leaf_is_refused_as_json_does():
    with pytest.raises(TypeError, match="not JSON serializable"):
        dump_report({"results": object()})
    with pytest.raises(TypeError, match="not JSON serializable"):
        reference({"results": object()})


@pytest.mark.parametrize(
    "leaf",
    [np.int64(3), np.array([[1.0]]), OperatorSpectrum(EMPTY), SuiteResult("spectra", 1, ())],
    ids=["int64", "ndarray", "operator-spectrum", "named-tuple-record"],
)
def test_only_report_leaf_kinds_are_written(leaf):
    with pytest.raises(TypeError, match=f"Object of type {type(leaf).__name__} is not JSON serializable"):
        dump_report({"results": [leaf]})


# sha256 of each exact-arithmetic report, recorded before the one-pass writer
PINNED = {
    ("symbolic", "symbolic-ap-pair.json"): "1409467b9b47b4c40f9c50186b7b7ac359ce7eeb7af0e671aabb58db572fae88",
    ("symbolic", "symbolic-ap-pair.json", "--oracle-cutoff", "100"): (
        "fd9fb91c1f597353d74089c6b58cfcbea76826f4fcfc63a3476b99457ebd9395"
    ),
    ("dbar", "bidisc.json"): "6d7bc3d9450779819beb4dd5b1c9e6e907fe9ff9a0a31e7c70003123e0d9a1f2",
    ("dbar-n", "riemann-triple.json"): "686bd522174f321df828d41ee5b0aeeed4ea554941d18f9c99d7359ff346c764",
}


@pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
def test_exact_reports_keep_their_bytes(tmp_path, argv):
    command, scenario, *flags = argv
    out = tmp_path / "report.json"
    assert main([command, str(SCENARIOS / scenario), *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[argv]


#: Members replayed at every position of ``symbolic-sums``: 88 of its 2,816
#: cases, every band and operation among them.
MEMBERS = range(2)


def test_symbolic_sums_replay_writes_the_reference_bytes(tmp_path, monkeypatch):
    reports, write = [], cli.dump_report

    def capture(report):
        reports.append(report)
        return write(report)

    monkeypatch.setattr(cli, "dump_report", capture)
    expected = golden.load_golden("symbolic-sums")
    scenario, out = tmp_path / "scenario.json", tmp_path / "report.json"
    replayed = 0
    for position, (_, _, members) in enumerate(workloads.positions("symbolic-sums")):
        for member in MEMBERS[:members]:
            (case,) = workloads.member_cases("symbolic-sums", position, member)
            scenario.write_bytes(case.scenario_bytes())
            code = main([case.command, str(scenario), *case.flags, "--out", str(out)])
            text = out.read_text(encoding="utf-8")
            assert text == reference(reports.pop()), case.key
            fields = golden.exact_fields(case.command, code, json.loads(text))
            assert golden.field_mismatches(expected[case.key]["fields"], fields) == [], case.key
            replayed += 1
    assert replayed == 88 and not reports
