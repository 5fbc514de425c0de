import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcspec import scenario
from hcspec.dbar import BUILTIN_BUILDERS, builtin_models
from hcspec.scenario import (
    ParseError,
    dump_report,
    load_scenario,
    parse_factor_model,
    parse_finite_complex,
    parse_matrix,
    parse_operator_spectrum,
    parse_ratio,
    parse_rational,
    parse_spectral_set,
    scenario_from_dict,
)
from hcspec.spectra import AP, INFINITE, OperatorSpectrum, Point, SpectralSet


def test_scenario_envelope_validation():
    with pytest.raises(ParseError):
        scenario_from_dict([])
    with pytest.raises(ParseError):
        scenario_from_dict({"version": "99", "kind": "finite-complex", "payload": {}})
    with pytest.raises(ParseError):
        scenario_from_dict({"version": "1", "kind": "nope", "payload": {}})
    with pytest.raises(ParseError):
        scenario_from_dict({"version": "1", "kind": "finite-complex", "payload": 3})
    ok = scenario_from_dict(
        {"version": "1", "kind": "finite-complex", "payload": {}, "rng_seed": 7}
    )
    assert ok.rng_seed == 7


def written(value):
    """The JSON document ``dump_report`` writes for ``value``."""
    return json.loads(dump_report(value))


def test_matrix_roundtrip():
    m = np.array([[1 + 2j, 0], [0.5, -1j]])
    again = parse_matrix(written(m.tolist()), "$")
    assert np.array_equal(m, again)
    assert np.allclose(parse_matrix([[1, 2], [3, 4]], "$"), [[1, 2], [3, 4]])
    with pytest.raises(ParseError):
        parse_matrix([[1], [2, 3]], "$")
    with pytest.raises(ParseError):
        parse_matrix([[{"re": 1}]], "$")


def test_rational_parsing():
    assert parse_rational("3/2", "$") == Fraction(3, 2)
    assert parse_rational(5, "$") == 5
    with pytest.raises(ParseError):
        parse_rational("1/0", "$")
    with pytest.raises(ParseError):
        parse_rational(1.5, "$")


# Short strings over the characters of every form ``Fraction`` reads; an
# exponent stays short, since ``Fraction`` itself builds its power of ten.
_RATIONAL_STRINGS = st.text(alphabet="0123456789/._eE+- \t\u0663", max_size=9).filter(
    lambda text: not re.search(r"[eE][-+]?[\d_]{5}", text)
)


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(_RATIONAL_STRINGS)
def test_parse_ratio_reads_what_fraction_reads(text):
    try:
        number = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError, match="bad rational"):
            parse_ratio(text, "$")
        return
    if max(abs(number.numerator), number.denominator) >= 10**4300:
        with pytest.raises(ParseError, match="beyond 4300 digits"):
            parse_ratio(text, "$")
    else:
        assert parse_ratio(text, "$") == (number.numerator, number.denominator)


def _read(read, text):
    """What ``read(text, "$.x")`` returns, or the text of its ``ParseError``."""
    try:
        return read(text, "$.x")
    except ParseError as exc:
        return str(exc)


# Text near the plain digits path: its edges, and what the regex alone reads.
_NEAR_PLAIN = {
    "0/": "$.x: bad rational '0/'",
    "/3": "$.x: bad rational '/3'",
    "3/0": "$.x: bad rational '3/0'",
    "007/014": (1, 2),
    "+3": (3, 1),
    " 3": (3, 1),
    "1_0": (10, 1),
    "٣": (3, 1),
    "１": (1, 1),
    "9" * 18: (10**18 - 1, 1),
    "9" * 19: (10**19 - 1, 1),
    "9" * 4301: f"$.x: bad rational '{'9' * 4301}'",
    "1/" + "9" * 4301: f"$.x: bad rational '1/{'9' * 4301}'",
}


@pytest.mark.parametrize("text", sorted(_NEAR_PLAIN))
def test_parse_ratio_reads_plain_digits_as_the_regex_does(text):
    assert _read(parse_ratio, text) == _NEAR_PLAIN[text] == _read(scenario._parsed_ratio, text)
    # plain ASCII digits, with a nonzero digit denominator, never reach the regex
    plain = text.isascii() and re.fullmatch(r"\d+(/\d*[1-9]\d*)?", text) and len(text) <= 4300
    assert scenario._plain_ratio(text) == (_NEAR_PLAIN[text] if plain else None)


def test_spectral_set_roundtrip():
    s = SpectralSet.of(Point(Fraction(1, 2), 2), AP(0, 3, INFINITE))
    again = parse_spectral_set(written(s), "$")
    assert again == s
    with pytest.raises(ParseError):
        parse_spectral_set({"atoms": [{"kind": "blob"}]}, "$")
    with pytest.raises(ParseError):
        parse_spectral_set({"atoms": [{"kind": "point", "value": "-1", "mult": 1}]}, "$")


def test_an_int_subclass_multiplicity_reads_as_its_int():
    # JSON gives plain ints, read without parse_mult; an int subclass from
    # a Python caller goes through it and reads the same, a bool is refused
    class Count(int):
        pass

    atom = {"kind": "point", "value": "1/2"}
    want = parse_spectral_set({"atoms": [{**atom, "mult": 3}]}, "$")
    assert parse_spectral_set({"atoms": [{**atom, "mult": Count(3)}]}, "$") == want
    with pytest.raises(ParseError, match=re.escape("$.atoms[0].mult: expected a positive integer or 'inf', got True")):
        parse_spectral_set({"atoms": [{**atom, "mult": True}]}, "$")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 10**30), st.integers(1, 10**12), st.booleans())
def test_dumped_values_are_the_fraction_strings(k, scale, integral):
    k *= scale if integral else 1
    s = SpectralSet((Point(Fraction(k, scale)), AP(Fraction(1, scale), Fraction(k + scale, scale))))
    point, progression = written(s)["atoms"]
    assert point["value"] == str(Fraction(k, scale))
    assert progression["base"] == str(Fraction(1, scale))
    assert progression["step"] == str(Fraction(k + scale, scale))


def test_operator_spectrum_roundtrip():
    spectrum = SpectralSet.of(Point(0, INFINITE), AP(1, 1))
    derived = OperatorSpectrum(spectrum)
    again = parse_operator_spectrum(written({"spectrum": spectrum, "essential": None}), "$")
    assert again == derived and again.essential == SpectralSet.of(Point(0, INFINITE))
    # an asserted {1} comes back as {1}, not as the derived {0:inf}
    asserted = OperatorSpectrum(spectrum, SpectralSet.of(Point(1)))
    again = parse_operator_spectrum(written({"spectrum": spectrum, "essential": asserted.essential}), "$")
    assert again == asserted and again.essential == SpectralSet.of(Point(1))


def test_finite_complex_random_form():
    c = parse_finite_complex({"random": {"dims": [2, 2], "seed": 3}}, "$")
    assert c.dims == (2, 2)
    with pytest.raises(ParseError):
        parse_finite_complex({"random": {"dims": [2]}}, "$")
    with pytest.raises(ParseError):
        parse_finite_complex({"dims": [1], "differentials": {"x": [[1]]}}, "$")


def test_the_size_caps_admit_their_bounds():
    # DEGREE_CAP degrees, and one differential of KRONECKER_DIM_CAP**2 entries
    assert parse_finite_complex({"random": {"dims": [1] * 64, "seed": 1}}, "$").dims == (1,) * 64
    assert parse_finite_complex({"dims": [4096, 4096]}, "$").dims == (4096, 4096)
    with pytest.raises(ParseError, match=r"^\$\.dims: the differentials would hold"):
        parse_finite_complex({"dims": [1, 4096, 4096]}, "$")


def test_factor_model_roundtrip_and_builtins():
    for name, model in builtin_models().items():
        by_reference = parse_factor_model({"builtin": name}, "$")
        assert by_reference == model
    catalogue = builtin_models()
    assert list(catalogue) == list(BUILTIN_BUILDERS)
    assert all(model.name == name for name, model in catalogue.items())
    for bad in ("no-such-model", ["x"], {"a": 1}, 3):
        with pytest.raises(ParseError, match=re.escape(f"have {sorted(catalogue)}")):
            parse_factor_model({"builtin": bad}, "$")
    with pytest.raises(ParseError):
        parse_factor_model({"name": "x", "complex_dimension": 0}, "$")


def _mirrored_model(first, second) -> dict:
    """A model whose entries at (0, 0) and (1, 0) are one point atom, with
    the field and value of ``first`` and ``second`` set on it."""

    def entry(field, value):
        atom = {"kind": "point", "value": 1, "mult": 1, field: value}
        return {"spectrum": {"atoms": [atom]}, "essential": None}

    return {
        "name": "mirrored",
        "complex_dimension": 1,
        "closed_range": True,
        "box_spectrum": {"0,0": entry(*first), "1,0": entry(*second)},
    }


def test_equal_box_entries_share_one_parse():
    model = parse_factor_model(_mirrored_model(("mult", 2), ("mult", 2)), "$")
    assert model.box_spectrum[(0, 0)] is model.box_spectrum[(1, 0)]
    other = parse_factor_model(_mirrored_model(("mult", 2), ("mult", 3)), "$")
    assert other.box_spectrum[(0, 0)] != other.box_spectrum[(1, 0)]


@pytest.mark.parametrize("field", ["mult", "value"])
@pytest.mark.parametrize("bad", [True, 1.0])
def test_a_mirrored_entry_equal_only_by_eq_is_parsed_on_its_own(field, bad):
    # 1 == 1.0 == True, but only the JSON integer 1 is a valid mult or value
    assert bad == 1
    with pytest.raises(ParseError, match=re.escape(f"$.box_spectrum['1,0'].spectrum.atoms[0].{field}")):
        parse_factor_model(_mirrored_model((field, 1), (field, bad)), "$")


def test_load_scenario_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(ParseError) as err:
        load_scenario(bad)
    assert "line" in str(err.value)


def test_dump_report_is_canonical():
    report = {"b": Fraction(1, 3), "a": [1.0, INFINITE], "c": {"z": 1, "y": None}}
    text = dump_report(report)
    assert text == dump_report(json.loads(json.dumps({"b": "1/3", "a": [1.0, "inf"], "c": {"z": 1, "y": None}})))
    assert text.endswith("\n")
    assert json.loads(text)["b"] == "1/3"
