"""Scenario file parsing and report serialization.

Scenarios are UTF-8 JSON documents: rationals travel as strings like
``"3/2"``, complex numbers as two-element ``[re, im]`` arrays (bare numbers
are accepted for real entries), matrices as row-major nested arrays, and
infinite multiplicities or dimensions as the string ``"inf"``.  Numpy and
the dense layers are imported only where a matrix or a finite complex is
parsed, so factor models and spectral sets parse without them.

Reports have one writer, :func:`dump_report`; ``--csv`` flattens its text.
"""

from __future__ import annotations

import io
import json
import math
import re
from collections import Counter
from fractions import Fraction
from itertools import groupby
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from .dbar import BUILTIN_BUILDERS, DbarFactorModel
from .errors import ToolkitError
from .limits import DEGREE_CAP, KRONECKER_DIM_CAP
from .spectra import (
    INFINITE,
    Mult,
    OperatorSpectrum,
    SpectralSet,
    is_infinite,
    normalize_ratios,
)

if TYPE_CHECKING:
    import numpy as np

    from .complexes import FiniteComplex

SCENARIO_KINDS = ("finite-complex", "finite-pair", "spectral-model", "dbar-factors")
SUPPORTED_VERSIONS = ("1",)


class ParseError(ToolkitError):
    """A scenario file is malformed; the message carries the JSON path."""


class UnprintableResultError(ToolkitError):
    """A result holds a NaN or a rational beyond ``PRINTABLE_DIGITS`` digits,
    so no report can print it; raised before any report text is written."""


def _fail(path: str, message: str) -> ParseError:
    return ParseError(f"{path}: {message}")


def is_json_int(value: Any) -> bool:
    """True for a JSON integer; ``true`` and ``false`` load as ``bool``, an
    ``int`` subclass, and are refused."""
    return isinstance(value, int) and not isinstance(value, bool)


class Scenario(NamedTuple):
    """A parsed scenario; ``source`` is the file bytes (``inputs_digest``)."""

    version: str
    kind: str
    payload: dict
    rng_seed: int | None
    source: bytes


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, refusing a repeated key (``json.loads`` keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ParseError(f"repeated key {repeated!r} in one JSON object")
    return obj


def _repeated_key_at(text: str) -> str:
    """`` at <JSON path>`` of the object :func:`_unique_keys` refused in
    ``text``, found by a second read that keeps every pair (an object as a
    tuple of pairs); empty if that read fails past the refused object."""
    try:
        return f" at {_refused_object(json.loads(text, object_pairs_hook=tuple), '$')}"
    except (RecursionError, ValueError):
        return ""


def _refused_object(value: Any, path: str) -> str | None:
    """The path of the first object with a repeated key in ``value``, in the
    order the decoder closes objects and calls its hook: members first."""
    if isinstance(value, tuple):
        members = [(f".{key}" if key.isidentifier() else f"[{key!r}]", item) for key, item in value]
    elif isinstance(value, list):
        members = [(f"[{index}]", item) for index, item in enumerate(value)]
    else:
        return None
    for member, item in members:
        found = _refused_object(item, path + member)
        if found is not None:
            return found
    return path if len(dict(members)) < len(members) else None


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file once, keeping its bytes as ``source``; the text is
    decoded from them as ``Path.read_text`` would."""
    try:
        source = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read the file: {exc.strerror}") from exc
    try:
        text = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8").read()
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ParseError as exc:  # a repeated key
        raise ParseError(f"{path}: {exc}{_repeated_key_at(text)}") from exc
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"{path}: unreadable JSON: {exc}") from exc
    return scenario_from_dict(doc, source)


def scenario_from_dict(doc: Any, source: bytes = b"") -> Scenario:
    if not isinstance(doc, dict):
        raise _fail("$", "scenario must be a JSON object")
    version = doc.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise _fail("$.version", f"unrecognized version {version!r}")
    kind = doc.get("kind")
    if kind not in SCENARIO_KINDS:
        raise _fail("$.kind", f"kind must be one of {SCENARIO_KINDS}, got {kind!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise _fail("$.payload", "payload must be a JSON object")
    seed = doc.get("rng_seed")
    if seed is not None:
        parse_seed(seed, "$.rng_seed")
    return Scenario(version, kind, payload, seed, source)


def parse_seed(value: Any, source: str) -> int:
    """A random seed: an integer of at least 0, which numpy's generators need.

    ``source`` names where it came from (a JSON path or a flag).
    """
    if not is_json_int(value) or value < 0:
        raise _fail(source, f"expected a nonnegative integer seed, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Values


def parse_complex_number(value: Any, path: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if all(isinstance(part, float) or is_json_int(part) for part in parts):
        try:
            return complex(parts[0], parts[1])
        except OverflowError as exc:
            raise _fail(path, "integer beyond float range") from exc
    raise _fail(path, f"expected a number or [re, im] pair, got {value!r}")


def parse_matrix(value: Any, path: str) -> np.ndarray:
    import numpy as np

    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise _fail(path, "expected a nested array of rows")
    if not value:
        return np.zeros((0, 0), dtype=np.complex128)
    width = len(value[0])
    rows = []
    for r, row in enumerate(value):
        if len(row) != width:
            raise _fail(f"{path}[{r}]", f"ragged row of length {len(row)}, expected {width}")
        rows.append([parse_complex_number(entry, f"{path}[{r}][{c}]") for c, entry in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


#: Most digits of a numerator or denominator: ``str`` refuses longer ints
#: (CPython's default ``int_max_str_digits``), so no report could print them.
PRINTABLE_DIGITS = 4300
_PRINTABLE_BOUND = 10**PRINTABLE_DIGITS

# The strings ``Fraction`` reads: "3/2", "0.5", "1e6", "1_000", spaces around.
_RATIONAL_TEXT = re.compile(
    r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)(?:/(?P<denom>\d+(_\d+)*)"
    r"|(?:\.(?P<decimal>\d*|\d+(_\d+)*))?(?:[eE](?P<exp>[-+]?\d+(_\d+)*))?)\s*"
)


def parse_ratio(value: Any, path: str) -> tuple[int, int]:
    """A JSON integer, or a string in a form ``Fraction`` reads, as a reduced
    ``(numerator, denominator)``; no ``Fraction`` is built.  A numerator or
    denominator of more than ``PRINTABLE_DIGITS`` digits is refused, and an
    exponent that would give one before its power of ten is built."""
    if is_json_int(value):
        return value, 1
    if not isinstance(value, str):
        raise _fail(path, f"expected an integer or 'p/q' string, got {value!r}")
    match = _RATIONAL_TEXT.fullmatch(value)
    try:  # int() refuses more than PRINTABLE_DIGITS digits too
        if match is None or match["denom"] and not int(match["denom"]):
            raise ValueError(value)
        decimal = (match["decimal"] or "").replace("_", "")
        numerator = int(match["num"] or "0") * 10 ** len(decimal) + int(decimal or "0")
        denominator = int(match["denom"] or "1")
        exponent = int(match["exp"] or "0") - len(decimal) if numerator else 0
    except ValueError as exc:
        raise _fail(path, f"bad rational {value!r}") from exc
    digits = len(match["num"]) + len(decimal)  # numerator < 10**digits bounds what a gcd cancels
    if exponent > PRINTABLE_DIGITS or -exponent - digits >= PRINTABLE_DIGITS:
        raise _fail(path, f"rational beyond {PRINTABLE_DIGITS} digits: {value!r}")
    numerator, denominator = numerator * 10 ** max(exponent, 0), denominator * 10 ** max(-exponent, 0)
    common = math.gcd(numerator, denominator)
    numerator, denominator = numerator // common, denominator // common
    if max(numerator, denominator) >= _PRINTABLE_BOUND:
        raise _fail(path, f"rational beyond {PRINTABLE_DIGITS} digits: {value!r}")
    return (-numerator if match["sign"] == "-" else numerator), denominator


def parse_rational(value: Any, path: str) -> Fraction:
    return Fraction(*parse_ratio(value, path))


def _ratio_to_json(numerator: int, denominator: int) -> str:
    """``str(Fraction(numerator, denominator))`` for ``denominator >= 1``."""
    if denominator != 1:
        common = math.gcd(numerator, denominator)
        numerator, denominator = numerator // common, denominator // common
    if abs(numerator) >= _PRINTABLE_BOUND or denominator >= _PRINTABLE_BOUND:
        raise UnprintableResultError(f"a result has a rational beyond {PRINTABLE_DIGITS} digits")
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


def parse_mult(value: Any, path: str) -> Mult:
    if value == "inf":
        return INFINITE
    if is_json_int(value) and value >= 1:
        return value
    raise _fail(path, f"expected a positive integer or 'inf', got {value!r}")


def _printable_int(value: int) -> int:
    """``value``, refused as ``UnprintableResultError`` where ``str`` would
    refuse it, past ``PRINTABLE_DIGITS`` digits."""
    if abs(value) >= _PRINTABLE_BOUND:
        raise UnprintableResultError(f"a result has an integer beyond {PRINTABLE_DIGITS} digits")
    return value


def parse_extended_count(value: Any, path: str) -> Mult | None:
    """Nonnegative count, 'inf', or null/'unknown'."""
    if value is None or value == "unknown":
        return None
    if value == "inf":
        return INFINITE
    if is_json_int(value) and value >= 0:
        return value
    raise _fail(path, f"expected a count, 'inf', 'unknown', or null, got {value!r}")


def parse_spectral_set(value: Any, path: str) -> SpectralSet:
    if not isinstance(value, dict) or "atoms" not in value:
        raise _fail(path, "expected an object with an 'atoms' array")
    atoms = value["atoms"]
    if not isinstance(atoms, list):
        raise _fail(f"{path}.atoms", "expected an array")
    ratios = []
    for idx, atom in enumerate(atoms):
        apath = f"{path}.atoms[{idx}]"
        if not isinstance(atom, dict):
            raise _fail(apath, "expected an object")
        kind = atom.get("kind")
        mult = parse_mult(atom.get("mult", 1), f"{apath}.mult")
        if kind == "point":
            value = parse_ratio(atom.get("value"), f"{apath}.value")
            if value[0] < 0:
                raise _fail(apath, "spectral values must be nonnegative")
            ratios.append((*value, 0, 1, mult))
        elif kind == "ap":
            base = parse_ratio(atom.get("base"), f"{apath}.base")
            step = parse_ratio(atom.get("step"), f"{apath}.step")
            if base[0] < 0:
                raise _fail(apath, "progression base must be nonnegative")
            if step[0] <= 0:
                raise _fail(apath, "progression step must be positive")
            ratios.append((*base, *step, mult))
        else:
            raise _fail(f"{apath}.kind", f"expected 'point' or 'ap', got {kind!r}")
    return normalize_ratios(ratios)


def _write_spectral_set(value: SpectralSet, out: list[str], newline: str) -> None:
    """The report text of ``value`` at ``newline``, ``{"atoms": [...]}``
    with each rational a ``"p/q"`` string and an infinite ``mult`` ``"inf"``;
    every field but ``mult`` is a string that needs no escape.  A run of
    consecutive points with one multiplicity is one piece: its values joined
    by one ``str.join`` between texts built once per run.  At ``scale`` 1 a
    value prints by ``str``, after one ``PRINTABLE_DIGITS`` check of the key
    columns before any text; otherwise by ``_ratio_to_json``, which checks it.
    Each run's multiplicity is checked once, as it is printed."""
    inner = newline + "  "
    if not value.keys:
        out.append(f'{{{inner}"atoms": []{newline}}}')
        return
    scale = value.scale
    if scale == 1:
        text = str
        numbers, _, steps, _ = zip(*value.keys)
        if max(max(numbers), max(steps)) >= _PRINTABLE_BOUND:
            raise UnprintableResultError(f"a result has a rational beyond {PRINTABLE_DIGITS} digits")
    else:
        text = lambda index: _ratio_to_json(index, scale)  # noqa: E731
    atom, field = inner + "  ", inner + "    "
    close = '"' + atom + "}"
    pieces: list[str] = []
    for mult, same_mult in groupby(value.keys, itemgetter(3)):
        mult = '"inf"' if is_infinite(mult) else str(_printable_int(mult))
        for kind, run in groupby(same_mult, itemgetter(1)):
            if kind:
                pieces += [
                    f'{{{field}"base": "{text(base)}",{field}"kind": "ap",{field}"mult": {mult},'
                    f'{field}"step": "{text(step)}{close}'
                    for base, _, step, _ in run
                ]
            else:
                head = f'{{{field}"kind": "point",{field}"mult": {mult},{field}"value": "'
                pieces.append(head + f"{close},{atom}{head}".join(map(text, map(itemgetter(0), run))) + close)
    out.append(f'{{{inner}"atoms": [{atom}' + f",{atom}".join(pieces) + f"{inner}]{newline}}}")


def parse_operator_spectrum(value: Any, path: str) -> OperatorSpectrum:
    if not isinstance(value, dict) or "spectrum" not in value:
        raise _fail(path, "expected an object with a 'spectrum' field")
    spectrum = parse_spectral_set(value["spectrum"], f"{path}.spectrum")
    essential = value.get("essential")
    if essential is None:
        return OperatorSpectrum(spectrum)
    return OperatorSpectrum(spectrum, parse_spectral_set(essential, f"{path}.essential"))


def _object_field(value: dict, name: str, path: str) -> dict:
    """The optional object field ``name`` of ``value``; missing or null is empty."""
    field = value.get(name)
    if field is None:
        return {}
    if not isinstance(field, dict):
        raise _fail(f"{path}.{name}", "expected an object")
    return field


# ---------------------------------------------------------------------------
# Complexes


def _parse_dims(value: Any, path: str) -> list[int]:
    """At most ``DEGREE_CAP`` degree dimensions, each at most
    ``KRONECKER_DIM_CAP`` (the ``--max-dim`` default), so no factor is larger
    than a product may be, and whose differentials hold at most
    ``KRONECKER_DIM_CAP**2`` entries in all."""
    if not isinstance(value, list) or not all(is_json_int(d) and d >= 0 for d in value):
        raise _fail(path, "expected an array of nonnegative integers")
    if len(value) > DEGREE_CAP:
        raise _fail(path, f"{len(value)} degrees exceed the cap {DEGREE_CAP}")
    for idx, dim in enumerate(value):
        if dim > KRONECKER_DIM_CAP:
            raise _fail(f"{path}[{idx}]", f"dimension exceeds the cap {KRONECKER_DIM_CAP}")
    if sum(x * y for x, y in zip(value, value[1:])) > KRONECKER_DIM_CAP**2:
        raise _fail(path, f"the differentials would hold more than {KRONECKER_DIM_CAP}**2 entries")
    return value


# One spelling per degree, as for bidegree keys: no two keys of one object
# name the same degree.
_DEGREE_KEY = re.compile(r"0|-?[1-9][0-9]*")


def parse_finite_complex(value: Any, path: str) -> FiniteComplex:
    from .complexes import FiniteComplex, random_complex

    if not isinstance(value, dict):
        raise _fail(path, "expected an object")
    if "random" in value:
        spec = value["random"]
        if not isinstance(spec, dict) or "dims" not in spec or "seed" not in spec:
            raise _fail(f"{path}.random", "expected 'dims' and 'seed'")
        dims = _parse_dims(spec["dims"], f"{path}.random.dims")
        seed = parse_seed(spec["seed"], f"{path}.random.seed")
        lo = spec.get("lo", 0)
        if not is_json_int(lo):
            raise _fail(f"{path}.random.lo", "expected an integer")
        return random_complex(dims, seed, lo=lo)
    dims = _parse_dims(value.get("dims"), f"{path}.dims")
    lo = value.get("lo", 0)
    if not is_json_int(lo):
        raise _fail(f"{path}.lo", "expected an integer")
    differentials = {}
    for key, matrix in _object_field(value, "differentials", path).items():
        try:  # int refuses more digits than sys.get_int_max_str_digits()
            if _DEGREE_KEY.fullmatch(key) is None:
                raise ValueError(key)
            degree = int(key)
        except ValueError as exc:
            message = f"keys are integer degrees like '0' or '-1'; got {key!r}"
            raise _fail(f"{path}.differentials", message) from exc
        differentials[degree] = parse_matrix(matrix, f"{path}.differentials.{key}")
    try:
        return FiniteComplex(lo, tuple(dims), differentials)
    except ToolkitError as exc:
        raise _fail(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# Factor models


def parse_factor_model(value: Any, path: str) -> DbarFactorModel:
    if not isinstance(value, dict):
        raise _fail(path, "expected an object")
    if "builtin" in value:
        name = value["builtin"]
        if not isinstance(name, str) or name not in BUILTIN_BUILDERS:
            raise _fail(f"{path}.builtin", f"unknown builtin model {name!r}; have {sorted(BUILTIN_BUILDERS)}")
        return BUILTIN_BUILDERS[name]()
    name = value.get("name")
    if not isinstance(name, str):
        raise _fail(f"{path}.name", "expected a string")
    dimension = value.get("complex_dimension")
    if not is_json_int(dimension) or dimension < 1:
        raise _fail(f"{path}.complex_dimension", "expected a positive integer")
    closed_range = value.get("closed_range", False)
    if not isinstance(closed_range, bool):
        raise _fail(f"{path}.closed_range", "expected true or false")
    box: dict[tuple[int, int], OperatorSpectrum | None] = {}
    # Each distinct entry is parsed once and shared by its bidegrees, keyed by
    # its repr: ``==`` would equate 1, 1.0 and true, which parse differently.
    parsed: dict[str, OperatorSpectrum] = {}
    for key, entry in _object_field(value, "box_spectrum", path).items():
        bidegree = _parse_bidegree_key(key, f"{path}.box_spectrum")
        if entry is None:
            box[bidegree] = None
            continue
        text = repr(entry)
        if text not in parsed:
            parsed[text] = parse_operator_spectrum(entry, f"{path}.box_spectrum['{key}']")
        box[bidegree] = parsed[text]
    cohom: dict[tuple[int, int], Mult | None] = {}
    for key, entry in _object_field(value, "cohomology_dim", path).items():
        bidegree = _parse_bidegree_key(key, f"{path}.cohomology_dim")
        cohom[bidegree] = parse_extended_count(entry, f"{path}.cohomology_dim['{key}']")
    bergman = parse_extended_count(value.get("bergman_dim"), f"{path}.bergman_dim")
    try:
        return DbarFactorModel(
            name=name,
            complex_dimension=dimension,
            box_spectrum=box,
            closed_range=closed_range,
            bergman_dim=bergman,
            cohomology_dim=cohom,
        )
    except (ToolkitError, ValueError) as exc:
        raise _fail(path, str(exc)) from exc


# One spelling per bidegree, so no two keys of one object name the same one.
_BIDEGREE_KEY = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")


def _parse_bidegree_key(key: str, path: str) -> tuple[int, int]:
    match = _BIDEGREE_KEY.fullmatch(key)
    try:
        if match is not None:
            # int refuses more digits than sys.get_int_max_str_digits()
            return int(match[1]), int(match[2])
    except ValueError:
        pass
    raise _fail(path, f"bidegree keys look like 'p,q'; got {key!r}")


# ---------------------------------------------------------------------------
# Reports


def dump_report(report: dict) -> str:
    """Canonical JSON text for a report; byte-stable for identical inputs.

    This is the one report writer: ``--csv`` flattens the text it returns.
    The text is ``json.dumps(..., sort_keys=True, indent=2)`` and a newline,
    written in one pass over the report: keys are converted by ``str`` and
    sorted, strings ASCII-escaped, an infinite float is ``"inf"`` or
    ``"-inf"``, a ``Fraction`` is its ``"p/q"`` string, a complex number is
    ``[re, im]``, and spectral sets are written straight from their keys.  A
    leaf of any other type raises ``TypeError``, as ``json.dumps`` does, and
    so does a subclass of list or tuple, such as a NamedTuple record.  A
    NaN, or a rational or integer no report can print, raises
    ``UnprintableResultError`` before any text is returned.
    """
    out: list[str] = []
    _write(report, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value: Any, out: list[str], newline: str) -> None:
    """Append the JSON text of ``value``, nested at ``newline`` (a line
    break and the current indent), to ``out``."""
    if isinstance(value, str):
        out.append(_json_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(_printable_int(value)))
    elif isinstance(value, float):
        if value != value:
            raise UnprintableResultError("a result is NaN")
        text = float.__repr__(value)
        out.append(f'"{text}"' if math.isinf(value) else text)
    elif isinstance(value, dict):
        _write_items(sorted({str(k): v for k, v in value.items()}.items()), "{}", out, newline)
    elif type(value) in (list, tuple):  # a NamedTuple record is no report leaf
        _write_items(value, "[]", out, newline)
    elif isinstance(value, SpectralSet):
        _write_spectral_set(value, out, newline)
    elif isinstance(value, Fraction):
        out.append(f'"{_ratio_to_json(value.numerator, value.denominator)}"')
    elif isinstance(value, complex):
        _write_items((value.real, value.imag), "[]", out, newline)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_items(items: Any, brackets: str, out: list[str], newline: str) -> None:
    """An array of ``items``, or with ``brackets`` ``"{}"`` an object of
    ``(key, value)`` pairs, one member per line."""
    if not items:
        out.append(brackets)
        return
    inner = newline + "  "
    separator = brackets[0] + inner
    for item in items:
        out.append(separator)
        if brackets == "{}":
            key, item = item
            out.append(_json_string(key) + ": ")
        _write(item, out, inner)
        separator = "," + inner
    out.append(newline + brackets[1])
