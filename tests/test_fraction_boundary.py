"""``spectra`` builds ``Fraction`` objects only at its boundary.

A spectral set is a lattice scale and integer keys, and every operation
between sets rescales keys by integer multiplication.  A ``Fraction(...)``
call anywhere else in ``spectra.py`` would bring back the round trips through
rationals that the key representation removed.  The walk is syntactic: it
finds every call of ``Fraction`` and names the function (or method, as
``Class.name``) that holds it.  ``FRACTION_CALLERS`` lists where a call
belongs.
"""

import ast
from pathlib import Path

import hcspec.spectra

SPECTRA = Path(hcspec.spectra.__file__)

#: Functions of ``spectra.py`` that may call ``Fraction``, with the reason.
FRACTION_CALLERS = {
    "as_rational": "the atom front end: coerces ints and strings given to atoms and queries",
    "SpectralSet.atoms": "the lazy view of the keys as Point and AP atoms",
    "enumerate_below": "its output, a list of values",
    "find_uncovered": "its output, one witness value",
}


def _fraction_callers() -> list[str]:
    """The qualified name of the function around each ``Fraction(...)`` call."""
    callers = []

    def walk(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Fraction":
                    callers.append(".".join(scope) or "<module>")
            walk(child, scope)

    walk(ast.parse(SPECTRA.read_text(encoding="utf-8")), ())
    return callers


def test_fraction_is_built_only_at_the_boundary():
    stray = sorted(set(_fraction_callers()) - set(FRACTION_CALLERS))
    assert not stray, f"Fraction(...) called outside the boundary in: {stray}"


def test_every_boundary_entry_still_builds_fractions():
    # an entry that no longer calls Fraction no longer needs its place
    assert set(FRACTION_CALLERS) <= set(_fraction_callers())
