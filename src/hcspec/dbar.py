"""Compactness analysis for the weighted Cauchy-Riemann complex on products.

A factor model captures, per bidegree ``(p, q)``, the spectrum and essential
spectrum of the complex Laplacian (the box operator) of one Hermitian factor,
together with a closed-range attestation, the Bergman space dimension, and
cohomology dimensions.  A Hilbert complex graded by one degree is the
``(0, q)`` row of such a model, as the Cauchy-Riemann complex at fixed ``p``
is: ``complex_dimension`` is its top degree, and a degree without a space
holds ``OperatorSpectrum(EMPTY)``, a known zero space.  Products use the one
product formula of :mod:`hcspec.spectra`, with one term per splitting of the
bidegree into one bidegree per factor (:func:`_splittings`; for n
one-dimensional factors at ``(0, q)``, the bit vectors of weight ``q``); its
unions run in term order, then factor order, because ``normalize`` is not
associative on representation.

Convention: as in the paper, the Neumann operator N is the inverse of the box
operator on the orthogonal complement of its kernel and 0 on the kernel, so
with closed range N is compact exactly when the essential spectrum of the
product box operator lies within ``{0}``.  The essential spectrum is the
union of the parts ``E_j + Σ_{i≠j} S_i`` of each term, and a part is a
witness exactly when it leaves ``{0}``.  Every verdict decides this from
flags of the entries, with no Minkowski sum (:func:`_leaving`): a part is
empty when any entry is empty, since an essential spectrum lies within its
own spectrum; otherwise every summand is nonempty and all values are
nonnegative, so the part leaves ``{0}`` exactly when one summand does.  The
verdict is compact when no part leaves ``{0}``.  So ``{0:∞} ⊗ {0:1}`` at
degree 0, with the essential spectrum ``{0:∞}`` (a kernel, on which N is 0),
is compact, and the rule name ``essential-spectrum-empty`` means "no
essential value outside ``{0}``".

Two shortcut rules (:func:`_shortcut`) decide a non-compact verdict even
where parts of the factor data are unknown: an infinite Bergman space on
factor ``j``, and a non-compact solution operator on factor ``j``.  Each
argues from a splitting in which no entry of another factor is known to lie
within ``{0}`` (the empty spectrum included); factor ``j``'s own entry is not
tested.  ``dbar-n`` consults them first, ``dbar`` only when an entry is
unknown, and with every entry known part ``j`` of that splitting leaves
``{0}``, so a shortcut never contradicts the direct rule.  Unknown entries are
``None``; without a shortcut they make the verdict undecidable.  Models are
presumed to describe genuine manifolds, so the rules treat an unknown entry as
one that leaves ``{0}``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Mapping, Sequence

from .errors import ToolkitError
from .records import FrozenRecord
from .spectra import (
    AP,
    EMPTY,
    INFINITE,
    Mult,
    OperatorSpectrum,
    Point,
    SpectralSet,
    covered_by_progression,
    is_infinite,
    is_subset_of_zero,
    minkowski_sum,
    multiplicity_at,
    product_essential,
    product_operator,
)


# The Gaussian weight's ladder, frozen conclusions of the ladder-operator
# oracle in :mod:`hcspec.gaussian_oracle`: a unit ladder from 0 on functions
# and from 1 on forms.
FUNCTION_LADDER_BASE = 0
FORM_LADDER_BASE = 1
LADDER_STEP = 1


class BidegreeOutOfRangeError(ToolkitError):
    """The requested (p, q) lies outside the admissible bidegree range."""


class BadDimensionError(ToolkitError):
    """A factor has the wrong complex dimension for the requested report."""


class TooFewFactorsError(ToolkitError, ValueError):
    """An n-factor report was asked for fewer than two factors."""


class BitVectorBudgetError(ToolkitError):
    """An n-factor report would fold more than ``BIT_VECTOR_CAP`` bit vectors."""


class MissingAttestationError(ToolkitError):
    """A compactness question was posed without closed-range attestations."""


#: Most weight-q bit vectors (``math.comb(n, q)``) an n-factor report folds:
#: every degree of up to 12 factors.
BIT_VECTOR_CAP = 2**10

#: Largest complex dimension of a factor model, checked before its grids are
#: built: two factors then have at most 32² = ``BIT_VECTOR_CAP`` splittings of
#: one bidegree.
MAX_COMPLEX_DIMENSION = 31


class Verdict(str, Enum):
    COMPACT = "compact"
    NONCOMPACT = "non-compact"
    UNDECIDABLE = "undecidable"


class CompactnessReport(FrozenRecord):
    """Structured compactness verdict with the rule that decided it.

    ``spectrum`` is the product spectrum, when the pairwise report knew
    every entry."""

    __slots__ = ("verdict", "fired_rule", "witnesses", "essential_spectrum", "trace", "spectrum")

    def __init__(
        self,
        verdict: Verdict,
        fired_rule: str,
        witnesses: tuple,
        essential_spectrum: SpectralSet,
        trace: tuple[str, ...] = (),
        spectrum: SpectralSet | None = None,
    ) -> None:
        if verdict is Verdict.NONCOMPACT and not witnesses:
            raise ValueError("a non-compact verdict requires witnesses")
        if verdict is Verdict.COMPACT and not is_subset_of_zero(essential_spectrum):
            raise ValueError("a compact verdict requires essential spectrum within {0}")
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "fired_rule", fired_rule)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "essential_spectrum", essential_spectrum)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "spectrum", spectrum)


class DbarFactorModel(FrozenRecord):
    """Per-bidegree spectral data of one Hermitian factor.

    ``box_spectrum`` maps every bidegree in ``{0..n} x {0..n}`` to an
    :class:`OperatorSpectrum` or ``None`` for unknown; missing entries are
    filled with ``None``.  ``bergman_dim`` and the ``cohomology_dim`` entries
    are positive-or-zero ints, ``INFINITE``, or ``None`` for unknown, and are
    cross-checked against the kernel multiplicities of the box spectra where
    both sides are specified.
    """

    __slots__ = ("name", "complex_dimension", "box_spectrum", "closed_range", "bergman_dim", "cohomology_dim")

    def __init__(
        self,
        name: str,
        complex_dimension: int,
        box_spectrum: Mapping[tuple[int, int], OperatorSpectrum | None] | None = None,
        closed_range: bool = False,
        bergman_dim: Mult | None = None,
        cohomology_dim: Mapping[tuple[int, int], Mult | None] | None = None,
    ) -> None:
        if not 1 <= complex_dimension <= MAX_COMPLEX_DIMENSION:
            raise BadDimensionError(
                f"complex dimension must lie in [1, {MAX_COMPLEX_DIMENSION}], "
                f"got {complex_dimension}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "complex_dimension", complex_dimension)
        grid = self._fill_grid(box_spectrum)
        object.__setattr__(self, "box_spectrum", grid)
        object.__setattr__(self, "closed_range", closed_range)
        object.__setattr__(self, "bergman_dim", bergman_dim)
        cohom = self._fill_grid(cohomology_dim)
        object.__setattr__(self, "cohomology_dim", cohom)

        base = grid[(0, 0)]
        if bergman_dim is not None and base is not None:
            self._check_kernel_dim((0, 0), bergman_dim, base, "Bergman dimension")
            if is_infinite(bergman_dim) and not base.essential.contains(0):
                raise ValueError(
                    f"{name}: infinite Bergman space requires 0 in the "
                    "essential spectrum at bidegree (0, 0)"
                )
        for key, dim in cohom.items():
            entry = grid[key]
            if dim is not None and entry is not None:
                self._check_kernel_dim(key, dim, entry, "cohomology dimension")

    def _fill_grid(self, entries: Mapping[tuple[int, int], object] | None) -> dict:
        """``entries`` on every bidegree of the grid, ``None`` where missing."""
        n = self.complex_dimension
        grid = {(p, q): None for p in range(n + 1) for q in range(n + 1)}
        for key, value in dict(entries or {}).items():
            if key not in grid:
                raise BidegreeOutOfRangeError(
                    f"bidegree {key} outside the {n}-dimensional grid"
                )
            grid[key] = value
        return grid

    def _check_kernel_dim(
        self,
        key: tuple[int, int],
        dim: Mult,
        entry: OperatorSpectrum,
        label: str,
    ) -> None:
        kernel = multiplicity_at(entry.spectrum, 0)
        if is_infinite(dim) != is_infinite(kernel):
            raise ValueError(
                f"{self.name}: {label} at {key} disagrees with the kernel "
                f"multiplicity of the box spectrum ({dim} vs {kernel})"
            )
        if (
            not is_infinite(dim)
            and not covered_by_progression(entry.spectrum, 0)
            and dim != kernel
        ):
            raise ValueError(
                f"{self.name}: {label} at {key} is {dim} but the box spectrum "
                f"has kernel multiplicity {kernel}"
            )

    def known_within_zero(self, p: int, q: int) -> bool:
        """Whether the entry at ``(p, q)`` is known and its spectrum lies
        within ``{0}`` (the empty spectrum included)."""
        entry = self.box_spectrum.get((p, q))
        return entry is not None and is_subset_of_zero(entry.spectrum)


def _splittings(dims: Sequence[int], p: int, q: int) -> list[tuple[tuple[int, int], ...]]:
    """The splittings of ``(p, q)`` into one bidegree per factor, in
    lexicographic order; factor ``j``'s bidegree lies in ``{0..dims[j]}^2``.

    Each factor's range is clipped by what the later factors can still hold,
    so every prefix extends to a splitting; ``(p, q)`` outside the product's
    grid has none.
    """
    rooms = [sum(dims[j + 1 :]) for j in range(len(dims))]
    level = [((), p, q)]
    for dim, room in zip(dims, rooms):
        level = [
            (prefix + ((pj, qj),), p_left - pj, q_left - qj)
            for prefix, p_left, q_left in level
            for pj in range(max(0, p_left - room), min(p_left, dim) + 1)
            for qj in range(max(0, q_left - room), min(q_left, dim) + 1)
        ]
    return [prefix for prefix, _, _ in level]


def _entries(
    factors: Sequence[DbarFactorModel], splits: Sequence[tuple[tuple[int, int], ...]]
) -> list[tuple[OperatorSpectrum, ...]] | None:
    """The factor entries of each splitting, or ``None`` if one is unknown."""
    terms = []
    for split in splits:
        term = tuple(factor.box_spectrum[bidegree] for factor, bidegree in zip(factors, split))
        if any(entry is None for entry in term):
            return None
        terms.append(term)
    return terms


def _terms(factors: Sequence[DbarFactorModel], p: int, q: int):
    """The splittings of ``(p, q)`` over ``factors`` and their entries
    (``None`` if one is unknown), after the checks every report makes."""
    if not all(factor.closed_range for factor in factors):
        raise MissingAttestationError(
            "compactness criteria require closed-range attestations on all factors"
        )
    total = sum(factor.complex_dimension for factor in factors)
    if not (0 <= p <= total and 0 <= q <= total):
        raise BidegreeOutOfRangeError(f"bidegree ({p}, {q}) outside [0, {total}]^2")
    splits = _splittings([factor.complex_dimension for factor in factors], p, q)
    return splits, _entries(factors, splits)


def _leaving(term: Sequence[OperatorSpectrum]) -> list[int]:
    """The factors ``j`` whose part ``E_j + Σ_{i≠j} S_i`` leaves ``{0}``.

    The part is empty if any entry is empty.  Otherwise all its summands are
    nonempty sets of nonnegative values, so it leaves ``{0}`` exactly when
    some summand does.
    """
    if any(entry.is_empty() for entry in term):
        return []
    outside = [not is_subset_of_zero(entry.spectrum) for entry in term]
    return [
        j
        for j, entry in enumerate(term)
        if not entry.essential.is_empty()
        and (not is_subset_of_zero(entry.essential) or sum(outside) > outside[j])
    ]


_KERNEL = SpectralSet.of(Point(0, INFINITE))


def _shortcut(factors: Sequence[DbarFactorModel], splits: Sequence[tuple[tuple[int, int], ...]]):
    """The first shortcut rule that fires, as ``(rule, j, split, argued set)``,
    or ``None``.

    The Bergman rule argues ``{0:∞}`` from factor ``j``'s bidegree ``(0, 0)``,
    for every factor with an infinite Bergman space; then the solution-operator
    rule argues the essential spectrum of every known entry whose essential
    spectrum leaves ``{0}``.  Each fires through the first splitting that puts
    factor ``j`` at that bidegree and no other factor at an entry known to lie
    within ``{0}``.
    """
    argued = [
        ("infinite-bergman-space", j, (0, 0), _KERNEL)
        for j, factor in enumerate(factors)
        if is_infinite(factor.bergman_dim)
    ] + [
        ("noncompact-factor-solution-operator", j, bidegree, entry.essential)
        for j, factor in enumerate(factors)
        for bidegree, entry in factor.box_spectrum.items()
        if entry is not None and not is_subset_of_zero(entry.essential)
    ]
    for rule, j, bidegree, argued_set in argued:
        for split in splits:
            if split[j] == bidegree and not any(
                other.known_within_zero(*other_bidegree)
                for i, (other, other_bidegree) in enumerate(zip(factors, split))
                if i != j
            ):
                return rule, j, split, argued_set
    return None


def neumann_compactness(
    x: DbarFactorModel, y: DbarFactorModel, p: int, q: int
) -> CompactnessReport:
    """Compactness of the product inverse box operator at bidegree ``(p, q)``.

    Compact exactly when the essential spectrum of the product box operator
    lies within ``{0}`` (the module's convention); the witnesses are the
    splittings ``(p', q', p'', q'')`` with a part outside ``{0}``.  With every
    entry known, the report also carries the product spectrum: one fold of
    :func:`hcspec.spectra.product_operator` over all splittings
    ``p = p' + p''`` and ``q = q' + q''``.  A graded Hilbert complex is
    judged as the ``(0, q)`` row of a model, at ``p = 0``.  Only when an
    entry is unknown are the shortcut rules consulted: a rule that fires
    gives a non-compact verdict witnessed by the splitting it argued from,
    whose essential spectrum is the argued set plus the other entry's
    spectrum, or empty when that entry is unknown.  Otherwise unknown entries
    make the verdict undecidable.
    """
    splits, terms = _terms((x, y), p, q)
    if terms is None:
        fired = _shortcut((x, y), splits)
        if fired is None:
            return CompactnessReport(Verdict.UNDECIDABLE, "unknown-factor-data", (), EMPTY)
        rule, j, split, argued = fired
        other = (x, y)[1 - j].box_spectrum[split[1 - j]]
        essential = EMPTY if other is None else minkowski_sum(argued, other.spectrum)
        return CompactnessReport(Verdict.NONCOMPACT, rule, (sum(split, ()),), essential)

    product = product_operator(terms)
    witnesses = tuple(
        dict.fromkeys(sum(split, ()) for split, term in zip(splits, terms) if _leaving(term))
    )
    verdict, rule = (
        (Verdict.NONCOMPACT, "factor-essential-contribution")
        if witnesses
        else (Verdict.COMPACT, "essential-spectrum-empty")
    )
    return CompactnessReport(verdict, rule, witnesses, product.essential, spectrum=product.spectrum)


# ---------------------------------------------------------------------------
# Products of several one-dimensional factors


def _uniform_term_noncompact(factors: Sequence[DbarFactorModel], bit: int) -> bool | None:
    """Whether some part of the one bit vector ``(bit,) * n`` leaves ``{0}``;
    ``None`` if an entry is unknown."""
    entries = [factor.box_spectrum[(0, bit)] for factor in factors]
    if any(entry is None for entry in entries):
        return None
    return bool(_leaving(entries))


_SHORTCUT_TRACE = {
    "infinite-bergman-space": "an infinite Bergman space",
    "noncompact-factor-solution-operator": "a non-compact solution operator",
}


def riemann_surface_product_report(
    factors: Sequence[DbarFactorModel], q: int
) -> CompactnessReport:
    """Compactness of the inverse box operator on ``(0, q)`` forms of an
    n-fold product of one-dimensional factors.

    The essential spectrum is the union, over bit vectors K of weight ``q``,
    of each factor's essential spectrum at its bit summed with the spectra of
    the others at theirs; the witnesses ``(j, *K)`` are the parts outside
    ``{0}`` (the module's convention).  The shortcut rules are consulted
    first, on complete data too: a rule that fires for factor ``j`` gives a
    non-compact verdict witnessed by ``(j, 0, …, 0)``, with a trace line
    naming the rule.  So an infinite Bergman space on factor ``j`` decides
    every ``q <= n - 1``, and a non-compact solution operator every ``q``
    whose bit vectors reach the bad entry.  The trace records which
    monotonicity rules applied.  More than ``BIT_VECTOR_CAP`` bit vectors of
    weight ``q`` is a :class:`BitVectorBudgetError`, raised before any fold.
    """
    n = len(factors)
    if n < 2:
        raise TooFewFactorsError(f"the product report needs at least two factors, got {n}")
    for factor in factors:
        if factor.complex_dimension != 1:
            raise BadDimensionError(
                f"factor {factor.name!r} has complex dimension "
                f"{factor.complex_dimension}, expected 1"
            )
    if q >= 0 and math.comb(n, q) > BIT_VECTOR_CAP:  # _terms refuses a negative q
        raise BitVectorBudgetError(
            f"{n} factors have {math.comb(n, q)} bit vectors of weight {q}, "
            f"above the cap {BIT_VECTOR_CAP}"
        )

    splits, terms = _terms(factors, 0, q)
    essential = product_essential(terms) if terms is not None else EMPTY
    fired = _shortcut(factors, splits)
    if fired is not None:
        rule, j, _, _ = fired
        line = f"factor {j} has {_SHORTCUT_TRACE[rule]}"
        return CompactnessReport(Verdict.NONCOMPACT, rule, ((j,) + (0,) * n,), essential, (line,))
    if terms is None:
        return CompactnessReport(Verdict.UNDECIDABLE, "unknown-factor-data", (), EMPTY)

    trace: list[str] = []
    bottom = _uniform_term_noncompact(factors, 0)
    top = _uniform_term_noncompact(factors, 1)
    if bottom and q <= n - 1:
        trace.append("non-compact at degree 0 propagates to all degrees below n")
    if top and q >= 1:
        trace.append("non-compact at degree n propagates to all degrees above 0")
    if 1 <= q <= n - 1 and bottom is not None and top is not None:
        trace.append("middle degrees are compact exactly when degrees 0 and n are")

    witnesses = tuple(
        (j, *(bit for _, bit in split))
        for split, term in zip(splits, terms)
        for j in _leaving(term)
    )
    if not witnesses:
        return CompactnessReport(
            Verdict.COMPACT, "essential-spectrum-empty", (), essential, tuple(trace)
        )
    return CompactnessReport(
        Verdict.NONCOMPACT, "essential-spectrum-nonempty", witnesses, essential, tuple(trace)
    )


# ---------------------------------------------------------------------------
# Catalogue


def _mirror_p_degrees(
    entries: dict[tuple[int, int], OperatorSpectrum]
) -> dict[tuple[int, int], OperatorSpectrum]:
    """Copy (0, q) data to (1, q); adequate for line factors with flat bundles."""
    full = dict(entries)
    for (p, q), value in entries.items():
        if p == 0:
            full.setdefault((1, q), value)
    return full


def _abstract_compact_factor() -> DbarFactorModel:
    discrete = OperatorSpectrum(SpectralSet.of(Point(0, 1), AP(1, 1)))
    positive = OperatorSpectrum(SpectralSet.of(AP(1, 1)))
    return DbarFactorModel(
        name="abstract-compact-factor",
        complex_dimension=1,
        box_spectrum={(0, 0): discrete, (0, 1): positive, (1, 0): positive, (1, 1): discrete},
        closed_range=True,
        bergman_dim=1,
        cohomology_dim={(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    )


def _infinite_bergman_factor() -> DbarFactorModel:
    kernel_heavy = OperatorSpectrum(SpectralSet.of(Point(0, INFINITE), AP(1, 1)))
    positive = OperatorSpectrum(SpectralSet.of(AP(1, 1)))
    return DbarFactorModel(
        name="infinite-bergman-factor",
        complex_dimension=1,
        box_spectrum=_mirror_p_degrees({(0, 0): kernel_heavy, (0, 1): positive}),
        closed_range=True,
        bergman_dim=INFINITE,
        cohomology_dim={(0, 0): INFINITE, (0, 1): 0, (1, 0): INFINITE, (1, 1): 0},
    )


def _gaussian_weight_line() -> DbarFactorModel:
    functions = OperatorSpectrum(
        SpectralSet.of(AP(FUNCTION_LADDER_BASE, LADDER_STEP, INFINITE))
    )
    forms = OperatorSpectrum(SpectralSet.of(AP(FORM_LADDER_BASE, LADDER_STEP, INFINITE)))
    return DbarFactorModel(
        name="gaussian-weight-line",
        complex_dimension=1,
        box_spectrum=_mirror_p_degrees({(0, 0): functions, (0, 1): forms}),
        closed_range=True,
        bergman_dim=INFINITE,
        cohomology_dim={(0, 0): INFINITE, (0, 1): 0, (1, 0): INFINITE, (1, 1): 0},
    )


#: Name -> constructor of every factor model shipped with the package; a
#: scenario's ``{"builtin": name}`` builds only the model it names.
BUILTIN_BUILDERS: dict[str, Callable[[], DbarFactorModel]] = {
    "abstract-compact-factor": _abstract_compact_factor,
    "infinite-bergman-factor": _infinite_bergman_factor,
    "gaussian-weight-line": _gaussian_weight_line,
}


def builtin_models() -> dict[str, DbarFactorModel]:
    """Named factor models shipped with the package.

    The Gaussian entry's progression parameters come from the ladder-operator
    oracle in :mod:`hcspec.gaussian_oracle` and are regenerated by the test
    suite rather than trusted as typed-in constants.
    """
    return {name: build() for name, build in BUILTIN_BUILDERS.items()}
