"""Exact symbolic algebra of spectra of positive self-adjoint operators.

A spectral set is a finite union of atoms, each either a single point or an
upward arithmetic progression ``{base + n*step : n >= 0}``, with values in the
nonnegative rationals.  Atoms carry a per-point multiplicity annotation that is
either a positive integer or infinite.  This atom class is closed under union
and Minkowski sum (the sum of two progressions is governed by the numerical
semigroup generated by their step ratio), and it supports an exact essential
part: within the class the only way a value can belong to the essential
spectrum is to carry infinite multiplicity, since progressions have no finite
accumulation points.

Multiplicity bookkeeping is exact for isolated points, but a Minkowski sum of
two progressions produces tail points whose true multiplicities vary from
point to point.  A progression atom stores a single annotation, so on such
tails only the finite/infinite distinction is meaningful; the annotation then
records the product of the input annotations as a nominal value.  The
enumeration oracle compares sums at this class level, and exactly for inputs
consisting of points only.

A :class:`SpectralSet` is its lattice: the least ``L`` with every value on
``(1/L)·ℤ``, and one integer key per atom.  ``Fraction`` appears only at the
boundary: atoms are keyed once, the parser keys text (:func:`normalize_ratios`),
reports print ``k/L`` reduced, and ``atoms`` is a view built on first use.
Operations on sets rescale keys to a common ``L`` by integer multiplication and
hand them to one set of merge rules (:func:`_normalize_keys`).  The result is
still not associative on representation (see :func:`normalize`).  A sum expands
each Frobenius gap one value at a time, so more than ``GAP_BUDGET`` gap values
in one sum is a :class:`SymbolicBudgetError`, raised before anything is built.

One kernel enumerates values below a cutoff, for the oracle
:func:`minkowski_oracle_check`, :func:`enumerate_below` and the fuzz checks,
in one flat pass: on the integer lattice ``(1/L)·ℤ``, ``L`` the lcm of every
denominator involved, the key columns of all its sets become int64 arrays at
once, and each atom's terms below the cutoff are expanded once, with infinite
flags and without deduplication.  The oracle adds every pair of summand terms
at once and finds each sum among the sorted distinct values of the claimed
sum by binary search; it never calls :func:`minkowski_sum`, its per-atom sums
or its gap points.  Exact counts are Python ints, built only where they are
read.  More than ``ORACLE_PAIR_CAP`` values of one set, or value pairs, is an
:class:`OracleBudgetError`, raised before anything is enumerated.  This kernel
is the only part of the module that uses numpy, and it imports numpy where
it runs, so the exact operations never load it.

The product formula is written once, in :func:`product_essential` (the
essential spectrum as a union of parts, one factor's essential spectrum summed
with the other factors' spectra) and :func:`product_operator`.  Both fold the
factor spectra left to right, and every sum, of a fold step or of a part
(essential spectrum plus others' sum), goes through one memo keyed by the
operand value pair, local to the call, so each distinct pair is summed once
per call.  The unions of the parts, and of the terms' sums, go through a
second memo of the same kind, so each distinct pair is unioned once per
call.  This module holds no verdict: those are in :mod:`hcspec.dbar`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, pairwise, product, repeat, starmap
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, Union

from .errors import ToolkitError
from .records import FrozenRecord

if TYPE_CHECKING:
    import numpy as np

#: Infinite multiplicity marker.  Finite multiplicities are positive ints.
INFINITE: float = math.inf

Mult = Union[int, float]
RationalLike = Union[Fraction, int, str]


class EssentialNotContainedError(ToolkitError):
    """An asserted essential spectrum has a point outside the spectrum."""


class OracleBudgetError(ToolkitError):
    """The enumeration oracle would exceed its budget; nothing was enumerated."""


class SymbolicBudgetError(ToolkitError):
    """A Minkowski sum would expand too many Frobenius gap values; nothing was built."""


#: Most value pairs (values of ``a`` times values of ``b`` below the cutoff)
#: the enumeration oracle adds up; it also bounds the values of each set.
ORACLE_PAIR_CAP = 2**20

#: Most Frobenius gap values ``(p - 1)(q - 1)``, summed over its progression
#: pairs, that one :func:`minkowski_sum` expands into points.
GAP_BUDGET = 2**16

# Lattice indices stay below this, so a sum of two indices fits in int64.
_LATTICE_CAP = 2**62


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and strings like ``"3/2"`` to ``Fraction``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def is_infinite(mult: Mult) -> bool:
    return isinstance(mult, float) and math.isinf(mult)


def _check_mult(mult: Mult) -> Mult:
    if is_infinite(mult):
        return INFINITE
    if isinstance(mult, int) and not isinstance(mult, bool) and mult >= 1:
        return mult
    raise ValueError(f"multiplicity must be a positive integer or INFINITE, got {mult!r}")


class Point(FrozenRecord):
    """A single spectral value with its multiplicity."""

    __slots__ = ("value", "mult")

    def __init__(self, value: RationalLike, mult: Mult = 1) -> None:
        object.__setattr__(self, "value", as_rational(value))
        object.__setattr__(self, "mult", _check_mult(mult))
        if self.value < 0:
            raise ValueError("spectral values must be nonnegative")


class AP(FrozenRecord):
    """The arithmetic progression ``{base + n*step : n >= 0}``."""

    __slots__ = ("base", "step", "mult")

    def __init__(self, base: RationalLike, step: RationalLike, mult: Mult = 1) -> None:
        object.__setattr__(self, "base", as_rational(base))
        object.__setattr__(self, "step", as_rational(step))
        object.__setattr__(self, "mult", _check_mult(mult))
        if self.base < 0:
            raise ValueError("progression base must be nonnegative")
        if self.step <= 0:
            raise ValueError("progression step must be positive")


Atom = Union[Point, AP]


class SpectralSet:
    """A normalized finite union of spectral atoms; ``()`` is the empty spectrum.

    ``scale`` is ``L``, the lcm of the atoms' denominators, and ``keys``
    holds each atom as ``(value or base times L, 0 for a point or 1 for a
    progression, step times L or 0, mult)``; sets compare and hash by both.
    ``atoms`` views the keys as :class:`Point` and :class:`AP`, built on first
    use, and the hash is kept from the first ``hash``.  Build sets through
    :func:`normalize` (or :meth:`of`); the constructor trusts its atoms and
    keeps them, in order, as the view.
    """

    __slots__ = ("scale", "keys", "_atoms", "_hash")

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._atoms = tuple(atoms)
        self.scale, self.keys = _ratio_keys(map(_ratio, self._atoms))
        self._hash = None

    @classmethod
    def _on_keys(cls, scale: int, keys: tuple[tuple, ...]) -> "SpectralSet":
        new = cls.__new__(cls)
        new.scale, new.keys, new._atoms, new._hash = scale, keys, None, None
        return new

    @property
    def atoms(self) -> tuple[Atom, ...]:
        if self._atoms is None:
            scale = self.scale
            self._atoms = tuple(
                AP(Fraction(value, scale), Fraction(step, scale), mult)
                if kind
                else Point(Fraction(value, scale), mult)
                for value, kind, step, mult in self.keys
            )
        return self._atoms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpectralSet) and (self.scale, self.keys) == (other.scale, other.keys)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.scale, self.keys))
        return self._hash

    def __repr__(self) -> str:
        return f"SpectralSet(atoms={self.atoms!r})"

    @classmethod
    def of(cls, *atoms: Atom) -> "SpectralSet":
        return normalize(atoms)

    def is_empty(self) -> bool:
        return not self.keys

    def contains(self, value: RationalLike) -> bool:
        index = _index(self, value)
        return index is not None and any(_covers(key, index) for key in self.keys)


EMPTY = SpectralSet._on_keys(1, ())


def normalize(atoms: Iterable[Atom]) -> SpectralSet:
    """Canonical form of a collection of atoms.

    Merging rules, applied to a fixed point:

    - points with equal value merge, adding multiplicities (infinite absorbs);
    - progressions with equal base and step merge the same way;
    - any atom whose points all lie on a progression of infinite multiplicity
      is absorbed by it;
    - a point lying on a progression with the same finite multiplicity is
      absorbed by it;
    - a point sitting one step below a progression with the same multiplicity
      extends that progression downward.

    The rules run on lattice keys (see :class:`SpectralSet`), which sort in
    the order of the values; no rule leaves the lattice.  This function keys
    atoms; the rules live in :func:`_normalize_keys`, which every other
    operation feeds with keys it has rescaled or built.  They are homogeneous
    in ``L``, so any common multiple of the denominators gives the same
    result, kept on the least one.  Its atoms are a view of its keys, never
    the input objects.

    Absorption into a progression keeps the point set and the per-point
    finite/infinite class exact; nominal finite counts on progression-covered
    values are class-level only (see the module docstring).  The result is not
    associative on representation: ``{0:1} ∪ AP(1, 1, 1)`` extends the
    progression to ``AP(0, 1, 1)``, which then absorbs a second ``{0:1}``,
    while the two points first merge to ``{0:2}``, which does not extend it.
    """
    return _normalize_keys(*_ratio_keys(map(_ratio, atoms)))


def _ratio(atom: Atom) -> tuple[int, int, int, int, Mult]:
    """An atom as ``(value or base numerator, its denominator, step numerator,
    its denominator, mult)``, a point with the step ``0/1``."""
    if isinstance(atom, Point):
        return atom.value.numerator, atom.value.denominator, 0, 1, atom.mult
    if isinstance(atom, AP):
        base, step = atom.base, atom.step
        return base.numerator, base.denominator, step.numerator, step.denominator, atom.mult
    raise TypeError(f"not a spectral atom: {atom!r}")


def _ratio_keys(ratios: Iterable[tuple[int, int, int, int, Mult]]) -> tuple[int, tuple[tuple, ...]]:
    """``L``, the lcm of every denominator of ``ratios`` (1 for none), and
    their keys on ``(1/L)·ℤ``, in order."""
    ratios = tuple(ratios)
    scale = 1
    for _, den, _, step_den, _ in ratios:
        scale = math.lcm(scale, den, step_den)
    keys = [
        (num * (scale // den), 1 if step else 0, step * (scale // step_den), mult)
        for num, den, step, step_den, mult in ratios
    ]
    return scale, tuple(keys)


def normalize_ratios(ratios: Iterable[tuple[int, int, int, int, Mult]]) -> SpectralSet:
    """:func:`normalize` on atoms given as checked ratios (see :func:`_ratio`):
    the parse front end, which builds no atom and no ``Fraction``."""
    return _normalize_keys(*_ratio_keys(ratios))


def _normalize_keys(scale: int, keys: Iterable[tuple]) -> SpectralSet:
    """The merge rules of :func:`normalize` on lattice keys of ``(1/scale)·ℤ``,
    run to a fixed point; the result is on the least lattice of its keys."""
    current, extended = _normalize_pass(keys)
    while extended:
        current, extended = _normalize_pass(current)
    current.sort()
    if scale > 1:  # move to the least lattice of the result
        common = scale
        for value, _, step, _ in current:
            common = math.gcd(common, value, step)
            if common == 1:
                break
        if common > 1:
            scale //= common
            current = [(value // common, kind, step // common, mult) for value, kind, step, mult in current]
    return SpectralSet._on_keys(scale, tuple(current))


def _common_lattice(a: SpectralSet, b: SpectralSet) -> tuple[int, list[tuple], list[tuple]]:
    """The lcm ``L`` of both scales, and the keys of each set on ``(1/L)·ℤ``."""
    scale = math.lcm(a.scale, b.scale)
    return scale, _rescaled(a, scale // a.scale), _rescaled(b, scale // b.scale)


def _rescaled(s: SpectralSet, factor: int) -> list[tuple]:
    if factor == 1:
        return list(s.keys)
    return [(value * factor, kind, step * factor, mult) for value, kind, step, mult in s.keys]


def _normalize_pass(work: Iterable[tuple]) -> tuple[list[tuple], bool]:
    """One round of the merge rules of :func:`normalize` on lattice keys, and
    whether it extended a progression.  A round that extends none ends at the
    fixed point: the next would test the same atoms the same way.  A point
    tests the progressions in (base, step) order.  Points are scanned from the
    top down to the floor ``min(base - step)``, which an extension lowers; a
    point below it can neither lie on a progression nor extend one, so it and
    every lower point go out unchanged.
    """
    points: dict[int, Mult] = {}
    aps: dict[tuple[int, int], Mult] = {}
    for value, kind, step, mult in work:
        try:
            if kind:
                aps[value, step] = aps.get((value, step), 0) + mult
            else:
                points[value] = points.get(value, 0) + mult
        except OverflowError:  # only INFINITE plus an int past the float range
            if kind:
                aps[value, step] = INFINITE
            else:
                points[value] = INFINITE

    if not aps:
        return [(value, 0, 0, mult) for value, mult in points.items()], False
    infinite_aps = [key for key, mult in aps.items() if mult == INFINITE]
    kept_aps: list[tuple] = []  # (base, step, mult) in (base, step) order
    floor = INFINITE  # an int once a progression is kept, which one always is
    for (base, step), mult in sorted(aps.items()):
        for other_base, other_step in infinite_aps:
            if base >= other_base and step % other_step == 0 and (base - other_base) % other_step == 0:
                if base != other_base or step != other_step:  # not the progression itself
                    break
        else:
            kept_aps.append((base, step, mult))
            if base - step < floor:
                floor = base - step

    kept: list[tuple] = []
    extended = False
    descending = sorted(points, reverse=True)
    for position, value in enumerate(descending):
        if value < floor:
            kept += [(lower, 0, 0, points[lower]) for lower in descending[position:]]
            break
        mult = points[value]
        for idx, (base, step, ap_mult) in enumerate(kept_aps):
            if value >= base and (value - base) % step == 0:
                if ap_mult == INFINITE or mult == ap_mult:
                    break
            elif value + step == base and mult == ap_mult:
                kept_aps[idx] = (value, step, ap_mult)
                floor = min(floor, value - step)
                extended = True
                break
        else:
            kept.append((value, 0, 0, mult))
    for base, step, mult in kept_aps:
        kept.append((base, 1, step, mult))
    return kept, extended


def union(a: SpectralSet, b: SpectralSet) -> SpectralSet:
    """Set union with pointwise multiplicity addition (infinite absorbs)."""
    scale, a_keys, b_keys = _common_lattice(a, b)
    return _normalize_keys(scale, a_keys + b_keys)


def minkowski_sum(a: SpectralSet, b: SpectralSet) -> SpectralSet:
    """Exact Minkowski sum ``{x + y}``; empty if either operand is empty.

    Works on lattice keys from start to finish: with ``L`` the lcm of the
    scales of both operands, each pair of keys adds to keys, which go
    to the merge rules of :func:`normalize` (:func:`_normalize_keys`).  A
    point plus a point is a point, and a point plus a progression keeps the
    step.  Two progressions with steps ``g·p`` and ``g·q``, ``p`` and ``q``
    coprime, give a progression of step ``g`` when ``p`` or ``q`` is 1, and
    otherwise the representable gap values ``n ≤ pq - p - q`` as points and
    the tail from ``pq - p - q + 1`` on.  Every output atom is rational, so
    ``L`` only fixes the lattice the rules run on; they are homogeneous in
    it.  The gap points are generated as ``b·q + a·p`` with ``b < p``, with
    no test per value.  Raises :class:`SymbolicBudgetError`, before any gap
    point is built, when the progression pairs have more than ``GAP_BUDGET``
    gap values ``(p - 1)(q - 1)`` in all.
    """
    if not (a.keys and b.keys):
        return EMPTY
    scale, a_keys, b_keys = _common_lattice(a, b)
    keys: list[tuple] = []
    semigroups: list[tuple] = []  # (total, g, p, q, product) of coprime p, q >= 2
    gap_values = 0
    for base, kind, step, mult in a_keys:
        for other_base, other_kind, other_step, other_mult in b_keys:
            total = base + other_base
            infinite = mult == INFINITE or other_mult == INFINITE
            product = INFINITE if infinite else mult * other_mult
            if not (kind and other_kind):  # a point's step key is 0
                keys.append((total, kind | other_kind, step + other_step, product))
                continue
            g = math.gcd(step, other_step)
            p, q = step // g, other_step // g
            if p == 1 or q == 1:
                keys.append((total, 1, g, product))
            else:
                gap_values += (p - 1) * (q - 1)
                semigroups.append((total, g, p, q, product))
    if gap_values > GAP_BUDGET:
        raise SymbolicBudgetError(
            f"the Minkowski sum would expand {gap_values} Frobenius gap values, "
            f"above the budget {GAP_BUDGET}"
        )
    for total, g, p, q, product in semigroups:
        # Coprime p, q >= 2: the reachable n form the numerical semigroup
        # <p, q>, complete past the Frobenius number pq - p - q.  Each
        # reachable n at or below it is b*q + a*p for exactly one b < p and
        # a >= 0 (b*q <= pq - p - q forces b < p), so the point
        # multiplicities are exact there; the points go out grouped by b,
        # and the merge rules, which read keys in any order, sort them.
        last = total + g * (p * q - p - q)
        keys += [
            (value, 0, 0, product)
            for start in range(total, last + 1, g * q)
            for value in range(start, last + 1, g * p)
        ]
        keys.append((last + g, 1, g, product))
    return _normalize_keys(scale, keys)


def essential_part(s: SpectralSet) -> SpectralSet:
    """Points of infinite multiplicity.

    Progression atoms diverge, so they contribute no finite accumulation
    points; only infinite-multiplicity annotations survive.
    """
    keys = [key for key in s.keys if key[3] == INFINITE]
    return _normalize_keys(s.scale, keys) if keys else EMPTY


def multiplicity_at(s: SpectralSet, value: RationalLike) -> Mult:
    """Total multiplicity annotation at one value; 0 when the value is absent.

    Exact for values not covered by progression atoms; class-level otherwise.
    """
    index = _index(s, value)
    if index is None:
        return 0
    total: Mult = 0
    for key in s.keys:
        if _covers(key, index):
            if is_infinite(key[3]):
                return INFINITE
            total += key[3]
    return total


def covered_by_progression(s: SpectralSet, value: RationalLike) -> bool:
    index = _index(s, value)
    return index is not None and any(key[1] and _covers(key, index) for key in s.keys)


def _index(s: SpectralSet, value: RationalLike) -> int | None:
    """``value`` as an index of the lattice ``(1/L)·ℤ`` of ``s``; ``None``
    off it, where no value of ``s`` lies."""
    if isinstance(value, int):
        return value * s.scale
    v = as_rational(value)
    index, rest = divmod(v.numerator * s.scale, v.denominator)
    return None if rest else index


def _covers(key: tuple, index: int) -> bool:
    value, kind, step, _ = key
    if kind:
        return index >= value and (index - value) % step == 0
    return index == value


def enumerate_below(s: SpectralSet, cutoff: RationalLike) -> list[tuple[Fraction, Mult]]:
    """All spectrum values strictly below ``cutoff`` with total multiplicities,
    read off the lattice kernel under its budget (:func:`_on_lattice`)."""
    scale, limit, _, columns = _on_lattice({"s": s}, cutoff)
    ((values, infinite, mults),) = _lattice(*columns)
    index, classes = _classes(values, infinite, limit)
    rows = zip(index.tolist(), _totals(index.size, index.searchsorted(values), mults), classes.tolist())
    return [(Fraction(i, scale), INFINITE if kind == 2 else count) for i, count, kind in rows if kind]


def _on_lattice(sets: Mapping[str, SpectralSet], cutoff: RationalLike):
    """``L``, the lcm of the denominators of the cutoff and of every atom of
    ``sets``, the limit ``cutoff·L``, each set's value count below it, and
    the key columns of all sets, read at once, for :func:`_lattice`.  A point
    is a progression whose stride exceeds the limit.  Starts are clipped to
    the limit and strides to ``limit + 1``, key by key only when some key
    needs it, which keeps every entry in int64.  Raises
    :class:`OracleBudgetError`, before anything is enumerated, when the limit
    reaches ``2**62``, past which a sum of two indices could leave int64, or
    a set has more than ``ORACLE_PAIR_CAP`` values below the cutoff."""
    import numpy as np

    bound = as_rational(cutoff)
    scale = math.lcm(bound.denominator, *(s.scale for s in sets.values()))
    limit = max(0, bound.numerator * (scale // bound.denominator))
    if limit >= _LATTICE_CAP:
        raise OracleBudgetError(
            f"the oracle lattice below the cutoff has {limit} steps of 1/{scale}, "
            f"beyond the cap {_LATTICE_CAP}"
        )
    keys = [s.keys for s in sets.values()]
    values, _, steps, mults = zip(*chain.from_iterable(keys)) if any(keys) else ((),) * 4
    factors = [scale // s.scale for s in sets.values()]
    if max(factors) > 1 or max(values, default=0) > limit or max(steps, default=0) > limit:
        factors = [factor for factor, part in zip(factors, keys) for _ in part]
        values = [min(value * factor, limit) for value, factor in zip(values, factors)]
        steps = [min(step * factor, limit + 1) for step, factor in zip(steps, factors)]
    starts, strides = np.array(values, dtype=np.int64), np.array(steps, dtype=np.int64)
    strides = np.where(strides, strides, limit + 1)  # a point's step key is 0
    lengths = -((starts - limit) // strides)  # ceil((limit - start) / stride)
    ends = np.zeros(lengths.size + 1, dtype=np.int64)  # ends[k]: the terms of the keys before k,
    np.minimum(lengths, ORACLE_PAIR_CAP + 1).cumsum(out=ends[1:])  # capped: a set past it is recounted
    firsts = [0, *accumulate(map(len, keys))]
    spans = list(zip(pairwise(firsts), pairwise(ends[firsts].tolist())))  # keys, terms
    counts = [hi - lo if hi - lo <= ORACLE_PAIR_CAP else sum(lengths[i:j].tolist()) for (i, j), (lo, hi) in spans]
    for name, count in zip(sets, counts):
        _check_budget(count, f"values of {name}")
    infinite = np.array(mults) == INFINITE  # int64, float64 or object: each compares exactly
    return scale, limit, counts, (starts, strides, lengths, infinite, mults, ends, spans)


def _lattice(starts, strides, lengths, infinite, mults, ends, spans):
    """Per set, every term of its atoms below the limit, in key order and not
    deduplicated: values (int64), infinite flags, and multiplicities (Python
    ints, 0 for ``INFINITE``, an iterator read only where counts are)."""
    import numpy as np

    term = np.arange(ends[-1]) - ends[:-1].repeat(lengths)
    values = starts.repeat(lengths) + strides.repeat(lengths) * term
    flags = infinite.repeat(lengths)
    finite = lambda i, j: (0 if mult == INFINITE else mult for mult in islice(mults, i, j))  # noqa: E731
    return [
        (values[lo:hi], flags[lo:hi], chain.from_iterable(map(repeat, finite(i, j), lengths[i:j])))
        for (i, j), (lo, hi) in spans
    ]


def _classes(values: np.ndarray, infinite: np.ndarray, limit: int):
    """The sorted distinct ``values``, then the sentinel ``limit``, which no
    value equals, and per position its class: 1 finite, 2 where an
    ``infinite`` value lands, 0 for the sentinel."""
    import numpy as np

    ordered = np.concatenate((values, [limit]))
    ordered.sort()  # np.unique would hash, which is slower at these sizes
    index = ordered[np.concatenate((ordered[:-1] != ordered[1:], [True]))]
    classes = (index < limit).astype(np.int8)
    classes[index.searchsorted(values[infinite])] = 2
    return index, classes


def _totals(size: int, place: np.ndarray, weights: Iterable[int]) -> list[int]:
    """Exact sums, in Python ints, of ``weights`` at their positions ``place``."""
    totals = [0] * size
    for position, weight in zip(place.tolist(), weights):
        totals[position] += weight
    return totals


def _check_budget(count: int, what: str) -> None:
    if count > ORACLE_PAIR_CAP:
        raise OracleBudgetError(
            f"the oracle would enumerate {count} {what} below the cutoff, "
            f"above the cap {ORACLE_PAIR_CAP}"
        )


def minkowski_oracle_check(
    a: SpectralSet, b: SpectralSet, total: SpectralSet, cutoff: RationalLike
) -> bool:
    """Verify that ``total`` is ``a + b`` below ``cutoff`` by brute force.

    Valid because all values are nonnegative: a sum below the cutoff only uses
    summands below the cutoff.  The three sets go on one lattice
    (:func:`_on_lattice`); every term of ``a`` is added to every term of ``b``
    at once, and each sum is found among the distinct values of ``total`` by
    binary search.  It never calls :func:`minkowski_sum` or the semigroup
    logic behind it and uses no Frobenius bound.  A sum that is no value of
    ``total``, a value that is no sum, or another finite/infinite class fails;
    exact counts are compared, and built, only when both inputs consist of
    points only.  Raises :class:`OracleBudgetError` as :func:`_on_lattice`
    does, or on more than ``ORACLE_PAIR_CAP`` value pairs, before enumerating
    anything."""
    import numpy as np

    _, limit, (n_a, n_b, _), columns = _on_lattice({"a": a, "b": b, "the sum": total}, cutoff)
    _check_budget(n_a * n_b, "value pairs")
    (a_values, a_inf, a_mults), (b_values, b_inf, b_mults), (values, infinite, mults) = _lattice(*columns)
    index, classes = _classes(values, infinite, limit)
    sums = np.add.outer(a_values, b_values)
    below = sums < limit
    sums = sums[below]
    hit = index.searchsorted(sums)
    got = np.zeros(index.size, dtype=np.int8)
    got[hit] = 1
    got[hit[np.logical_or.outer(a_inf, b_inf)[below]]] = 2
    matched = index[hit].tobytes() == sums.tobytes() and got.tobytes() == classes.tobytes()  # equal dtypes
    if not matched or any(key[1] for key in (*a.keys, *b.keys)):
        return matched
    pairs = starmap(mul, compress(product(a_mults, b_mults), below.ravel().tolist()))
    counts = zip(_totals(index.size, hit, pairs), _totals(index.size, index.searchsorted(values), mults))
    return all(x == y for (x, y), kind in zip(counts, classes.tolist()) if kind == 1)


# ---------------------------------------------------------------------------
# Exact containment


def find_uncovered(a: SpectralSet, b: SpectralSet) -> Fraction | None:
    """A witness value in ``a`` that is not in ``b``, or ``None`` if a is a subset.

    Decides containment exactly, on the common lattice of both sets:
    progression tails are reduced to congruence coverage, which is periodic,
    so one period past all thresholds settles the answer.
    """
    scale, a_keys, b_keys = _common_lattice(a, b)
    b_points = {value for value, kind, _, _ in b_keys if not kind}
    b_aps = [(base, step) for base, kind, step, _ in b_keys if kind]
    for value, kind, step, _ in a_keys:
        if kind:
            witness = _find_uncovered_ap(value, step, b_points, b_aps)
        else:
            witness = None if any(_covers(key, value) for key in b_keys) else value
        if witness is not None:
            return Fraction(witness, scale)
    return None


def is_subset(a: SpectralSet, b: SpectralSet) -> bool:
    return find_uncovered(a, b) is None


def is_subset_of_zero(s: SpectralSet) -> bool:
    """True when the point set is contained in ``{0}`` (possibly empty)."""
    return all(not kind and value == 0 for value, kind, _, _ in s.keys)


def _find_uncovered_ap(
    a0: int, s: int, b_points: set[int], b_aps: list[tuple[int, int]]
) -> int | None:
    """An index of the progression ``a0 + n*s`` that nothing covers, or ``None``."""
    congruences: list[tuple[int, int, int]] = []  # (residue, modulus, n_min)
    for b0, t in b_aps:
        g = math.gcd(s, t)
        if (b0 - a0) % g:
            continue
        modulus = t // g
        reduced_s = (s // g) % modulus if modulus > 1 else 0
        rhs = ((b0 - a0) // g) % modulus if modulus > 1 else 0
        residue = (rhs * pow(reduced_s, -1, modulus)) % modulus if modulus > 1 else 0
        n_min = max(0, -((a0 - b0) // s))  # ceil((b0 - a0) / s), at least 0
        congruences.append((residue, modulus, n_min))

    def congruence_covered(n: int) -> bool:
        return any(n >= n_min and (n - r) % m == 0 for (r, m, n_min) in congruences)

    if not congruences:
        # Only finitely many values can be covered by points.
        for n in range(len(b_points) + 1):
            if a0 + n * s not in b_points:
                return a0 + n * s
        return None  # pragma: no cover - pigeonhole guarantees a witness above

    period = math.lcm(*(m for _, m, _ in congruences))
    start = max([0, *(n_min for _, _, n_min in congruences)])
    for n in range(start):
        if not (congruence_covered(n) or a0 + n * s in b_points):
            return a0 + n * s
    for r in range(start, start + period):
        if congruence_covered(r):
            continue
        # This residue class is never congruence-covered; points can only
        # cover finitely many of its members.
        for k in range(len(b_points) + 1):
            v = a0 + (r + k * period) * s
            if v not in b_points:
                return v
    return None


# ---------------------------------------------------------------------------
# Operator spectra and the product formulas


class OperatorSpectrum(FrozenRecord):
    """Spectrum and essential spectrum of one positive self-adjoint operator.

    When ``essential`` is omitted it is derived from the multiplicity
    annotations of ``spectrum``; passing it asserts it, checked only to lie
    in the spectrum (needed to model operators whose essential spectrum
    arises from accumulation, which the atom class cannot express).  Nothing
    records which of the two it was: spectra compare by their two sets.
    """

    __slots__ = ("spectrum", "essential")

    def __init__(self, spectrum: SpectralSet, essential: SpectralSet | None = None) -> None:
        if essential is None:
            essential = essential_part(spectrum)
        else:
            witness = find_uncovered(essential, spectrum)
            if witness is not None:
                raise EssentialNotContainedError(
                    f"essential spectrum point {witness} does not belong to the spectrum"
                )
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "essential", essential)

    def is_empty(self) -> bool:
        return self.spectrum.is_empty()


def _once(
    operation: Callable[[SpectralSet, SpectralSet], SpectralSet], a: SpectralSet, b: SpectralSet, memo: dict
) -> SpectralSet:
    """``operation(a, b)``, a :func:`minkowski_sum` or a :func:`union`, made
    once per ordered value pair in ``memo``, which holds one operation's
    results.  Both read only the values of their operands, so the memo's set
    is the one the call would make."""
    pair = (a, b)
    result = memo.get(pair)
    if result is None:
        result = memo[pair] = operation(a, b)
    return result


def _fold_spectra(factors: Sequence[OperatorSpectrum], sums: dict) -> SpectralSet:
    """Left Minkowski fold of the factor spectra, starting from the first;
    each step sums through the value-pair memo ``sums`` (:func:`_once`)."""
    total = factors[0].spectrum
    for factor in factors[1:]:
        total = _once(minkowski_sum, total, factor.spectrum, sums)
    return total


def _essential_union(terms: Sequence[Sequence[OperatorSpectrum]], sums: dict, unions: dict) -> SpectralSet:
    """The union of the nonempty parts of every term, in term order, then
    factor order; the others' folds and each part ``E_j + others' sum`` sum
    through the value-pair memo ``sums``, and each union of the essential
    spectrum so far with a part goes through ``unions``."""
    essential = EMPTY
    for term in terms:
        for j, own in enumerate(term):
            if own.essential.is_empty():
                continue
            others = _fold_spectra(term[:j] + term[j + 1 :], sums)
            part = _once(minkowski_sum, own.essential, others, sums)
            if not part.is_empty():
                essential = _once(union, essential, part, unions)
    return essential


def product_essential(terms: Sequence[Sequence[OperatorSpectrum]]) -> SpectralSet:
    """Essential spectrum of a product operator.

    Each term lists the factor spectra of one summand of the product (a degree
    or bidegree splitting, or a bit vector), at least two of them.  Part
    ``(t, j)`` is the essential spectrum of factor ``j`` of term ``t`` plus the
    Minkowski sum of the spectra of the term's other factors.  Returns the
    union of the parts, taken incrementally in term order, then factor order,
    since ``normalize`` is not associative on representation.  The sums of
    the other factors fold left to right (:func:`_fold_spectra`), and every
    sum, of a fold step or of a part, goes through one memo keyed by the
    operand value pair (:func:`_once`), so no value pair is summed twice in
    one call.  The unions go through a second such memo: once a part adds
    nothing, the union so far stays the same set, and each later part equal
    to an earlier one is unioned with it once.
    """
    return _essential_union(terms, {}, {})


def product_operator(terms: Sequence[Sequence[OperatorSpectrum]]) -> OperatorSpectrum:
    """Spectrum and essential spectrum of a product operator.

    The spectrum is the union, in term order, of the Minkowski sums of each
    term's factor spectra; the essential spectrum is :func:`product_essential`.
    Both sum through one memo of value pairs, so a fold step that a term's
    full sum and its parts share is summed once per call, and both union
    through a second one.
    """
    spectrum = EMPTY
    sums: dict = {}
    unions: dict = {}
    for term in terms:
        spectrum = _once(union, spectrum, _fold_spectra(term, sums), unions)
    return OperatorSpectrum(spectrum, _essential_union(terms, sums, unions))
