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

:func:`normalize` and :func:`minkowski_sum` run on the same kind of lattice:
each call scales its atoms once, by the lcm of their denominators, to integer
keys; a sum adds the keys of its operands directly.  Both hand the keys to
one set of merge rules (:func:`_normalize_keys`), which maps them back to
atoms at the end.  The rules are those of the atom view, so the result is
still not associative on representation (see :func:`normalize`); a
canonical, order-free form is not built.  A sum expands each Frobenius gap
one value at a time, so more than ``GAP_BUDGET`` gap values in one sum is a
:class:`SymbolicBudgetError`, raised before anything is built.

One kernel enumerates values below a cutoff, for the oracle
:func:`minkowski_oracle_check`, :func:`enumerate_below` and the fuzz checks:
on the integer lattice ``(1/L)·ℤ``, ``L`` the lcm of every denominator
involved, each set becomes sorted int64 indices with exact counts and
infinite flags.  The oracle adds every pair of summand indices at once; it
never calls :func:`minkowski_sum`, its per-atom sums or the semigroup test.
More than ``ORACLE_PAIR_CAP`` values of one set, or value pairs, is an
:class:`OracleBudgetError`, raised before anything is enumerated.

The product formula is written once, in :func:`product_essential` (the
essential spectrum as a union of parts, one factor's essential spectrum summed
with the other factors' spectra) and :func:`product_operator`.  Both fold the
factor spectra left to right through one prefix trie that builds each fold
prefix once per call; :func:`product_operator` folds the spectrum and the
essential parts through the same trie.  This module holds no verdict: those
are in :mod:`hcspec.dbar`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ToolkitError

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


@dataclass(frozen=True)
class Point:
    """A single spectral value with its multiplicity."""

    value: Fraction
    mult: Mult = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_rational(self.value))
        object.__setattr__(self, "mult", _check_mult(self.mult))
        if self.value < 0:
            raise ValueError("spectral values must be nonnegative")

    def covers(self, v: Fraction) -> bool:
        return self.value == v


@dataclass(frozen=True)
class AP:
    """The arithmetic progression ``{base + n*step : n >= 0}``."""

    base: Fraction
    step: Fraction
    mult: Mult = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", as_rational(self.base))
        object.__setattr__(self, "step", as_rational(self.step))
        object.__setattr__(self, "mult", _check_mult(self.mult))
        if self.base < 0:
            raise ValueError("progression base must be nonnegative")
        if self.step <= 0:
            raise ValueError("progression step must be positive")

    def covers(self, v: Fraction) -> bool:
        if v < self.base:
            return False
        q = (v - self.base) / self.step
        return q.denominator == 1

    def contains_ap(self, other: "AP") -> bool:
        if other.base < self.base:
            return False
        if (other.step / self.step).denominator != 1:
            return False
        return ((other.base - self.base) / self.step).denominator == 1


Atom = Union[Point, AP]


@dataclass(frozen=True)
class SpectralSet:
    """A normalized finite union of spectral atoms; ``()`` is the empty spectrum.

    Build instances through :func:`normalize` (or the convenience classmethod
    :meth:`of`); the constructor trusts its argument.
    """

    atoms: tuple[Atom, ...] = ()

    @classmethod
    def of(cls, *atoms: Atom) -> "SpectralSet":
        return normalize(atoms)

    def is_empty(self) -> bool:
        return not self.atoms

    def contains(self, value: RationalLike) -> bool:
        v = as_rational(value)
        return any(atom.covers(v) for atom in self.atoms)


EMPTY = SpectralSet(())


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

    The rules run on lattice keys: with ``L`` the lcm of every denominator of
    the input, computed once per call, an atom is the integer tuple
    ``(value or base times L, 0 for a point or 1 for a progression, step
    times L or 0, mult)``.  Keys sort in the order of the values because
    ``L > 0``, and no rule leaves the lattice ``(1/L)·ℤ``.  This function is
    the keying front end; the rules live in :func:`_normalize_keys`, which
    :func:`minkowski_sum` feeds too.  Order, equality, ``%`` and ``value +
    step == base`` are homogeneous in ``L``, so any common multiple of the
    denominators gives the same atoms.  An output atom whose key is an input
    atom's is that input object; merged and extended atoms are built as
    ``Fraction(k, L)``.

    Absorption into a progression keeps the point set and the per-point
    finite/infinite class exact; nominal finite counts on progression-covered
    values are class-level only (see the module docstring).  The result is not
    associative on representation: ``{0:1} ∪ AP(1, 1, 1)`` extends the
    progression to ``AP(0, 1, 1)``, which then absorbs a second ``{0:1}``,
    while the two points first merge to ``{0:2}``, which does not extend it.
    """
    work: list[Atom] = list(atoms)
    scale = _lattice_scale(work)
    keys = [_key(atom, scale) for atom in work]
    inputs = dict(zip(reversed(keys), reversed(work)))  # the first input atom per key
    return _normalize_keys(keys, scale, inputs)


def _lattice_scale(atoms: Iterable[Atom]) -> int:
    """``L``, the lcm of every denominator of ``atoms``; 1 for none."""
    denominators: list[int] = []
    for atom in atoms:
        if isinstance(atom, Point):
            denominators.append(atom.value.denominator)
        elif isinstance(atom, AP):
            denominators += (atom.base.denominator, atom.step.denominator)
        else:
            raise TypeError(f"not a spectral atom: {atom!r}")
    return math.lcm(*denominators)


def _key(atom: Atom, scale: int) -> tuple:
    """The lattice key of an atom whose denominators divide ``scale``."""
    if isinstance(atom, Point):
        return (_scaled(atom.value, scale), 0, 0, atom.mult)
    return (_scaled(atom.base, scale), 1, _scaled(atom.step, scale), atom.mult)


def _normalize_keys(keys: list[tuple], scale: int, inputs: Mapping[tuple, Atom]) -> SpectralSet:
    """The merge rules of :func:`normalize` on lattice keys of ``(1/scale)·ℤ``,
    run to a fixed point; ``inputs`` maps keys to atoms to reuse."""
    # Sorting whole keys also orders equal atoms by mult; a pass merges those
    # whatever their order, so only the order of distinct keys matters.
    current = sorted(keys)
    while True:
        merged = sorted(_normalize_pass(current))
        if merged == current:
            break
        current = merged
    return SpectralSet(tuple(inputs[key] if key in inputs else _atom_at(key, scale) for key in current))


def _atom_at(key: tuple, scale: int) -> Atom:
    value, kind, step, mult = key
    if kind:
        return AP(Fraction(value, scale), Fraction(step, scale), mult)
    return Point(Fraction(value, scale), mult)


def _normalize_pass(work: list[tuple]) -> list[tuple]:
    """One round of the merge rules of :func:`normalize` on lattice keys."""
    points: dict[int, Mult] = {}
    aps: dict[tuple[int, int], Mult] = {}
    for value, kind, step, mult in work:
        if kind:
            aps[value, step] = aps.get((value, step), 0) + mult
        else:
            points[value] = points.get(value, 0) + mult

    ap_list = [(base, step, mult) for (base, step), mult in aps.items()]
    infinite_aps = [ap for ap in ap_list if is_infinite(ap[2])]
    kept_aps = [
        ap
        for ap in ap_list
        if not any(
            other is not ap
            and ap[0] >= other[0]
            and ap[1] % other[1] == 0
            and (ap[0] - other[0]) % other[1] == 0
            for other in infinite_aps
        )
    ]

    kept_points: list[tuple] = []
    for value in sorted(points, reverse=True):
        mult = points[value]
        for idx, (base, step, ap_mult) in enumerate(kept_aps):
            if value >= base and (value - base) % step == 0:
                if is_infinite(ap_mult) or mult == ap_mult:
                    break
            elif value + step == base and mult == ap_mult:
                kept_aps[idx] = (value, step, ap_mult)
                break
        else:
            kept_points.append((value, 0, 0, mult))

    return [*kept_points, *((base, 1, step, mult) for base, step, mult in kept_aps)]


def union(a: SpectralSet, b: SpectralSet) -> SpectralSet:
    """Set union with pointwise multiplicity addition (infinite absorbs)."""
    return normalize(a.atoms + b.atoms)


def _representable(n: int, p: int, q: int) -> bool:
    """Whether ``n = a*p + b*q`` with ``a, b >= 0``, for coprime ``p, q >= 2``.

    The least admissible ``b`` is ``n * q^-1 mod p``; ``n`` is representable
    exactly when that many ``q`` fit into it.
    """
    return n >= q * (n * pow(q, -1, p) % p)


def minkowski_sum(a: SpectralSet, b: SpectralSet) -> SpectralSet:
    """Exact Minkowski sum ``{x + y}``; empty if either operand is empty.

    Works on lattice keys from start to finish: with ``L`` the lcm of every
    denominator of both operands, each pair of keys adds to keys, which go
    to the merge rules of :func:`normalize` (:func:`_normalize_keys`).  A
    point plus a point is a point, and a point plus a progression keeps the
    step.  Two progressions with steps ``g·p`` and ``g·q``, ``p`` and ``q``
    coprime, give a progression of step ``g`` when ``p`` or ``q`` is 1, and
    otherwise the representable gap values ``n ≤ pq - p - q`` as points and
    the tail from ``pq - p - q + 1`` on.  Every output atom is rational, so
    ``L`` only fixes the lattice the rules run on; they are homogeneous in
    it.  Raises :class:`SymbolicBudgetError`, before any key is built, when
    the progression pairs have more than ``GAP_BUDGET`` gap values
    ``(p - 1)(q - 1)`` in all.
    """
    if a.is_empty() or b.is_empty():
        return EMPTY
    scale = _lattice_scale(a.atoms + b.atoms)
    a_keys = [_key(atom, scale) for atom in a.atoms]
    b_keys = [_key(atom, scale) for atom in b.atoms]
    gap_values = sum(
        (s // math.gcd(s, t) - 1) * (t // math.gcd(s, t) - 1)
        for s in (key[2] for key in a_keys if key[1])
        for t in (key[2] for key in b_keys if key[1])
    )
    if gap_values > GAP_BUDGET:
        raise SymbolicBudgetError(
            f"the Minkowski sum would expand {gap_values} Frobenius gap values, "
            f"above the budget {GAP_BUDGET}"
        )
    keys: list[tuple] = []
    for base, kind, step, mult in a_keys:
        for other_base, other_kind, other_step, other_mult in b_keys:
            total = base + other_base
            infinite = is_infinite(mult) or is_infinite(other_mult)
            product = INFINITE if infinite else mult * other_mult
            if not (kind and other_kind):  # a point's step key is 0
                keys.append((total, kind | other_kind, step + other_step, product))
                continue
            g = math.gcd(step, other_step)
            p, q = step // g, other_step // g
            if p == 1 or q == 1:
                keys.append((total, 1, g, product))
                continue
            # Coprime p, q >= 2: the reachable n form the numerical semigroup
            # <p, q>, complete past the Frobenius number pq - p - q.  Each
            # reachable n at or below it has exactly one representation, so
            # the point multiplicities are exact there.
            frobenius = p * q - p - q
            keys += [
                (total + g * n, 0, 0, product) for n in range(frobenius + 1) if _representable(n, p, q)
            ]
            keys.append((total + g * (frobenius + 1), 1, g, product))
    return _normalize_keys(keys, scale, {})


def essential_part(s: SpectralSet) -> SpectralSet:
    """Points of infinite multiplicity.

    Progression atoms diverge, so they contribute no finite accumulation
    points; only infinite-multiplicity annotations survive.
    """
    return normalize(atom for atom in s.atoms if is_infinite(atom.mult))


def multiplicity_at(s: SpectralSet, value: RationalLike) -> Mult:
    """Total multiplicity annotation at one value; 0 when the value is absent.

    Exact for values not covered by progression atoms; class-level otherwise.
    """
    v = as_rational(value)
    total: Mult = 0
    for atom in s.atoms:
        if atom.covers(v):
            total = INFINITE if is_infinite(atom.mult) else total + atom.mult
            if is_infinite(total):
                return INFINITE
    return total


def covered_by_progression(s: SpectralSet, value: RationalLike) -> bool:
    v = as_rational(value)
    return any(isinstance(atom, AP) and atom.covers(v) for atom in s.atoms)


def enumerate_below(s: SpectralSet, cutoff: RationalLike) -> list[tuple[Fraction, Mult]]:
    """All spectrum values strictly below ``cutoff`` with total multiplicities,
    read off the lattice kernel under its budget (:func:`_on_lattice`)."""
    scale, _, ((progressions, _),) = _on_lattice({"s": s}, cutoff)
    index, counts, infinite = _lattice(progressions)
    return [
        (Fraction(i, scale), INFINITE if inf else count)
        for i, count, inf in zip(index.tolist(), counts.tolist(), infinite.tolist())
    ]


def _scaled(x: Fraction, scale: int) -> int:
    return x.numerator * (scale // x.denominator)


def _progressions(s: SpectralSet, scale: int, limit: int):
    """The atoms of ``s`` on the lattice ``(1/scale)·ℤ``, clipped at ``limit``.

    Returns per-atom start and stride indices, the number of terms below
    ``limit``, finite counts (Python ints, 0 for an infinite atom) and
    infinite flags.  A point is a progression whose stride exceeds ``limit``,
    so it has one term below it.  Starts are clipped to ``limit`` and strides
    to ``limit + 1``, which keeps the term counts and every entry in int64.
    """
    starts = np.array([
        min(_scaled(atom.value if isinstance(atom, Point) else atom.base, scale), limit)
        for atom in s.atoms
    ], dtype=np.int64)
    strides = np.array([
        limit + 1 if isinstance(atom, Point) else min(_scaled(atom.step, scale), limit + 1)
        for atom in s.atoms
    ], dtype=np.int64)
    infinite = np.array([is_infinite(atom.mult) for atom in s.atoms], dtype=bool)
    counts = np.array(
        [0 if inf else atom.mult for atom, inf in zip(s.atoms, infinite)], dtype=object
    )
    lengths = (limit - starts + strides - 1) // strides
    return starts, strides, lengths, counts, infinite


def _classes(values: np.ndarray, counts: np.ndarray, infinite: np.ndarray):
    """Distinct sorted ``values`` with summed exact ``counts`` and any-``infinite`` flags."""
    index, inverse = np.unique(values, return_inverse=True)
    total = np.zeros(index.size, dtype=object)
    np.add.at(total, inverse, counts)
    flags = np.zeros(index.size, dtype=bool)
    flags[inverse[infinite]] = True
    return index, total, flags


def _lattice(progressions):
    """Every lattice index below the limit, as :func:`_classes`."""
    starts, strides, lengths, counts, infinite = progressions
    term = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    values = np.repeat(starts, lengths) + np.repeat(strides, lengths) * term
    return _classes(values, np.repeat(counts, lengths), np.repeat(infinite, lengths))


def _on_lattice(sets: Mapping[str, SpectralSet], cutoff: RationalLike):
    """``L``, the lcm of the denominators of the cutoff and of every atom of
    ``sets``, the limit ``cutoff·L``, and per set its :func:`_progressions`
    and value count (a Python int).  Raises :class:`OracleBudgetError`, before
    anything is enumerated, when a set has more than ``ORACLE_PAIR_CAP``
    values below the cutoff or the limit reaches ``2**62``, past which a sum
    of two indices could leave int64.
    """
    bound = as_rational(cutoff)
    scale = math.lcm(
        bound.denominator, _lattice_scale(atom for s in sets.values() for atom in s.atoms)
    )
    limit = max(0, _scaled(bound, scale))
    if limit >= _LATTICE_CAP:
        raise OracleBudgetError(
            f"the oracle lattice below the cutoff has {limit} steps of 1/{scale}, "
            f"beyond the cap {_LATTICE_CAP}"
        )
    lattice = []
    for name, s in sets.items():
        progressions = _progressions(s, scale, limit)
        count = sum(progressions[2].tolist())
        _check_budget(count, f"values of {name}")
        lattice.append((progressions, count))
    return scale, limit, lattice


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
    (:func:`_on_lattice`); the brute-force side adds every index of ``a`` to
    every index of ``b`` at once.  It never calls :func:`minkowski_sum` or the
    semigroup logic behind it and uses no Frobenius bound.  Index sets are
    compared exactly; multiplicities as finite/infinite classes, and as exact
    counts when both inputs consist of points only.  Raises
    :class:`OracleBudgetError` as :func:`_on_lattice` does, or on more than
    ``ORACLE_PAIR_CAP`` value pairs, before enumerating anything.
    """
    _, limit, ((a_prog, n_a), (b_prog, n_b), (total_prog, _)) = _on_lattice(
        {"a": a, "b": b, "the sum": total}, cutoff
    )
    _check_budget(n_a * n_b, "value pairs")

    a_index, a_counts, a_infinite = _lattice(a_prog)
    b_index, b_counts, b_infinite = _lattice(b_prog)
    sums = np.add.outer(a_index, b_index)
    below = sums < limit
    index, counts, infinite = _classes(
        sums[below],
        np.multiply.outer(a_counts, b_counts)[below],
        np.logical_or.outer(a_infinite, b_infinite)[below],
    )
    total_index, total_counts, total_infinite = _lattice(total_prog)
    if not (np.array_equal(index, total_index) and np.array_equal(infinite, total_infinite)):
        return False
    points_only = all(isinstance(atom, Point) for atom in (*a.atoms, *b.atoms))
    finite = ~infinite
    return not points_only or counts[finite].tolist() == total_counts[finite].tolist()


# ---------------------------------------------------------------------------
# Exact containment


def find_uncovered(a: SpectralSet, b: SpectralSet) -> Fraction | None:
    """A witness value in ``a`` that is not in ``b``, or ``None`` if a is a subset.

    Decides containment exactly: progression tails are reduced to congruence
    coverage, which is periodic, so one period past all thresholds settles the
    answer.
    """
    b_points = [t for t in b.atoms if isinstance(t, Point)]
    b_aps = [t for t in b.atoms if isinstance(t, AP)]
    for atom in a.atoms:
        if isinstance(atom, Point):
            if not b.contains(atom.value):
                return atom.value
            continue
        witness = _find_uncovered_ap(atom, b_points, b_aps)
        if witness is not None:
            return witness
    return None


def is_subset(a: SpectralSet, b: SpectralSet) -> bool:
    return find_uncovered(a, b) is None


def is_subset_of_zero(s: SpectralSet) -> bool:
    """True when the point set is contained in ``{0}`` (possibly empty)."""
    return all(isinstance(atom, Point) and atom.value == 0 for atom in s.atoms)


def _find_uncovered_ap(
    ap: AP, b_points: list[Point], b_aps: list[AP]
) -> Fraction | None:
    a0, s = ap.base, ap.step
    congruences: list[tuple[int, int, int]] = []  # (residue, modulus, n_min)
    for other in b_aps:
        den = math.lcm(
            a0.denominator, s.denominator, other.base.denominator, other.step.denominator
        )
        big_a0 = a0.numerator * (den // a0.denominator)
        big_s = s.numerator * (den // s.denominator)
        big_b0 = other.base.numerator * (den // other.base.denominator)
        big_t = other.step.numerator * (den // other.step.denominator)
        g = math.gcd(big_s, big_t)
        if (big_b0 - big_a0) % g:
            continue
        modulus = big_t // g
        reduced_s = (big_s // g) % modulus if modulus > 1 else 0
        rhs = ((big_b0 - big_a0) // g) % modulus if modulus > 1 else 0
        residue = (rhs * pow(reduced_s, -1, modulus)) % modulus if modulus > 1 else 0
        diff = (other.base - a0) / s
        n_min = 0 if diff <= 0 else math.ceil(diff)
        congruences.append((residue, modulus, n_min))

    def point_covered(v: Fraction) -> bool:
        return any(pt.value == v for pt in b_points)

    def congruence_covered(n: int) -> bool:
        return any(n >= n_min and (n - r) % m == 0 for (r, m, n_min) in congruences)

    if not congruences:
        # Only finitely many values can be covered by points.
        for n in range(len(b_points) + 1):
            v = a0 + n * s
            if not point_covered(v):
                return v
        return None  # pragma: no cover - pigeonhole guarantees a witness above

    period = math.lcm(*(m for _, m, _ in congruences))
    start = max([0, *(n_min for _, _, n_min in congruences)])
    for n in range(start):
        v = a0 + n * s
        if not (congruence_covered(n) or point_covered(v)):
            return v
    for r in range(start, start + period):
        if congruence_covered(r):
            continue
        # This residue class is never congruence-covered; points can only
        # cover finitely many of its members.
        for k in range(len(b_points) + 1):
            v = a0 + (r + k * period) * s
            if not point_covered(v):
                return v
    return None


# ---------------------------------------------------------------------------
# Operator spectra and the product formulas


@dataclass(frozen=True)
class OperatorSpectrum:
    """Spectrum and essential spectrum of one positive self-adjoint operator.

    When ``essential`` is omitted it is derived from the multiplicity
    annotations of ``spectrum``; passing it explicitly marks it as
    user-asserted (needed to model operators whose essential spectrum arises
    from accumulation, which the atom class cannot express).
    ``essential_asserted`` records which of the two it was.
    """

    spectrum: SpectralSet
    essential: SpectralSet | None = None
    essential_asserted: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "essential_asserted", self.essential is not None)
        if self.essential is None:
            object.__setattr__(self, "essential", essential_part(self.spectrum))
        else:
            witness = find_uncovered(self.essential, self.spectrum)
            if witness is not None:
                raise EssentialNotContainedError(
                    f"essential spectrum point {witness} does not belong to the spectrum"
                )

    def is_empty(self) -> bool:
        return self.spectrum.is_empty()


def _fold_spectra(factors: Sequence[OperatorSpectrum], folds: dict) -> SpectralSet:
    """Left Minkowski fold of the factor spectra, starting from the first.

    ``folds`` is a trie of the folds built so far, keyed by the identity of
    the factor entries in order: a fold whose prefix is already there
    reuses that prefix's sum, so the folds of one call share their prefixes.
    The association stays left to right.
    """
    total, node = None, folds
    for factor in factors:
        entry = node.get(id(factor))
        if entry is None:
            total = factor.spectrum if total is None else minkowski_sum(total, factor.spectrum)
            entry = node[id(factor)] = (total, {})
        total, node = entry
    return total


def _essential_union(
    terms: Sequence[Sequence[OperatorSpectrum]], folds: dict
) -> SpectralSet:
    """The union of the nonempty parts of every term, in term order, then
    factor order; the others' sums fold through the trie ``folds``."""
    essential = EMPTY
    for term in terms:
        for j, own in enumerate(term):
            if own.essential.is_empty():
                continue
            part = minkowski_sum(own.essential, _fold_spectra(term[:j] + term[j + 1 :], folds))
            if not part.is_empty():
                essential = union(essential, part)
    return essential


def product_essential(terms: Sequence[Sequence[OperatorSpectrum]]) -> SpectralSet:
    """Essential spectrum of a product operator.

    Each term lists the factor spectra of one summand of the product (a degree
    or bidegree splitting, or a bit vector), at least two of them.  Part
    ``(t, j)`` is the essential spectrum of factor ``j`` of term ``t`` plus the
    Minkowski sum of the spectra of the term's other factors.  Returns the
    union of the parts, taken incrementally in term order, then factor order,
    since ``normalize`` is not associative on representation.  The sums of
    the other factors fold left to right (:func:`_fold_spectra`), and a fold
    prefix shared by several parts, such as the bit vectors of one weight
    that agree on their first entries, is summed once per call.
    """
    return _essential_union(terms, {})


def product_operator(terms: Sequence[Sequence[OperatorSpectrum]]) -> OperatorSpectrum:
    """Spectrum and essential spectrum of a product operator.

    The spectrum is the union, in term order, of the Minkowski sums of each
    term's factor spectra; the essential spectrum is :func:`product_essential`.
    Both fold through one trie, so the others' sum of a term's last factor is
    the prefix its full sum already built.
    """
    spectrum = EMPTY
    folds: dict = {}
    for term in terms:
        spectrum = union(spectrum, _fold_spectra(term, folds))
    return OperatorSpectrum(spectrum, _essential_union(terms, folds))
