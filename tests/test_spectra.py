import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcspec import spectra
from hcspec.dbar import (
    CompactnessReport,
    DbarFactorModel,
    MissingAttestationError,
    Verdict,
    neumann_compactness,
)
from hcspec.fuzzing import (
    random_atom,
    random_operator_spectrum,
    random_spectral_model,
    random_spectral_set,
    sets_semantically_equal,
)
from hcspec.spectra import (
    AP,
    EMPTY,
    INFINITE,
    EssentialNotContainedError,
    OperatorSpectrum,
    OracleBudgetError,
    Point,
    SpectralSet,
    covered_by_progression,
    enumerate_below,
    essential_part,
    find_uncovered,
    is_subset,
    is_subset_of_zero,
    minkowski_oracle_check,
    minkowski_sum,
    multiplicity_at,
    normalize,
    union,
)


def _representable(n: int, p: int, q: int) -> bool:
    """Whether ``n = a*p + b*q`` with ``a, b >= 0``, for coprime ``p, q >= 2``.

    The least admissible ``b`` is ``n * q^-1 mod p``; ``n`` is representable
    exactly when that many ``q`` fit into it.  The reference for the gap
    points of ``minkowski_sum``, which generates them without this test.
    """
    return n >= q * (n * pow(q, -1, p) % p)


def _atom_minkowski(x, y):
    """The Minkowski sum of two atoms, on ``Fraction`` atoms: the reference
    for the lattice keys of ``minkowski_sum``, with which it shares no code."""
    mult = INFINITE if INFINITE in (x.mult, y.mult) else x.mult * y.mult
    if isinstance(x, Point) and isinstance(y, Point):
        return [Point(x.value + y.value, mult)]
    if isinstance(x, Point):
        return [AP(x.value + y.base, y.step, mult)]
    if isinstance(y, Point):
        return [AP(x.base + y.value, x.step, mult)]
    g = Fraction(
        math.gcd(x.step.numerator * y.step.denominator, y.step.numerator * x.step.denominator),
        x.step.denominator * y.step.denominator,
    )
    p, q = x.step / g, y.step / g
    assert p.denominator == 1 and q.denominator == 1
    p, q = p.numerator, q.numerator
    base = x.base + y.base
    if p == 1 or q == 1:
        return [AP(base, g, mult)]
    frobenius = p * q - p - q
    atoms = [Point(base + g * n, mult) for n in range(frobenius + 1) if _representable(n, p, q)]
    return atoms + [AP(base + g * (frobenius + 1), g, mult)]


def ap(base, step, mult=1):
    return AP(Fraction(base), Fraction(step), mult)


def pt(value, mult=1):
    return Point(Fraction(value), mult)


# ---------------------------------------------------------------------------
# Atoms and normalization


def test_atom_validation():
    with pytest.raises(ValueError):
        Point(Fraction(-1))
    with pytest.raises(ValueError):
        AP(Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        Point(Fraction(1), 0)
    with pytest.raises(ValueError):
        Point(Fraction(1), 2.5)


def test_normalize_point_on_progression_absorbed():
    assert normalize([pt(2), ap(0, 2)]) == SpectralSet.of(ap(0, 2))


def test_normalize_keeps_overlapping_progressions_apart():
    got = normalize([ap(0, 1), ap(5, 1)])
    assert got.atoms == (ap(0, 1), ap(5, 1))


def test_normalize_empty():
    assert normalize([]) == EMPTY and EMPTY.is_empty()


def test_normalize_merges_equal_atoms():
    assert normalize([pt(1, 1), pt(1, 2)]) == SpectralSet.of(pt(1, 3))
    assert normalize([ap(0, 2, 1), ap(0, 2, 2)]) == SpectralSet.of(ap(0, 2, 3))
    assert normalize([pt(1, 1), pt(1, INFINITE)]) == SpectralSet.of(pt(1, INFINITE))
    # INFINITE + 10**400 overflows float addition; either order merges to INFINITE
    for mults in ((INFINITE, 10**400), (10**400, INFINITE)):
        assert normalize([pt(1, m) for m in mults]) == SpectralSet.of(pt(1, INFINITE))
        assert normalize([ap(1, 1, m) for m in mults]) == SpectralSet.of(ap(1, 1, INFINITE))


def test_normalize_infinite_progression_absorbs():
    assert normalize([ap(0, 1, INFINITE), ap(5, 1, 2)]) == SpectralSet.of(ap(0, 1, INFINITE))
    assert normalize([ap(0, 1, INFINITE), pt(3, INFINITE)]) == SpectralSet.of(ap(0, 1, INFINITE))


def test_normalize_extends_progression_through_points():
    got = normalize([pt(2), pt(3), ap(4, 1)])
    assert got == SpectralSet.of(ap(2, 1))


def test_normalize_idempotent_on_fuzzed_sets():
    rnd = random.Random(42)
    for _ in range(200):
        s = random_spectral_set(rnd)
        assert normalize(s.atoms) == s


def _normalize_by_fractions(atoms):
    """The merge passes of ``normalize`` on ``Fraction`` atoms, one atom at a
    time: shares no code with the lattice-key kernel."""

    def sort_key(atom):
        if isinstance(atom, Point):
            return (atom.value, 0, Fraction(0))
        return (atom.base, 1, atom.step)

    def covers(x, v):
        return v >= x.base and ((v - x.base) / x.step).denominator == 1

    def contains_ap(x, other):
        return covers(x, other.base) and (other.step / x.step).denominator == 1

    def one_pass(work):
        points, aps = {}, {}
        for atom in work:
            if isinstance(atom, Point):
                points[atom.value] = points.get(atom.value, 0) + atom.mult
            else:
                aps[atom.base, atom.step] = aps.get((atom.base, atom.step), 0) + atom.mult
        ap_list = [AP(b, s, m) for (b, s), m in aps.items()]
        infinite_aps = [x for x in ap_list if x.mult == INFINITE]
        kept_aps = [
            x for x in ap_list if not any(o is not x and contains_ap(o, x) for o in infinite_aps)
        ]
        kept_points = []
        for value in sorted(points, reverse=True):
            p = Point(value, points[value])
            for idx, x in enumerate(kept_aps):
                if covers(x, p.value):
                    if x.mult == INFINITE or p.mult == x.mult:
                        break
                elif p.value + x.step == x.base and p.mult == x.mult:
                    kept_aps[idx] = AP(p.value, x.step, x.mult)
                    break
            else:
                kept_points.append(p)
        return [*kept_points, *kept_aps]

    current = tuple(sorted(atoms, key=sort_key))
    while True:
        merged = tuple(sorted(one_pass(current), key=sort_key))
        if merged == current:
            return merged
        current = merged


def _hard_atom_collection(rnd):
    """Atoms built to reach every merge rule, on denominators 1, 2, 3, 7, 997."""
    den = lambda: rnd.choice((1, 2, 3, 7, 997))
    mult = lambda: rnd.choice((1, 1, 2, 3, INFINITE))
    value = lambda: Fraction(rnd.randrange(0, 30 * (d := den())), d)
    atoms = []
    for _ in range(rnd.randint(0, 6)):
        if rnd.random() < 0.5:
            atoms.append(Point(value(), mult()))
        else:
            atoms.append(AP(value(), Fraction(rnd.randint(1, 6), den()), mult()))
    for x in [a for a in atoms if isinstance(a, AP)]:
        roll = rnd.random()
        if roll < 0.3:  # a chain of points below the progression
            for k in range(1, rnd.randint(2, 5)):
                if x.base - k * x.step >= 0:
                    atoms.append(Point(x.base - k * x.step, rnd.choice((x.mult, x.mult, 1))))
        elif roll < 0.5:  # a point on it with another finite mult
            atoms.append(Point(x.base + rnd.randint(0, 4) * x.step, rnd.choice((1, 2, 3))))
        elif roll < 0.65:  # nested infinite progressions
            atoms.append(AP(x.base + rnd.randint(0, 3) * x.step, x.step * rnd.randint(1, 3), INFINITE))
    if atoms and rnd.random() < 0.25:  # a shifted copy
        atoms += _atom_minkowski(rnd.choice(atoms), Point(value(), mult()))
    if rnd.random() < 0.2:  # coprime progressions: a Frobenius expansion
        p, q = rnd.choice(((3, 5), (4, 7), (5, 9), (7, 11), (11, 13)))
        d = den()
        atoms += _atom_minkowski(AP(value(), Fraction(p, d), mult()), AP(value(), Fraction(q, d), mult()))
    if rnd.random() < 0.2:  # eigenvalues as the joint-spectrum check builds them
        atoms += [Point(Fraction(rnd.uniform(0, 5)), mult()) for _ in range(rnd.randint(1, 4))]
    if atoms and rnd.random() < 0.3:  # duplicates
        atoms += rnd.choices(atoms, k=rnd.randint(1, 3))
    rnd.shuffle(atoms)
    return atoms


# Collections whose result depends on the merge order: the points top down,
# and a second pass that merges a progression extended onto a rival.
_MERGE_ORDER_CASES = [
    [pt(0), pt(1), pt(3, 2), ap(1, 1, 2), ap(2, 1)],
    [ap(4, 3), ap(7, 3, 2), pt(4, 2), pt(1, 2)],
    [pt(1, 2), ap(2, 1, 2), pt(7, 2), ap(2, 2, 2), pt(0, 2)],
    [ap(0, 1, 2), ap(1, 1), pt(0)],
]


def _crowded_atom_collection(rnd):
    """Many atoms on a few small integers, where merges interact."""
    mult = lambda: rnd.choice((1, 2, INFINITE))
    return [
        pt(rnd.randrange(0, 8), mult()) if rnd.random() < 0.6 else ap(rnd.randrange(0, 8), rnd.randint(1, 3), mult())
        for _ in range(rnd.randint(3, 8))
    ]


def _long_run_collection(rnd):
    """Long runs of points under a few progressions: chains of points one step
    apart below a progression of the same mult, which it absorbs one by one
    (each lowering the floor of the point scan), runs below and between the
    progressions, and points on them with other mults."""
    d = rnd.choice((1, 1, 2, 3))
    mult = lambda: rnd.choice((1, 1, 2, INFINITE))
    atoms = []
    for _ in range(rnd.randint(1, 3)):
        base, step = Fraction(rnd.randrange(20, 120), d), Fraction(rnd.randint(1, 5), d)
        x = AP(base, step, mult())
        atoms.append(x)
        chain = rnd.randint(1, 40)
        atoms += [Point(base - k * step, x.mult) for k in range(1, chain) if base - k * step >= 0]
        if rnd.random() < 0.5:  # a point that breaks the chain: another mult, one step below its end
            gap = base - chain * step
            if gap >= 0:
                atoms.append(Point(gap, 3))
    run_mult = mult()
    atoms += [Point(Fraction(rnd.randrange(0, 150), d), rnd.choice((run_mult, run_mult, 1))) for _ in range(60)]
    if rnd.random() < 0.3:  # a Frobenius expansion: a long run of points and its tail
        p, q = rnd.choice(((7, 9), (11, 13), (13, 17)))
        atoms += _atom_minkowski(AP(Fraction(rnd.randrange(0, 4)), p, mult()), AP(Fraction(0), q, mult()))
    rnd.shuffle(atoms)
    return atoms


def test_normalize_agrees_with_the_fraction_passes():
    rnd = random.Random(2024)
    generators = (
        lambda: [random_atom(rnd) for _ in range(rnd.randint(0, 5))],
        lambda: _hard_atom_collection(rnd),
        lambda: _hard_atom_collection(rnd),
        lambda: _crowded_atom_collection(rnd),
    )
    collections = _MERGE_ORDER_CASES + [generators[case % 4]() for case in range(2400)]
    collections += [_long_run_collection(rnd) for _ in range(80)]
    for case, atoms in enumerate(collections):
        assert repr(normalize(atoms).atoms) == repr(_normalize_by_fractions(atoms)), (case, atoms)


def test_a_chain_below_a_progression_extends_it_in_one_pass():
    # each extension lowers the floor of the point scan by a step, so the
    # whole chain joins in one pass; the odd points lie off the progression
    # and go out as they came
    chain = [(value, 0, 0, 1) for value in range(0, 20, 2)]
    odd = [(value, 0, 0, 1) for value in range(1, 40, 2)]
    merged, extended = spectra._normalize_pass([(20, 1, 2, 1), *odd, *chain])
    assert extended and sorted(merged) == sorted([*odd, (0, 1, 2, 1)])


def test_normalize_is_not_associative_on_representation():
    zero, line = SpectralSet.of(pt(0)), SpectralSet.of(ap(1, 1))
    assert union(union(zero, line), zero).atoms == (ap(0, 1),)
    assert union(union(zero, zero), line).atoms == (pt(0, 2), ap(1, 1))
    for atoms in ([pt(0), ap(1, 1), pt(0)], [pt(0), pt(0), ap(1, 1)]):
        assert normalize(atoms).atoms == _normalize_by_fractions(atoms)


# ---------------------------------------------------------------------------
# The canonical lattice form
#
# A set stores L and integer keys; the operations rescale keys to a common L
# and never go through atoms.  These properties hold them to ``normalize``
# over the same atoms, for operands drawn on different lattices.

_PROPERTY_SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, database=None)
_MULTS = st.sampled_from((1, 1, 2, 3, INFINITE))


@st.composite
def _atoms_on(draw, denominators):
    den = draw(st.sampled_from(denominators))
    value = Fraction(draw(st.integers(0, 12 * den)), den)
    if draw(st.booleans()):
        return Point(value, draw(_MULTS))
    step = Fraction(draw(st.integers(1, 6)), draw(st.sampled_from(denominators)))
    return AP(value, step, draw(_MULTS))


_LATTICES = ((1,), (2,), (3,), (1, 2, 4), (3, 6), (7,), (2, 997))
_ATOM_LISTS = st.sampled_from(_LATTICES).flatmap(lambda dens: st.lists(_atoms_on(dens), max_size=5))
# Without 997, whose steps against the others expand tens of thousands of
# Frobenius gap points in the Fraction reference.
_SUMMAND_LISTS = st.sampled_from(_LATTICES[:-1]).flatmap(
    lambda dens: st.lists(_atoms_on(dens), max_size=4)
)


def _same_set(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.atoms == want.atoms and repr(got) == repr(want)


@_PROPERTY_SETTINGS
@given(_ATOM_LISTS, _ATOM_LISTS)
def test_union_is_normalize_over_both_atom_lists(xs, ys):
    a, b = normalize(xs), normalize(ys)
    _same_set(union(a, b), normalize(a.atoms + b.atoms))


@_PROPERTY_SETTINGS
@given(_SUMMAND_LISTS, _SUMMAND_LISTS)
def test_minkowski_sum_is_normalize_over_the_atom_sums(xs, ys):
    a, b = normalize(xs), normalize(ys)
    want = normalize([atom for x in a.atoms for y in b.atoms for atom in _atom_minkowski(x, y)])
    _same_set(minkowski_sum(a, b), want)


@_PROPERTY_SETTINGS
@given(_ATOM_LISTS)
def test_essential_part_is_normalize_over_the_infinite_atoms(xs):
    s = normalize(xs)
    _same_set(essential_part(s), normalize([x for x in s.atoms if x.mult == INFINITE]))


@_PROPERTY_SETTINGS
@given(_ATOM_LISTS)
def test_the_trusted_constructor_keeps_its_atoms_in_order(xs):
    s = SpectralSet(tuple(xs))
    assert len(s.atoms) == len(xs) and all(got is want for got, want in zip(s.atoms, xs))
    assert SpectralSet(reversed(xs)).atoms == tuple(reversed(xs))


@_PROPERTY_SETTINGS
@given(_ATOM_LISTS, st.integers(-3, 40))
def test_an_int_query_answers_as_its_fraction(xs, value):
    s = normalize(xs)
    for query in (multiplicity_at, covered_by_progression, SpectralSet.contains):
        assert query(s, value) == query(s, Fraction(value)), query.__name__


def test_equal_sets_share_their_lattice():
    # 1/2 + 1/2 leaves the lattice of halves: the sum is on the integers
    half = SpectralSet.of(pt("1/2"))
    total = minkowski_sum(half, half)
    assert total == SpectralSet.of(pt(1)) and total.scale == 1 and total.keys == ((1, 0, 0, 1),)
    assert hash(union(half, EMPTY)) == hash(SpectralSet((pt("1/2"),)))


# ---------------------------------------------------------------------------
# Union


def test_union_with_empty_is_identity():
    s = SpectralSet.of(pt(1), ap(2, 3))
    assert union(s, EMPTY) == s


def test_union_adds_multiplicities():
    got = union(SpectralSet.of(pt(1, 1)), SpectralSet.of(pt(1, 2)))
    assert got == SpectralSet.of(pt(1, 3))


def test_union_of_shifted_progressions_covers_unit_progression():
    got = union(SpectralSet.of(ap(0, 2)), SpectralSet.of(ap(1, 2)))
    values = [v for v, _ in enumerate_below(got, 50)]
    assert values == [Fraction(k) for k in range(50)]


def test_essential_part_distributes_over_union():
    rnd = random.Random(7)
    for _ in range(200):
        a = random_spectral_set(rnd)
        b = random_spectral_set(rnd)
        assert essential_part(union(a, b)) == union(essential_part(a), essential_part(b))


def test_union_against_enumeration_oracle():
    from hcspec.spectra import covered_by_progression, is_infinite

    rnd = random.Random(14)
    for _ in range(200):
        a = random_spectral_set(rnd)
        b = random_spectral_set(rnd)
        got = union(a, b)
        merged: dict = {}
        for v, m in enumerate_below(a, 60) + enumerate_below(b, 60):
            prev = merged.get(v, 0)
            merged[v] = float("inf") if is_infinite(m) or is_infinite(prev) else prev + m
        listed = enumerate_below(got, 60)
        assert [v for v, _ in listed] == sorted(merged)
        for v, m in listed:
            assert is_infinite(m) == is_infinite(merged[v])
            if not covered_by_progression(got, v):
                # counts are exact away from progressions
                assert m == merged[v]


# ---------------------------------------------------------------------------
# Minkowski sums


def test_minkowski_worked_case():
    got = minkowski_sum(SpectralSet.of(ap(0, 2)), SpectralSet.of(ap(0, 3)))
    assert got == SpectralSet.of(pt(0), ap(2, 1))


def test_minkowski_zero_point_is_identity():
    rnd = random.Random(3)
    unit = SpectralSet.of(pt(0, 1))
    for _ in range(100):
        s = random_spectral_set(rnd)
        assert minkowski_sum(unit, s) == s
        assert minkowski_sum(s, unit) == s


def test_minkowski_with_empty_is_empty():
    s = SpectralSet.of(pt(1), ap(0, 2))
    assert minkowski_sum(EMPTY, s) == EMPTY
    assert minkowski_sum(s, EMPTY) == EMPTY


def test_minkowski_point_shifts_progression():
    got = minkowski_sum(SpectralSet.of(pt("1/2", 2)), SpectralSet.of(ap(1, 2, 3)))
    assert got == SpectralSet.of(AP(Fraction(3, 2), Fraction(2), 6))


def test_minkowski_infinite_multiplicity_propagates():
    got = minkowski_sum(SpectralSet.of(pt(1, INFINITE)), SpectralSet.of(pt(2, 5)))
    assert got == SpectralSet.of(pt(3, INFINITE))


def test_minkowski_oracle_examples():
    a, b = SpectralSet.of(ap(0, 2)), SpectralSet.of(ap(0, 3))
    assert minkowski_oracle_check(a, b, minkowski_sum(a, b), 20)
    line = SpectralSet.of(ap(0, 1))
    assert minkowski_oracle_check(EMPTY, line, minkowski_sum(EMPTY, line), 10)


def test_minkowski_oracle_fuzzed():
    rnd = random.Random(2024)
    for _ in range(300):
        a = random_spectral_set(rnd)
        b = random_spectral_set(rnd)
        assert minkowski_oracle_check(a, b, minkowski_sum(a, b), 100)


def test_minkowski_fractional_semigroup_case():
    # steps 9/2 and 21/4 have gcd 3/4; the reduced pair (6, 7) leaves gaps up
    # to the bound 29, after which every multiple of 3/4 appears
    a = SpectralSet.of(ap("9/2", "9/2"))
    b = SpectralSet.of(ap("21/4", "21/4"))
    got = minkowski_sum(a, b)
    assert minkowski_oracle_check(a, b, got, 120)
    tail = [atom for atom in got.atoms if isinstance(atom, AP)]
    assert tail and tail[-1].step == Fraction(3, 4)


def test_minkowski_large_coprime_steps_against_oracle():
    rnd = random.Random(321)
    for _ in range(40):
        a = SpectralSet.of(
            ap(rnd.randrange(0, 4), Fraction(rnd.randrange(3, 12), rnd.choice((1, 2, 4))))
        )
        b = SpectralSet.of(
            ap(rnd.randrange(0, 4), Fraction(rnd.randrange(3, 12), rnd.choice((1, 2, 4))))
        )
        assert minkowski_oracle_check(a, b, minkowski_sum(a, b), 200)


def _enumerate_by_loop(s, cutoff):
    """Every value of ``s`` below ``cutoff`` with its total multiplicity, one
    ``Fraction`` at a time: shares no code with the lattice kernel."""
    bound = Fraction(cutoff)
    acc = {}
    for atom in s.atoms:
        if isinstance(atom, Point):
            if atom.value < bound:
                acc[atom.value] = acc.get(atom.value, 0) + atom.mult
        else:
            n = 0
            while atom.base + n * atom.step < bound:
                v = atom.base + n * atom.step
                acc[v] = acc.get(v, 0) + atom.mult
                n += 1
    return sorted(acc.items())


def _double_loop_oracle(a, b, total, cutoff):
    """The enumeration oracle as a Fraction double loop over ``_enumerate_by_loop``."""
    bound = Fraction(cutoff)
    acc = {}
    for va, ma in _enumerate_by_loop(a, bound):
        for vb, mb in _enumerate_by_loop(b, bound):
            if va + vb < bound:
                m = INFINITE if INFINITE in (ma, mb) else ma * mb
                acc[va + vb] = acc.get(va + vb, 0) + m
    want = sorted(acc.items())
    got = _enumerate_by_loop(total, bound)
    points_only = all(isinstance(atom, Point) for atom in a.atoms + b.atoms)
    return [v for v, _ in got] == [v for v, _ in want] and all(
        (ml == INFINITE) == (mr == INFINITE) and (not points_only or ml == mr)
        for (_, ml), (_, mr) in zip(got, want)
    )


def _random_points(rnd):
    return SpectralSet.of(
        *(
            pt(Fraction(rnd.randrange(0, 24), rnd.choice((1, 2, 3))), rnd.choice((1, 2, 3, INFINITE)))
            for _ in range(rnd.randint(0, 4))
        )
    )


def _rebuilt(record, **changes):
    """``record`` built again by its constructor, with ``changes`` to its fields."""
    return type(record)(**{**{name: getattr(record, name) for name in type(record).__slots__}, **changes})


def _corrupted(total, rnd, kind):
    """``total`` with one atom dropped, reclassed, recounted or restepped, or a stray point."""
    atoms = list(total.atoms)
    if kind == "stray":
        return SpectralSet((*atoms, pt(Fraction(rnd.randrange(0, 120), rnd.choice((1, 2, 3, 7))))))
    if not atoms:
        return total
    j = rnd.randrange(min(len(atoms), 2))  # atoms are sorted, so these tend to be below the cutoff
    x = atoms[j]
    if kind == "drop":
        del atoms[j]
    elif kind == "flip":
        atoms[j] = _rebuilt(x, mult=1 if x.mult == INFINITE else INFINITE)
    elif kind == "count" and x.mult != INFINITE:
        atoms[j] = _rebuilt(x, mult=x.mult + 1)
    elif kind == "step" and isinstance(x, AP):
        atoms[j] = _rebuilt(x, step=2 * x.step)
    return SpectralSet(tuple(atoms))


def test_lattice_oracle_agrees_with_the_double_loop():
    rnd = random.Random(77)
    cutoffs = (Fraction(100, 3), Fraction(25), Fraction(61, 4), Fraction(40, 7), Fraction(12))
    kinds = ("none", "drop", "flip", "count", "stray", "step")
    rejected = Counter()
    for case in range(1200):
        make = _random_points if case // len(kinds) % 3 == 0 else random_spectral_set
        a, b = make(rnd), make(rnd)
        kind = kinds[case % len(kinds)]
        total = _corrupted(minkowski_sum(a, b), rnd, kind)
        cutoff = rnd.choice(cutoffs)
        want = _double_loop_oracle(a, b, total, cutoff)
        assert minkowski_oracle_check(a, b, total, cutoff) == want, (a, b, total, cutoff)
        rejected[kind] += not want
    # every corruption is caught often enough to matter; the true sums pass
    assert rejected["none"] == 0 and min(rejected[k] for k in kinds[1:]) >= 15, rejected


def test_lattice_oracle_agrees_with_the_double_loop_on_progressions():
    # coprime progression sums, their long point runs cut by the cutoff, keys
    # past the limit, and sets moved onto a finer lattice by the cutoff; a
    # count on a progression is nominal, so no corruption here recounts one
    rnd = random.Random(79)
    kinds = ("none", "drop", "flip", "stray", "step")
    cutoffs = (Fraction(45), Fraction(61, 4), Fraction(40, 7), Fraction(35, 2))
    rejected = Counter()
    for case in range(150):
        p, q = rnd.choice(((2, 3), (3, 5), (5, 7), (4, 9), (7, 8)))
        d = rnd.choice((1, 1, 2, 3))
        mult = lambda: rnd.choice((1, 2, INFINITE))
        a = SpectralSet.of(ap(Fraction(rnd.randrange(0, 7), d), Fraction(p, d), mult()), pt(rnd.randrange(0, 60), mult()))
        b = SpectralSet.of(ap(Fraction(rnd.randrange(0, 7), d), Fraction(q, d), mult()))
        if case % 3 == 0:
            b = union(b, _random_points(rnd))
        kind = kinds[case % len(kinds)]
        total = _corrupted(minkowski_sum(a, b), rnd, kind)
        cutoff = rnd.choice(cutoffs)
        want = _double_loop_oracle(a, b, total, cutoff)
        assert minkowski_oracle_check(a, b, total, cutoff) == want, (a, b, total, cutoff)
        rejected[kind] += not want
    # the true sums pass, and every corruption is caught (a step change only
    # where it hits one of the first two atoms, mostly points here)
    assert rejected["none"] == 0 and min(rejected[k] for k in kinds[1:]) >= 3, rejected


def test_lattice_oracle_counts_beyond_int64():
    a = SpectralSet.of(pt(1, 2**40), pt(2, 3))
    b = SpectralSet.of(pt(0, 2**40), pt("1/2", 5))
    total = minkowski_sum(a, b)
    assert multiplicity_at(total, 1) == 2**80
    assert minkowski_oracle_check(a, b, total, 100) and _double_loop_oracle(a, b, total, 100)
    off_by_one = SpectralSet(tuple(
        _rebuilt(x, mult=x.mult + 1) if x.value == 1 else x for x in total.atoms
    ))
    assert not minkowski_oracle_check(a, b, off_by_one, 100)
    assert not _double_loop_oracle(a, b, off_by_one, 100)


def test_oracle_budget_is_checked_before_enumerating():
    # b has no value below the cutoff, so there are no pairs, but a alone is too large
    line = SpectralSet.of(ap(0, "1/6"))
    with pytest.raises(OracleBudgetError, match="6000000 values of a below the cutoff"):
        minkowski_oracle_check(line, SpectralSet.of(pt(10**6)), EMPTY, 10**6)
    with pytest.raises(OracleBudgetError, match="beyond the cap 4611686018427387904"):
        minkowski_oracle_check(EMPTY, EMPTY, EMPTY, 2**62)


def test_enumerate_below_agrees_with_the_loop():
    rnd = random.Random(78)
    cutoffs = (
        Fraction(100, 3), Fraction(25), Fraction(61, 4), Fraction(40, 7), Fraction(12), Fraction(100),
        Fraction(0), Fraction(1, 997),
    )
    for case in range(1200):
        s = (_random_points if case % 3 == 0 else random_spectral_set)(rnd)
        if case % 4 == 0:
            s = minkowski_sum(s, random_spectral_set(rnd))
        cutoff = cutoffs[case % len(cutoffs)]
        # values, exact counts and infinite classes (INFINITE is math.inf)
        assert enumerate_below(s, cutoff) == _enumerate_by_loop(s, cutoff), (s, cutoff)


def test_enumerate_below_is_budgeted():
    with pytest.raises(OracleBudgetError, match="6000000 values of s below the cutoff"):
        enumerate_below(SpectralSet.of(ap(0, "1/6")), 10**6)


def _replaced(total, index, **changes):
    """``total`` with atom ``index`` changed, kept as given (not renormalized)."""
    atoms = list(total.atoms)
    atoms[index] = _rebuilt(atoms[index], **changes)
    return SpectralSet(tuple(atoms))


def _points_sum():
    a, b = SpectralSet.of(pt(1, 2), pt(4)), SpectralSet.of(pt(0), pt(10, 3))
    total = minkowski_sum(a, b)
    assert total == SpectralSet.of(pt(1, 2), pt(4), pt(11, 6), pt(14, 3))
    return a, b, total, 2  # the point 11


def _tail_sum():
    # <3, 5> moved up by 1: gap points 1, 4, 6, 7 and the tail from 9 on
    a, b = SpectralSet.of(ap(0, 3)), SpectralSet.of(ap(1, 5))
    total = minkowski_sum(a, b)
    assert total.atoms[-1] == ap(9, 1)
    return a, b, total, len(total.atoms) - 1


@pytest.mark.parametrize("summands", [_points_sum, _tail_sum], ids=["point", "tail"])
def test_oracle_rejects_a_missing_an_extra_or_a_reclassed_value(summands):
    a, b, total, j = summands()
    assert minkowski_oracle_check(a, b, total, 30)
    x = total.atoms[j]
    if isinstance(x, Point):
        missing = SpectralSet(total.atoms[:j] + total.atoms[j + 1 :])
        extra = SpectralSet((*total.atoms, pt(x.value - 1)))
    else:
        missing = _replaced(total, j, base=x.base + 1)
        extra = _replaced(total, j, base=x.base - 1)
    flipped = _replaced(total, j, mult=INFINITE)
    for claimed in (missing, extra, flipped):
        assert not minkowski_oracle_check(a, b, claimed, 30), claimed
    # an infinite summand value makes its sums infinite, so finite claims fail
    a_infinite = SpectralSet((_rebuilt(a.atoms[0], mult=INFINITE), *a.atoms[1:]))
    assert not minkowski_oracle_check(a_infinite, b, total, 30)


def test_oracle_compares_exact_counts_of_points_only():
    a, b, total, j = _points_sum()
    for mult in (5, 7):
        assert not minkowski_oracle_check(a, b, _replaced(total, j, mult=mult), 30)
    # a progression summand makes the counts nominal: any finite claim passes
    a, b, total, j = _tail_sum()
    assert minkowski_oracle_check(a, b, _replaced(total, j, mult=7), 30)
    assert minkowski_oracle_check(a, b, _replaced(total, 0, mult=2), 30)
    c = SpectralSet.of(pt(1, 2))
    assert minkowski_oracle_check(a, c, _replaced(minkowski_sum(a, c), 0, mult=5), 30)


def test_kernel_counts_a_huge_multiplicity_beside_an_infinite_one():
    # 10**400 exceeds every float, so INFINITE * 10**400 would overflow;
    # a value with an infinite term is counted as INFINITE without it
    huge = 10**400
    a, b = SpectralSet.of(pt(1, huge), pt(2)), SpectralSet.of(pt(0, INFINITE), pt(3))
    total = minkowski_sum(a, b)
    assert minkowski_oracle_check(a, b, total, 10)
    assert not minkowski_oracle_check(a, b, _replaced(total, 2, mult=huge + 1), 10)
    s = SpectralSet((Point(Fraction(1), INFINITE), AP(Fraction(0), Fraction(1), huge)))
    assert enumerate_below(s, 3) == [(0, huge), (1, INFINITE), (2, huge)]


def test_oracle_budgets_raise_in_order_before_any_lattice(monkeypatch):
    def no_lattice(*columns):
        raise AssertionError("the kernel enumerated before its budget check")

    monkeypatch.setattr(spectra, "_lattice", no_lattice)
    huge = SpectralSet.of(ap(0, Fraction(1, 2**40)))  # 2**40 values below 1
    full = SpectralSet.of(ap(0, Fraction(1, 2**20)))  # exactly ORACLE_PAIR_CAP values below 1
    over = lambda what: f"the oracle would enumerate {2**40} {what} below the cutoff, above the cap {2**20}"  # noqa: E731
    cases = [
        ((huge, huge, huge, 2**62), f"the oracle lattice below the cutoff has {2**102} steps of 1/{2**40}, "
         f"beyond the cap {2**62}"),
        ((huge, huge, huge, 1), over("values of a")),
        ((EMPTY, huge, huge, 1), over("values of b")),
        ((EMPTY, full, huge, 1), over("values of the sum")),
        ((full, full, EMPTY, 1), over("value pairs")),
    ]
    for args, message in cases:
        with pytest.raises(OracleBudgetError) as error:
            minkowski_oracle_check(*args)
        assert str(error.value) == message
    with pytest.raises(OracleBudgetError, match=f"enumerate {2**40} values of s below"):
        enumerate_below(huge, 1)


def test_representable_matches_the_enumeration_loop():
    def by_loop(n, p, q):
        return any((n - i * p) % q == 0 for i in range(n // p + 1))

    mismatches = [
        (n, p, q)
        for p in range(2, 31)
        for q in range(2, 31)
        if math.gcd(p, q) == 1
        for n in range(p * q + 1)
        if _representable(n, p, q) != by_loop(n, p, q)
    ]
    assert mismatches == []


def _summand(rnd, step_den):
    """A normalized set on denominators 1, 2, 3, 7 and 997, with infinite
    multiplicities, progression steps over ``step_den`` (so that two of them
    form a small coprime gap pair) and float-derived points, as
    ``jointspec.sum_operator_check`` builds them."""
    den = lambda: rnd.choice((1, 2, 3, 7, 997))
    mult = lambda: rnd.choice((1, 1, 2, 3, INFINITE))
    value = lambda: Fraction(rnd.randrange(0, 20 * (d := den())), d)
    atoms = []
    for _ in range(rnd.randint(0, 4)):
        roll = rnd.random()
        if roll < 0.35:
            atoms.append(Point(value(), mult()))
        elif roll < 0.75:
            atoms.append(AP(value(), Fraction(rnd.choice((1, 2, 3, 4, 5, 7, 9, 11, 13)), step_den), mult()))
        else:
            atoms.append(Point(Fraction(rnd.uniform(0, 5)), mult()))
    return normalize(atoms)


def test_minkowski_sum_keeps_the_atom_view():
    rnd = random.Random(1212)
    gap_pairs = 0
    for case in range(1500):
        step_den = rnd.choice((1, 2, 3, 7, 997))
        a, b = _summand(rnd, step_den), _summand(rnd, step_den)
        want = normalize([atom for x in a.atoms for y in b.atoms for atom in _atom_minkowski(x, y)])
        got = minkowski_sum(a, b)
        assert got.atoms == want.atoms and repr(got) == repr(want), (case, a, b)
        gap_pairs += sum(len(_atom_minkowski(x, y)) > 1 for x in a.atoms for y in b.atoms)
    assert gap_pairs >= 200


def test_minkowski_commutative_structurally():
    rnd = random.Random(5)
    for _ in range(200):
        a = random_spectral_set(rnd)
        b = random_spectral_set(rnd)
        assert minkowski_sum(a, b) == minkowski_sum(b, a)


def test_minkowski_associative_semantically():
    rnd = random.Random(6)
    for _ in range(100):
        a, b, c = (random_spectral_set(rnd) for _ in range(3))
        lhs = minkowski_sum(minkowski_sum(a, b), c)
        rhs = minkowski_sum(a, minkowski_sum(b, c))
        assert sets_semantically_equal(lhs, rhs)


def test_sets_semantically_equal_examples():
    assert not sets_semantically_equal(
        SpectralSet.of(pt(1)), SpectralSet.of(pt(1, INFINITE))
    )
    assert not sets_semantically_equal(
        SpectralSet.of(ap(0, 2)), SpectralSet.of(ap(0, 1))
    )
    assert sets_semantically_equal(
        SpectralSet.of(ap(0, 2), ap(1, 2)), SpectralSet.of(ap(0, 1))
    )


# ---------------------------------------------------------------------------
# Essential part and enumeration


def test_essential_part_examples():
    assert essential_part(SpectralSet.of(ap(0, 2))) == EMPTY
    got = essential_part(SpectralSet.of(pt(0, INFINITE), ap(1, 1)))
    assert got == SpectralSet.of(pt(0, INFINITE))
    heavy = SpectralSet.of(ap(3, 2, INFINITE))
    assert essential_part(heavy) == heavy


def test_essential_part_contained_in_spectrum():
    rnd = random.Random(8)
    for _ in range(200):
        s = random_spectral_set(rnd)
        assert is_subset(essential_part(s), s)


def test_enumerate_below_examples():
    values = enumerate_below(SpectralSet.of(ap(0, 2)), 7)
    assert [v for v, _ in values] == [0, 2, 4, 6]
    assert enumerate_below(EMPTY, 10) == []
    mixed = SpectralSet.of(pt("1/2"), ap(0, 1))
    assert [v for v, _ in enumerate_below(mixed, 2)] == [0, Fraction(1, 2), 1]


def test_multiplicity_at():
    s = SpectralSet.of(pt(1, 2), ap(0, 1, 3))
    assert multiplicity_at(s, 1) == 5
    assert multiplicity_at(s, Fraction(1, 2)) == 0
    assert multiplicity_at(SpectralSet.of(pt(0, INFINITE)), 0) == INFINITE


# ---------------------------------------------------------------------------
# Containment


def test_subset_examples():
    assert is_subset(SpectralSet.of(ap(4, 2)), SpectralSet.of(ap(0, 2)))
    assert not is_subset(SpectralSet.of(ap(0, 2)), SpectralSet.of(ap(4, 2)))
    assert find_uncovered(SpectralSet.of(ap(0, 2)), SpectralSet.of(ap(4, 2))) == 0
    assert is_subset(SpectralSet.of(ap(0, 2)), SpectralSet.of(pt(0), pt(2), ap(4, 2)))
    assert is_subset(EMPTY, EMPTY)
    assert not is_subset(SpectralSet.of(ap(0, 1)), SpectralSet.of(pt(0), pt(1), pt(2)))


def test_subset_with_congruence_gaps():
    # {0,3,6,...} inside evens fails at 3; inside step-3 cover succeeds
    assert find_uncovered(SpectralSet.of(ap(0, 3)), SpectralSet.of(ap(0, 2))) == 3
    assert is_subset(SpectralSet.of(ap(0, 3)), SpectralSet.of(ap(0, 3, 2)))
    # rational steps
    assert is_subset(SpectralSet.of(ap("1/2", "3/2")), SpectralSet.of(ap(0, "1/2")))


def test_subset_agrees_with_enumeration_on_fuzzed_pairs():
    rnd = random.Random(99)
    for _ in range(200):
        a = random_spectral_set(rnd)
        b = random_spectral_set(rnd)
        witness = find_uncovered(a, b)
        if witness is None:
            assert all(b.contains(v) for v, _ in enumerate_below(a, 60))
        else:
            assert a.contains(witness) and not b.contains(witness)


def test_subset_points_cannot_save_a_periodic_gap():
    # evens congruent to 2 mod 4 are only point-covered at 2 and 6; the first
    # genuinely uncovered member is 10
    a = SpectralSet.of(ap(0, 2))
    b = SpectralSet.of(ap(0, 4), pt(2), pt(6))
    assert find_uncovered(a, b) == 10
    # replacing the points by a sparser progression moves the witness to 6
    b = SpectralSet.of(ap(0, 4), ap(2, 8))
    assert find_uncovered(a, b) == 6
    # completing the residue class closes the gap
    b = SpectralSet.of(ap(0, 4), ap(2, 4))
    assert find_uncovered(a, b) is None


def test_subset_holds_by_construction():
    rnd = random.Random(101)
    for _ in range(200):
        a = random_spectral_set(rnd)
        c = random_spectral_set(rnd)
        assert is_subset(a, a)
        assert is_subset(a, union(a, c))
        if not a.is_empty() and not c.is_empty():
            # each operand embeds in the sum shifted by any point of the other
            shift = next(iter(enumerate_below(c, 1000)))[0]
            shifted = minkowski_sum(a, SpectralSet.of(Point(shift)))
            assert is_subset(shifted, minkowski_sum(a, c))


def test_normalize_idempotent_on_raw_atom_collections():
    rnd = random.Random(55)
    from hcspec.fuzzing import random_atom

    for _ in range(300):
        raw = [random_atom(rnd) for _ in range(rnd.randint(0, 5))]
        once = normalize(raw)
        assert normalize(once.atoms) == once


def test_subset_of_zero():
    assert is_subset_of_zero(EMPTY)
    assert is_subset_of_zero(SpectralSet.of(pt(0, INFINITE)))
    assert not is_subset_of_zero(SpectralSet.of(pt(1)))
    assert not is_subset_of_zero(SpectralSet.of(ap(0, 1)))


# ---------------------------------------------------------------------------
# Operator spectra and the product formula


def test_operator_spectrum_derives_essential_from_annotations():
    op = OperatorSpectrum(SpectralSet.of(pt(0, INFINITE), ap(1, 1)))
    assert op.essential == SpectralSet.of(pt(0, INFINITE))


def test_operator_spectrum_rejects_stray_essential():
    with pytest.raises(EssentialNotContainedError):
        OperatorSpectrum(SpectralSet.of(ap(0, 2)), SpectralSet.of(pt(1)))


# ---------------------------------------------------------------------------
# Products and verdicts of graded complexes
#
# A Hilbert complex graded by q is the (0, q) row of a ``DbarFactorModel``;
# its products and verdicts are those of ``hcspec.dbar``.


def _row(spectra, top=None):
    """The complex with ``spectra`` on degrees 0..top (default: the highest
    given, at least 1) as a model row; a degree without an entry holds a zero
    space."""
    top = max(max(spectra, default=0), 1) if top is None else top
    box = {(0, degree): spectra.get(degree, OperatorSpectrum(EMPTY)) for degree in range(top + 1)}
    return DbarFactorModel(name="row", complex_dimension=top, box_spectrum=box, closed_range=True)


def test_product_spectrum_worked_example():
    left = _row({0: OperatorSpectrum(SpectralSet.of(pt(0, INFINITE), ap(1, 1)))})
    right = _row({0: OperatorSpectrum(SpectralSet.of(ap(0, 2)))})
    got = neumann_compactness(left, right, 0, 0)
    spectrum_values = [v for v, _ in enumerate_below(got.spectrum, 30)]
    assert spectrum_values == [Fraction(k) for k in range(30)]
    assert got.essential_spectrum == SpectralSet.of(ap(0, 2, INFINITE))


def test_product_spectrum_empty_when_degrees_miss():
    # degree 3 splits as 1 + 2 or 2 + 1, and degrees 1 and 2 are zero spaces
    left = _row({0: OperatorSpectrum(SpectralSet.of(pt(1)))}, top=2)
    right = _row({0: OperatorSpectrum(SpectralSet.of(pt(1)))}, top=2)
    assert neumann_compactness(left, right, 0, 3).spectrum.is_empty()


def test_product_spectrum_point_case():
    left = _row({0: OperatorSpectrum(SpectralSet.of(pt(0, 1)))})
    right = _row({0: OperatorSpectrum(SpectralSet.of(pt(0, 1)))})
    got = neumann_compactness(left, right, 0, 0)
    assert got.spectrum == SpectralSet.of(pt(0, 1))
    assert got.essential_spectrum == EMPTY


def test_verdict_compact_when_essentials_empty():
    left = _row({0: OperatorSpectrum(SpectralSet.of(pt(0), ap(1, 1)))})
    right = _row({0: OperatorSpectrum(SpectralSet.of(ap(2, 1)))})
    report = neumann_compactness(left, right, 0, 0)
    assert report.verdict is Verdict.COMPACT
    assert report.fired_rule == "essential-spectrum-empty"
    assert report.essential_spectrum.is_empty()


def test_verdict_noncompact_with_witness():
    left = _row({1: OperatorSpectrum(SpectralSet.of(pt(2, INFINITE), ap(3, 1)))})
    right = _row({2: OperatorSpectrum(SpectralSet.of(ap(1, 1)))})
    report = neumann_compactness(left, right, 0, 3)
    assert report.verdict is Verdict.NONCOMPACT
    assert report.witnesses == ((0, 1, 0, 2),)


def test_verdict_infinite_kernel_forces_noncompact_everywhere():
    # infinite-dimensional harmonic space at degree 0 on the left
    left = _row({0: OperatorSpectrum(SpectralSet.of(pt(0, INFINITE), ap(1, 1)))})
    right = _row(
        {
            0: OperatorSpectrum(SpectralSet.of(ap(1, 1))),
            1: OperatorSpectrum(SpectralSet.of(ap(2, 1))),
        }
    )
    for degree in (0, 1):
        report = neumann_compactness(left, right, 0, degree)
        assert report.verdict is Verdict.NONCOMPACT


def test_verdict_requires_attestation():
    left = _rebuilt(
        _row({0: OperatorSpectrum(SpectralSet.of(ap(1, 1)))}), closed_range=False
    )
    right = _row({0: OperatorSpectrum(SpectralSet.of(ap(1, 1)))})
    with pytest.raises(MissingAttestationError):
        neumann_compactness(left, right, 0, 0)


def test_verdict_zero_sum_criterion_without_nondegeneracy():
    # {0:inf} (x) {0:1} at degree 0: the essential spectrum {0:inf} is a
    # kernel, on which N is 0, so the product is compact
    left = _row({0: OperatorSpectrum(SpectralSet.of(pt(0, INFINITE)))})
    right = _row({0: OperatorSpectrum(SpectralSet.of(pt(0, 1)))})
    report = neumann_compactness(left, right, 0, 0)
    assert report.verdict is Verdict.COMPACT
    assert report.fired_rule == "essential-spectrum-empty"
    assert report.essential_spectrum == SpectralSet.of(pt(0, INFINITE))


def _degree_pairs(left, right, degree):
    """The splittings ``j + k = degree`` within both rows."""
    return [
        (j, degree - j)
        for j in range(degree + 1)
        if (0, j) in left.box_spectrum and (0, degree - j) in right.box_spectrum
    ]


def test_criterion_equivalences_on_fuzzed_models():
    rnd = random.Random(31)
    for _ in range(150):
        left = random_spectral_model(rnd)
        right = random_spectral_model(rnd)
        degree = rnd.randint(0, 4)
        verdict = neumann_compactness(left, right, 0, degree)
        pairs = [
            (left.box_spectrum[(0, j)], right.box_spectrum[(0, k)])
            for j, k in _degree_pairs(left, right, degree)
        ]
        pairs = [(x, y) for x, y in pairs if not (x.is_empty() or y.is_empty())]
        by_cross = all(
            is_subset_of_zero(minkowski_sum(x.essential, y.spectrum))
            and is_subset_of_zero(minkowski_sum(x.spectrum, y.essential))
            for x, y in pairs
        )
        by_factors = all(x.essential.is_empty() and y.essential.is_empty() for x, y in pairs)
        by_product = verdict.essential_spectrum.is_empty()
        assert by_cross == by_factors == by_product == (
            verdict.verdict is Verdict.COMPACT
        )


def _reference_verdict(left, right, degree):
    """The one witness rule as its own loop over the cross sums ``E_j + S_k``
    and ``S_j + E_k``, with the spectrum and essential spectrum of the full
    product folded here: unions in splitting order, then factor order, with
    empty parts skipped, as ``product_operator`` takes them."""
    witnesses, spectrum, essential = [], EMPTY, EMPTY
    for j, k in _degree_pairs(left, right, degree):
        x, y = left.box_spectrum[(0, j)], right.box_spectrum[(0, k)]
        spectrum = union(spectrum, minkowski_sum(x.spectrum, y.spectrum))
        cross = [minkowski_sum(x.essential, y.spectrum), minkowski_sum(x.spectrum, y.essential)]
        for part in cross:
            if not part.is_empty():
                essential = union(essential, part)
        if not all(is_subset_of_zero(part) for part in cross):
            witnesses.append((0, j, 0, k))
    if witnesses:
        return CompactnessReport(
            Verdict.NONCOMPACT,
            "factor-essential-contribution",
            tuple(witnesses),
            essential,
            spectrum=spectrum,
        )
    return CompactnessReport(
        Verdict.COMPACT, "essential-spectrum-empty", (), essential, spectrum=spectrum
    )


_ZERO_SPECTRA = (
    OperatorSpectrum(SpectralSet.of(pt(0))),
    OperatorSpectrum(SpectralSet.of(pt(0, INFINITE))),
    OperatorSpectrum(SpectralSet.of(pt(0)), SpectralSet.of(pt(0))),
)


def _verdict_model(rnd):
    """Degrees 0..2, the drawn ones holding an empty spectrum, a spectrum
    equal to {0}, {0:inf} or {0} with {0} asserted essential, or a random one
    (a quarter with an asserted essential part); the rest are zero spaces."""
    spectra = {}
    for degree in range(rnd.randint(1, 3)):
        roll = rnd.random()
        if roll < 0.15:
            spectra[degree] = OperatorSpectrum(EMPTY)
        elif roll < 0.45:
            spectra[degree] = rnd.choice(_ZERO_SPECTRA)
        else:
            spectra[degree] = random_operator_spectrum(rnd)
    return _row(spectra, top=2)


def test_verdict_matches_reference_criteria():
    rnd = random.Random(2015)
    fired = Counter()
    for case in range(600):
        left = _verdict_model(rnd)
        right = _verdict_model(rnd)
        degree = rnd.randint(0, 4)
        expected = _reference_verdict(left, right, degree)
        assert neumann_compactness(left, right, 0, degree) == expected, case
        fired[expected.fired_rule, expected.essential_spectrum.is_empty()] += 1
    assert {rule for rule, _ in fired} == {
        "factor-essential-contribution",
        "essential-spectrum-empty",
    }
    # compact with essential parts equal to {0}: the decided {0} cases
    assert fired["essential-spectrum-empty", False] > 0
