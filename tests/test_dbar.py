import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from hcspec import dbar, spectra
from hcspec.dbar import (
    BadDimensionError,
    BidegreeOutOfRangeError,
    DbarFactorModel,
    MissingAttestationError,
    Verdict,
    builtin_models,
    neumann_compactness,
    riemann_surface_product_report,
    _leaving,
    _splittings,
    _uniform_term_noncompact,
)
from hcspec.fuzzing import random_factor_model, random_operator_spectrum
from hcspec.scenario import parse_factor_model
from hcspec.spectra import (
    AP,
    EMPTY,
    INFINITE,
    OperatorSpectrum,
    Point,
    SpectralSet,
    enumerate_below,
    is_subset,
    is_subset_of_zero,
    minkowski_sum,
    union,
)


def op(*atoms):
    return OperatorSpectrum(SpectralSet.of(*atoms))


def simple_factor(name="plain", kernel_mult=None):
    """One-dimensional factor with discrete positive spectrum."""
    atoms = [AP(1, 1)]
    if kernel_mult is not None:
        atoms.append(Point(0, kernel_mult))
    functions = op(*atoms)
    forms = op(AP(1, 1))
    return DbarFactorModel(
        name=name,
        complex_dimension=1,
        box_spectrum={(0, 0): functions, (0, 1): forms, (1, 0): functions, (1, 1): forms},
        closed_range=True,
        bergman_dim=kernel_mult if kernel_mult is not None else 0,
    )


# ---------------------------------------------------------------------------
# Model validation


def test_grid_is_densified_with_unknowns():
    model = DbarFactorModel(name="sparse", complex_dimension=2, closed_range=True)
    assert set(model.box_spectrum) == {(p, q) for p in range(3) for q in range(3)}
    assert all(entry is None for entry in model.box_spectrum.values())


def test_bidegree_out_of_grid_rejected():
    with pytest.raises(BidegreeOutOfRangeError):
        DbarFactorModel(
            name="bad",
            complex_dimension=1,
            box_spectrum={(2, 0): op(AP(1, 1))},
        )


def test_bergman_consistency_enforced():
    with pytest.raises(ValueError):
        DbarFactorModel(
            name="liar",
            complex_dimension=1,
            box_spectrum={(0, 0): op(AP(1, 1))},
            bergman_dim=INFINITE,
        )
    with pytest.raises(ValueError):
        DbarFactorModel(
            name="liar2",
            complex_dimension=1,
            box_spectrum={(0, 0): op(Point(0, 2), AP(1, 1))},
            bergman_dim=3,
        )


def test_cohomology_consistency_enforced():
    with pytest.raises(ValueError):
        DbarFactorModel(
            name="liar3",
            complex_dimension=1,
            box_spectrum={(0, 1): op(AP(1, 1))},
            cohomology_dim={(0, 1): INFINITE},
        )


# ---------------------------------------------------------------------------
# Product spectra


def test_product_at_origin_is_single_minkowski_sum():
    x = simple_factor("x")
    y = simple_factor("y")
    got = neumann_compactness(x, y, 0, 0)
    want = minkowski_sum(
        x.box_spectrum[(0, 0)].spectrum, y.box_spectrum[(0, 0)].spectrum
    )
    assert got.spectrum == want


def test_product_spectrum_worked_example():
    heavy = op(Point(0, INFINITE), AP(2, 2))
    factor = DbarFactorModel(
        name="heavy",
        complex_dimension=1,
        box_spectrum={(0, 0): heavy, (0, 1): op(AP(2, 2)), (1, 0): heavy, (1, 1): op(AP(2, 2))},
        closed_range=True,
        bergman_dim=INFINITE,
    )
    got = neumann_compactness(factor, factor, 0, 0)
    want_values = [Fraction(2 * k) for k in range(15)]
    assert [v for v, _ in enumerate_below(got.spectrum, 29)] == want_values
    assert [v for v, _ in enumerate_below(got.essential_spectrum, 29)] == want_values


def test_product_spectrum_symmetric_in_factors():
    rnd = random.Random(77)
    for case in range(25):
        x = random_factor_model(rnd, f"x{case}")
        y = random_factor_model(rnd, f"y{case}")
        for p in range(3):
            for q in range(3):
                xy = neumann_compactness(x, y, p, q)
                yx = neumann_compactness(y, x, p, q)
                assert xy.spectrum == yx.spectrum
                assert xy.essential_spectrum == yx.essential_spectrum


def test_product_with_asserted_zero_space_is_empty():
    # a factor asserting empty spectra models zero bidegree spaces; every
    # term then has an empty operand and the product vanishes
    empty_op = OperatorSpectrum(SpectralSet.of())
    hollow = DbarFactorModel(
        name="hollow",
        complex_dimension=1,
        box_spectrum={(p, q): empty_op for p in range(2) for q in range(2)},
        closed_range=True,
    )
    got = neumann_compactness(hollow, simple_factor(), 0, 0)
    assert got.spectrum.is_empty() and got.essential_spectrum.is_empty()


def test_product_spectrum_needs_known_entries():
    x = DbarFactorModel(name="unknown", complex_dimension=1, closed_range=True)
    report = neumann_compactness(x, simple_factor(), 0, 0)
    assert report.verdict is Verdict.UNDECIDABLE and report.spectrum is None
    with pytest.raises(BidegreeOutOfRangeError):
        neumann_compactness(simple_factor(), simple_factor(), 5, 0)


def test_product_essential_contained_in_spectrum_fuzzed():
    rnd = random.Random(123)
    for case in range(25):
        x = random_factor_model(rnd, f"x{case}")
        y = random_factor_model(rnd, f"y{case}")
        got = neumann_compactness(x, y, rnd.randint(0, 2), rnd.randint(0, 2))
        assert is_subset(got.essential_spectrum, got.spectrum)


# ---------------------------------------------------------------------------
# Pairwise compactness


def reference_essential(terms):
    """The product formula written out term by term, as an independent check.

    For each term and each factor j: factor j's essential spectrum plus the
    Minkowski sum of the other factors' spectra, folded from ``{0}``.  Returns
    the union of those parts and the (term, factor) pairs of the parts
    outside ``{0}``, the witnesses.
    """
    essential = EMPTY
    contributors = []
    for t, term in enumerate(terms):
        for j, own in enumerate(term):
            others = SpectralSet.of(Point(0, 1))
            for k, other in enumerate(term):
                if k != j:
                    others = minkowski_sum(others, other.spectrum)
            part = minkowski_sum(own.essential, others)
            essential = union(essential, part)
            if not is_subset_of_zero(part):
                contributors.append((t, j))
    return essential, contributors


def test_pair_witnesses_match_reference_formula():
    rnd = random.Random(2024)
    noncompact = 0
    for case in range(12):
        x = random_factor_model(rnd, f"x{case}")
        y = random_factor_model(rnd, f"y{case}")
        for p in range(3):
            for q in range(3):
                splits = [
                    (p1, q1, p - p1, q - q1)
                    for p1 in range(max(0, p - 1), min(p, 1) + 1)
                    for q1 in range(max(0, q - 1), min(q, 1) + 1)
                ]
                terms = [
                    (x.box_spectrum[(p1, q1)], y.box_spectrum[(p2, q2)])
                    for p1, q1, p2, q2 in splits
                ]
                essential, contributors = reference_essential(terms)
                witnesses = tuple(dict.fromkeys(splits[t] for t, _ in contributors))
                report = neumann_compactness(x, y, p, q)
                assert report.witnesses == witnesses, (case, p, q)
                assert report.essential_spectrum == essential, (case, p, q)
                noncompact += report.verdict is Verdict.NONCOMPACT
    assert noncompact >= 20


def test_nfactor_witnesses_match_reference_formula():
    # a low chance of infinite progressions keeps the shortcut rules from
    # deciding most cases, so the formula's own witnesses are reached
    rnd = random.Random(1)
    by_formula = 0
    for case in range(15):
        n = 3 + case % 3
        factors = [
            random_factor_model(rnd, f"f{case}-{j}", infinite_chance=0.05)
            for j in range(n)
        ]
        for q in range(n + 1):
            vectors = [b for b in itertools.product((0, 1), repeat=n) if sum(b) == q]
            terms = [
                [factor.box_spectrum[(0, bit)] for factor, bit in zip(factors, bits)]
                for bits in vectors
            ]
            essential, contributors = reference_essential(terms)
            report = riemann_surface_product_report(factors, q)
            assert report.essential_spectrum == essential, (case, q)
            if report.fired_rule == "essential-spectrum-nonempty":
                want = tuple((j, *vectors[t]) for t, j in contributors)
                assert report.witnesses == want, (case, q)
                by_formula += 1
            elif report.fired_rule == "essential-spectrum-empty":
                assert not contributors
    assert by_formula >= 10


def unshared_product_essential(terms):
    """``product_essential`` with a fresh left fold per part: no prefix is
    shared between parts, and the union runs in the same order."""
    essential, parts = EMPTY, []
    for t, term in enumerate(terms):
        for j, own in enumerate(term):
            if own.essential.is_empty():
                continue
            others = [other.spectrum for k, other in enumerate(term) if k != j]
            fold = others[0]
            for spectrum in others[1:]:
                fold = minkowski_sum(fold, spectrum)
            part = minkowski_sum(own.essential, fold)
            if not part.is_empty():
                essential = union(essential, part)
                parts.append((t, j, part))
    return essential, parts


def _bit_vector_terms(factors, q):
    return [
        tuple(factor.box_spectrum[(0, bit)] for factor, bit in zip(factors, bits))
        for bits in itertools.product((0, 1), repeat=len(factors))
        if sum(bits) == q
    ]


def _prefixes(folds):
    """The fold prefixes of two or more entries of ``folds``, by the values
    of their spectra, so equal spectra make one prefix."""
    return {
        values[:k]
        for values in (tuple(entry.spectrum for entry in fold) for fold in folds)
        for k in range(2, len(values) + 1)
    }


def _left_fold(entries):
    fold = entries[0].spectrum
    for entry in entries[1:]:
        fold = minkowski_sum(fold, entry.spectrum)
    return fold


def _summed_pairs(folds):
    """The operand value pairs ``(total, next spectrum)`` of the left folds
    of ``folds``."""
    pairs = set()
    for fold in folds:
        total = fold[0].spectrum
        for entry in fold[1:]:
            pairs.add((total, entry.spectrum))
            total = minkowski_sum(total, entry.spectrum)
    return pairs


def _count_sums(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(1)
        return minkowski_sum(a, b)

    monkeypatch.setattr(spectra, "minkowski_sum", counting)
    return calls


def test_shared_fold_sums_each_prefix_once(monkeypatch):
    rnd = random.Random(7)
    factors = [random_factor_model(rnd, f"f{j}", infinite_chance=0.1) for j in range(7)]
    terms = _bit_vector_terms(factors, 3)
    # one sum per distinct operand value pair: of a fold step (the total so
    # far and the next spectrum) or of a part (the factor's own essential
    # spectrum and the others' sum)
    owns = [
        (own, term[:j] + term[j + 1 :])
        for term in terms
        for j, own in enumerate(term)
        if not own.essential.is_empty()
    ]
    others = [rest for _, rest in owns]
    pairs = {(own.essential, _left_fold(rest)) for own, rest in owns}
    essential_pairs = _summed_pairs(others) | pairs
    operator_pairs = _summed_pairs([*terms, *others]) | pairs
    unshared_sums = len(owns) * (len(factors) - 1)
    calls = _count_sums(monkeypatch)
    spectra.product_essential(terms)
    assert len(owns) >= 20
    assert len(pairs) < len(owns)
    assert len(calls) == len(essential_pairs) < unshared_sums
    # equal totals reached through different prefixes are summed once: fewer
    # sums than distinct prefixes and parts
    assert len(calls) < len(_prefixes(others)) + len(pairs)
    # product_operator folds the full terms and the others' sums through one
    # memo: the others' sum of a term's last factor is a step of its full sum
    calls.clear()
    spectra.product_operator(terms)
    shared = _prefixes([*terms, *others])
    assert len(calls) == len(operator_pairs) < len(shared) + len(pairs)


def test_no_sum_outlives_one_product_call(monkeypatch):
    # the memo is local to one call: a second identical call sums again
    rnd = random.Random(7)
    factors = [random_factor_model(rnd, f"f{j}", infinite_chance=0.1) for j in range(5)]
    terms = _bit_vector_terms(factors, 2)
    calls = _count_sums(monkeypatch)
    spectra.product_operator(terms)
    first = len(calls)
    spectra.product_operator(terms)
    assert 0 < first == len(calls) - first


def _count_unions(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return union(a, b)

    monkeypatch.setattr(spectra, "union", counting)
    return calls


def _union_pairs(sets):
    """The operand value pairs ``(union so far, next set)`` of the unions of
    ``sets`` in order, from the empty set."""
    pairs, total = [], EMPTY
    for s in sets:
        pairs.append((total, s))
        total = union(total, s)
    return pairs


def test_each_union_pair_is_unioned_once(monkeypatch):
    rnd = random.Random(7)
    factors = [random_factor_model(rnd, f"f{j}", infinite_chance=0.1) for j in range(7)]
    terms = _bit_vector_terms(factors, 3)
    _, parts = unshared_product_essential(terms)
    essential_pairs = _union_pairs(part for _, _, part in parts)
    spectrum_pairs = _union_pairs(_left_fold(term) for term in terms)
    calls = _count_unions(monkeypatch)
    spectra.product_essential(terms)
    # one union per distinct pair (essential spectrum so far, part): a part
    # that adds nothing leaves the union as it was, so later equal parts hit
    assert len(calls) == len(set(calls)) == len(set(essential_pairs)) < len(essential_pairs)
    # product_operator unions the terms' sums and the parts through one memo
    calls.clear()
    spectra.product_operator(terms)
    operator_pairs = set(spectrum_pairs) | set(essential_pairs)
    assert len(calls) == len(set(calls)) == len(operator_pairs) < len(spectrum_pairs) + len(essential_pairs)


def test_no_union_outlives_one_product_call(monkeypatch):
    rnd = random.Random(7)
    factors = [random_factor_model(rnd, f"f{j}", infinite_chance=0.1) for j in range(5)]
    terms = _bit_vector_terms(factors, 2)
    calls = _count_unions(monkeypatch)
    spectra.product_essential(terms)
    first = len(calls)
    spectra.product_essential(terms)
    assert 0 < first == len(calls) - first


def test_the_union_memo_leaves_the_sums_as_they_were(monkeypatch):
    # seeded reports: the union memo leaves the 510 and 213 sums that one
    # union per part and term made, and unions 157 and 252 times of 256 and 288
    rnd = random.Random(5)
    factors = [random_factor_model(rnd, f"f{j}", infinite_chance=0.1) for j in range(8)]
    rnd = random.Random(6)
    pairs = [[random_factor_model(rnd, f"p{k}-{j}", infinite_chance=0.1) for j in range(2)] for k in range(10)]
    sums, unions = _count_sums(monkeypatch), _count_unions(monkeypatch)
    monkeypatch.setattr(dbar, "minkowski_sum", spectra.minkowski_sum)
    for q in range(len(factors) + 1):
        riemann_surface_product_report(factors, q)
    assert (len(sums), len(unions)) == (510, 157)
    sums.clear()
    unions.clear()
    for x, y in pairs:
        for p, q in itertools.product(range(3), repeat=2):
            neumann_compactness(x, y, p, q)
    assert (len(sums), len(unions)) == (213, 252)


def test_equal_factor_spectra_are_summed_once(monkeypatch):
    # forty parsed copies of one builtin: distinct objects, equal spectra,
    # so the value-pair memo sums each distinct operand pair once
    factors = [parse_factor_model(json.loads('{"builtin": "infinite-bergman-factor"}'), "$") for _ in range(40)]
    calls = _count_sums(monkeypatch)
    riemann_surface_product_report(factors, 1)
    assert 0 < len(calls) <= 1_000


def test_random_tuple_sums_stay_within_budget(monkeypatch):
    rnd = random.Random(5)
    factors = [random_factor_model(rnd, f"f{j}", infinite_chance=0) for j in range(10)]
    calls = _count_sums(monkeypatch)
    for q in range(len(factors) + 1):
        riemann_surface_product_report(factors, q)
    assert 0 < len(calls) <= 2_100


def test_shared_fold_matches_an_unshared_fold(monkeypatch):
    rnd = random.Random(8)
    compared = 0
    unions = _count_unions(monkeypatch)
    for case in range(30):
        n = rnd.randint(2, 7)
        factors = [random_factor_model(rnd, f"f{case}-{j}", infinite_chance=0.1) for j in range(n)]
        q = rnd.randint(0, n)
        terms = _bit_vector_terms(factors, q)
        want_essential, want_parts = unshared_product_essential(terms)
        assert repr(spectra.product_essential(terms)) == repr(want_essential), (case, q)
        assert repr(spectra.product_operator(terms).essential) == repr(want_essential), (case, q)
        compared += len(want_parts)
    assert compared >= 100
    assert len(unions) < 2 * compared  # the union memo hit along the way


def test_nfactor_report_unchanged_by_the_shared_fold(monkeypatch):
    rnd = random.Random(9)
    tuples = [
        [random_factor_model(rnd, f"f{case}-{j}", infinite_chance=0.05) for j in range(rnd.randint(2, 6))]
        for case in range(20)
    ]
    shared = [riemann_surface_product_report(f, q) for f in tuples for q in range(len(f) + 1)]
    monkeypatch.setattr(
        dbar, "product_essential", lambda terms: unshared_product_essential(terms)[0]
    )
    unshared = [riemann_surface_product_report(f, q) for f in tuples for q in range(len(f) + 1)]
    assert [repr(r) for r in shared] == [repr(r) for r in unshared]
    assert {r.fired_rule for r in shared} >= {"essential-spectrum-nonempty", "essential-spectrum-empty"}


_FLAG_ENTRIES = (op(Point(0, 1)), op(Point(0, INFINITE)), OperatorSpectrum(EMPTY))


def test_leaving_matches_the_unshared_parts():
    # _leaving reads emptiness and within-{0} flags only; on every bit vector
    # it must name the factors whose unshared part leaves {0}, and on the
    # uniform vectors the trace rule must agree, unknown entries included
    rnd = random.Random(6)
    outcomes = Counter()
    within_zero = 0
    for case in range(150):
        n = rnd.randint(2, 5)
        zero_chance = rnd.choice((0.0, 0.5, 0.9))
        factors = [
            DbarFactorModel(
                name=f"f{case}-{j}",
                complex_dimension=1,
                closed_range=True,
                box_spectrum={
                    (0, bit): None
                    if rnd.random() < 0.05
                    else rnd.choice(_FLAG_ENTRIES)
                    if rnd.random() < zero_chance
                    else random_operator_spectrum(rnd)
                    for bit in (0, 1)
                },
            )
            for j in range(n)
        ]
        for bits in itertools.product((0, 1), repeat=n):
            term = [factor.box_spectrum[(0, bit)] for factor, bit in zip(factors, bits)]
            want = None
            if all(entry is not None for entry in term):
                parts = unshared_product_essential([term])[1]
                leaving = [j for _, j, part in parts if not is_subset_of_zero(part)]
                assert _leaving(term) == leaving, (case, bits)
                want = bool(leaving)
                within_zero += any(is_subset_of_zero(part) for _, _, part in parts)
            if len(set(bits)) == 1:
                assert _uniform_term_noncompact(factors, bits[0]) is want, (case, bits)
            outcomes[want] += 1
    assert min(outcomes[True], outcomes[False], outcomes[None]) >= 50, outcomes
    # nonempty parts within {0}, which an emptiness-only rule counts as leaving
    assert within_zero >= 50, within_zero


def test_compact_pairing():
    report = neumann_compactness(simple_factor("x"), simple_factor("y"), 0, 0)
    assert report.verdict is Verdict.COMPACT
    assert report.fired_rule == "essential-spectrum-empty"


def test_infinite_bergman_forces_noncompact_for_all_bidegrees():
    heavy = simple_factor("heavy", kernel_mult=INFINITE)
    other = simple_factor("other")
    for p in range(2):
        for q in range(2):
            report = neumann_compactness(heavy, other, p, q)
            assert report.verdict is Verdict.NONCOMPACT


def test_bidisc_scenario_noncompact_at_zero_one():
    disc = builtin_models()["infinite-bergman-factor"]
    report = neumann_compactness(disc, disc, 0, 1)
    assert report.verdict is Verdict.NONCOMPACT
    assert report.witnesses
    assert not report.essential_spectrum.is_empty()


def test_bergman_shortcut_decides_with_unknown_data():
    heavy = DbarFactorModel(
        name="heavy-unknown",
        complex_dimension=1,
        closed_range=True,
        bergman_dim=INFINITE,
    )
    report = neumann_compactness(heavy, simple_factor(), 0, 1)
    assert report.verdict is Verdict.NONCOMPACT
    assert report.fired_rule == "infinite-bergman-space"


def test_unknown_data_is_undecidable_without_shortcut():
    unknown = DbarFactorModel(name="unknown", complex_dimension=1, closed_range=True)
    report = neumann_compactness(unknown, simple_factor(), 0, 0)
    assert report.verdict is Verdict.UNDECIDABLE
    assert report.fired_rule == "unknown-factor-data"


def test_attestation_required():
    no_attest = DbarFactorModel(name="no", complex_dimension=1)
    with pytest.raises(MissingAttestationError):
        neumann_compactness(no_attest, simple_factor(), 0, 0)


# ---------------------------------------------------------------------------
# Products of n one-dimensional factors


def test_all_compact_factors_give_compact_product():
    factors = [simple_factor(f"f{j}", kernel_mult=1) for j in range(3)]
    for q in range(4):
        report = riemann_surface_product_report(factors, q)
        assert report.verdict is Verdict.COMPACT, (q, report.fired_rule)


def test_infinite_bergman_shortcut_in_products():
    factors = [
        simple_factor("a", kernel_mult=1),
        simple_factor("b", kernel_mult=INFINITE),
        simple_factor("c"),
    ]
    for q in (0, 1, 2):
        report = riemann_surface_product_report(factors, q)
        assert report.verdict is Verdict.NONCOMPACT
        assert report.fired_rule == "infinite-bergman-space"
    # top degree is out of the shortcut's reach and the factors are otherwise
    # tame, so the direct formula decides
    top = riemann_surface_product_report(factors, 3)
    assert top.verdict is Verdict.COMPACT


def test_noncompact_solution_operator_spreads_everywhere():
    bad_forms = op(AP(1, 1, INFINITE))
    loud = DbarFactorModel(
        name="loud",
        complex_dimension=1,
        box_spectrum={
            (0, 0): op(AP(1, 1, INFINITE)),
            (0, 1): bad_forms,
            (1, 0): op(AP(1, 1, INFINITE)),
            (1, 1): bad_forms,
        },
        closed_range=True,
        bergman_dim=0,
    )
    factors = [loud, simple_factor("tame", kernel_mult=1)]
    for q in range(3):
        report = riemann_surface_product_report(factors, q)
        assert report.verdict is Verdict.NONCOMPACT


def zero_factor(name, mult):
    """One-dimensional factor whose every entry is ``{0}`` with ``mult``."""
    zero = op(Point(0, mult))
    return DbarFactorModel(
        name=name,
        complex_dimension=1,
        box_spectrum={(p, q): zero for p in range(2) for q in range(2)},
        closed_range=True,
        bergman_dim=mult,
    )


def _blurred(model, rnd):
    """``model`` with each entry made unknown at chance 0.3."""
    box = {key: None if rnd.random() < 0.3 else entry for key, entry in model.box_spectrum.items()}
    return DbarFactorModel(model.name, 1, box, True, model.bergman_dim)


def test_two_factor_report_agrees_with_pairwise_formula():
    # dbar-n on two factors is the pairwise verdict at (0, q), with the same
    # witness bidegrees; a third of the factors are {0} at every bidegree, and
    # in every other case each entry is unknown at chance 0.3, where both
    # reports consult the same shortcut rules
    rnd = random.Random(11)
    zero_cases = by_formula = by_shortcut = 0
    for case in range(160):
        x, y = (
            zero_factor(name, rnd.choice((1, INFINITE)))
            if rnd.random() < 0.3
            else random_factor_model(rnd, name)
            for name in (f"x{case}", f"y{case}")
        )
        if case % 2:
            x, y = _blurred(x, rnd), _blurred(y, rnd)
        zero_cases += x.known_within_zero(0, 0) or y.known_within_zero(0, 0)
        for q in range(3):
            pairwise = neumann_compactness(x, y, 0, q)
            report = riemann_surface_product_report([x, y], q)
            assert report.verdict is pairwise.verdict, (case, q)
            if report.fired_rule in ("essential-spectrum-empty", "essential-spectrum-nonempty"):
                assert report.essential_spectrum == pairwise.essential_spectrum
                bidegrees = tuple(dict.fromkeys((0, q1, 0, q2) for _, q1, q2 in report.witnesses))
                assert bidegrees == pairwise.witnesses, (case, q)
                by_formula += 1
            elif pairwise.fired_rule != "factor-essential-contribution":
                # dbar asked the shortcut rules, so both name the same one
                assert report.fired_rule == pairwise.fired_rule, (case, q)
                by_shortcut += pairwise.verdict is Verdict.NONCOMPACT
    assert zero_cases >= 30 and by_formula >= 100 and by_shortcut >= 40, (
        zero_cases,
        by_formula,
        by_shortcut,
    )


@pytest.mark.parametrize(
    "entry, bergman, rule, essential",
    [
        (op(AP(1, 1, INFINITE)), 0, "noncompact-factor-solution-operator", AP(2, 1, INFINITE)),
        (op(Point(0, INFINITE)), INFINITE, "infinite-bergman-space", AP(1, 1, INFINITE)),
    ],
    ids=["loud", "kernel"],
)
def test_both_reports_fire_the_same_shortcut(entry, bergman, rule, essential):
    # a factor known only at (0, 0), paired with a fully known one at (0, 1):
    # the rule argues from the splitting (0,0) x (0,1) in both reports
    factor = DbarFactorModel("partial", 1, {(0, 0): entry}, True, bergman)
    pairwise = neumann_compactness(factor, simple_factor(), 0, 1)
    assert (pairwise.verdict, pairwise.fired_rule) == (Verdict.NONCOMPACT, rule)
    assert pairwise.witnesses == ((0, 0, 0, 1),)
    assert pairwise.essential_spectrum == SpectralSet.of(essential)
    report = riemann_surface_product_report([factor, simple_factor()], 1)
    assert (report.verdict, report.fired_rule) == (Verdict.NONCOMPACT, rule)
    assert report.witnesses == ((0, 0, 0),)


def test_monotonicity_trace_is_recorded():
    factors = [
        simple_factor("a", kernel_mult=INFINITE),
        simple_factor("b", kernel_mult=1),
    ]
    report = riemann_surface_product_report(factors, 1)
    assert report.verdict is Verdict.NONCOMPACT
    assert any("Bergman" in line for line in report.trace)


def test_bit_vectors_match_the_filtered_product():
    # the splittings of (0, q) over n one-dimensional factors are the
    # weight-q bit vectors, in lexicographic order
    for n in range(11):
        for q in range(n + 1):
            want = [bits for bits in itertools.product((0, 1), repeat=n) if sum(bits) == q]
            splits = _splittings((1,) * n, 0, q)
            assert [tuple(bit for _, bit in split) for split in splits] == want, (n, q)
            assert all(p == 0 for split in splits for p, _ in split)


def test_splittings_match_the_pairwise_double_loop():
    for dx, dy in itertools.product((1, 2, 3), repeat=2):
        for p, q in itertools.product(range(-1, dx + dy + 2), repeat=2):
            want = [
                ((p1, q1), (p - p1, q - q1))
                for p1 in range(max(0, p - dy), min(p, dx) + 1)
                for q1 in range(max(0, q - dy), min(q, dx) + 1)
            ]
            assert _splittings((dx, dy), p, q) == want, (dx, dy, p, q)
    # three factors of mixed dimension against the filtered product of grids
    for dims in ((1, 2, 1), (2, 1, 3), (3, 3, 2)):
        grids = [list(itertools.product(range(d + 1), repeat=2)) for d in dims]
        for p, q in itertools.product(range(sum(dims) + 1), repeat=2):
            want = [
                split
                for split in itertools.product(*grids)
                if sum(b[0] for b in split) == p and sum(b[1] for b in split) == q
            ]
            assert _splittings(dims, p, q) == want, (dims, p, q)


def test_product_report_input_validation():
    factors = [simple_factor("a")]
    with pytest.raises(ValueError):
        riemann_surface_product_report(factors, 0)
    two_dim = DbarFactorModel(name="surfaceish", complex_dimension=2, closed_range=True)
    with pytest.raises(BadDimensionError):
        riemann_surface_product_report([two_dim, simple_factor("b")], 0)
    with pytest.raises(MissingAttestationError):
        riemann_surface_product_report(
            [DbarFactorModel(name="x", complex_dimension=1), simple_factor("b")], 0
        )
    with pytest.raises(BidegreeOutOfRangeError):
        riemann_surface_product_report(
            [simple_factor("a"), simple_factor("b")], 5
        )


# ---------------------------------------------------------------------------
# Catalogue


def test_catalogue_has_the_three_required_models():
    models = builtin_models()
    assert {"abstract-compact-factor", "infinite-bergman-factor", "gaussian-weight-line"} <= set(
        models
    )


def test_compact_factor_paired_with_itself_is_compact():
    compact = builtin_models()["abstract-compact-factor"]
    for p in range(3):
        for q in range(3):
            report = neumann_compactness(compact, compact, p, q)
            assert report.verdict is Verdict.COMPACT


def test_infinite_bergman_model_never_pairs_compactly_at_origin():
    models = builtin_models()
    heavy = models["infinite-bergman-factor"]
    for other in models.values():
        report = neumann_compactness(heavy, other, 0, 0)
        assert report.verdict is Verdict.NONCOMPACT
