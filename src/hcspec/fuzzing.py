"""Seeded generators and property suites shared by the tests and the CLI.

All generators are deterministic functions of a ``random.Random`` instance,
so a suite run is reproducible from a single integer seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import complexes, tensorprod
from .dbar import (
    DbarFactorModel,
    Verdict,
    _mirror_p_degrees,
    neumann_compactness,
    riemann_surface_product_report,
)
from .numerics import MATCH_GAP
from .spectra import (
    AP,
    EMPTY,
    INFINITE,
    OperatorSpectrum,
    Point,
    SpectralSet,
    enumerate_below,
    essential_part,
    is_infinite,
    is_subset,
    is_subset_of_zero,
    minkowski_oracle_check,
    minkowski_sum,
    multiplicity_at,
    normalize,
)


def random_rational(rnd: random.Random) -> Fraction:
    """``k / d`` with ``k`` in ``0..10`` and ``d`` in ``1..3``."""
    return Fraction(rnd.randrange(0, 11), rnd.choice((1, 1, 2, 3)))


def random_step(rnd: random.Random) -> Fraction:
    return Fraction(rnd.randrange(1, 7), rnd.choice((1, 1, 2)))


def random_mult(rnd: random.Random, infinite_chance: float = 0.25):
    if rnd.random() < infinite_chance:
        return INFINITE
    return rnd.randint(1, 3)


def random_atom(rnd: random.Random):
    """A point or a progression of :func:`random_mult` multiplicity."""
    if rnd.random() < 0.5:
        return Point(random_rational(rnd), random_mult(rnd))
    return AP(random_rational(rnd), random_step(rnd), random_mult(rnd))


def random_spectral_set(rnd: random.Random, allow_empty: bool = True) -> SpectralSet:
    """The normalized set of at most three :func:`random_atom` draws."""
    count = rnd.randint(0 if allow_empty else 1, 3)
    return normalize(random_atom(rnd) for _ in range(count))


def random_operator_spectrum(rnd: random.Random, nondegenerate: bool = False) -> OperatorSpectrum:
    """A random spectral set, with a nonzero value when ``nondegenerate``,
    and at chance 0.25 an asserted essential part."""
    spectrum = random_spectral_set(rnd, allow_empty=not nondegenerate)
    if nondegenerate:
        # Guarantee a value other than 0.
        spectrum = normalize(
            (*spectrum.atoms, AP(random_rational(rnd), random_step(rnd), random_mult(rnd)))
        )
    if rnd.random() < 0.25 and not spectrum.is_empty():
        asserted = normalize(
            atom for atom in spectrum.atoms if rnd.random() < 0.4
        )
        return OperatorSpectrum(spectrum, asserted)
    return OperatorSpectrum(spectrum)


def random_spectral_model(rnd: random.Random) -> DbarFactorModel:
    """A Hilbert complex graded by ``q`` in ``0..2``, as the ``(0, q)`` row of
    a factor model: spectra with a positive value on degrees ``0..top``,
    zero spaces above."""
    top = rnd.randint(0, 2)
    row = {
        (0, degree): random_operator_spectrum(rnd, nondegenerate=True)
        if degree <= top
        else OperatorSpectrum(EMPTY)
        for degree in range(3)
    }
    return DbarFactorModel(name="row", complex_dimension=2, box_spectrum=row, closed_range=True)


def random_positive_spectral_set(rnd: random.Random, infinite_chance: float = 0.2) -> SpectralSet:
    """Nonempty set of strictly positive values (no kernel contamination),
    from one or two atoms."""
    atoms = []
    for _ in range(rnd.randint(1, 2)):
        value = Fraction(rnd.randrange(1, 11), rnd.choice((1, 1, 2)))
        if rnd.random() < 0.5:
            atoms.append(Point(value, random_mult(rnd, infinite_chance)))
        else:
            atoms.append(AP(value, random_step(rnd), random_mult(rnd, infinite_chance)))
    return normalize(atoms)


def random_factor_model(
    rnd: random.Random, name: str, infinite_chance: float = 0.2
) -> DbarFactorModel:
    """A fully specified one-dimensional factor with consistent spectral data.

    For a genuine two-term complex the function and form Laplacians share
    their nonzero spectrum, so both bidegrees get the same positive part and
    only the kernel multiplicities differ.
    """
    positive = random_positive_spectral_set(rnd, infinite_chance=infinite_chance)

    def with_kernel() -> SpectralSet:
        roll = rnd.random()
        if roll < 0.4:
            return positive
        if roll < 0.8:
            return normalize((*positive.atoms, Point(0, rnd.randint(1, 3))))
        return normalize((*positive.atoms, Point(0, INFINITE)))

    functions = OperatorSpectrum(with_kernel())
    forms = OperatorSpectrum(with_kernel())
    kernel = multiplicity_at(functions.spectrum, 0)
    return DbarFactorModel(
        name=name,
        complex_dimension=1,
        box_spectrum=_mirror_p_degrees({(0, 0): functions, (0, 1): forms}),
        closed_range=True,
        bergman_dim=kernel,
    )


_KERNEL_ONLY = (
    OperatorSpectrum(EMPTY),
    OperatorSpectrum(SpectralSet.of(Point(0, 1))),
    OperatorSpectrum(SpectralSet.of(Point(0, INFINITE))),
)


def _loose_factor_model(rnd: random.Random, name: str) -> DbarFactorModel:
    """A one-dimensional factor whose function and form entries are drawn
    independently, so unlike a genuine factor they need not share their
    positive spectrum; empty spectra and spectra within ``{0}`` are common.
    The Bergman dimension is the kernel multiplicity of the function entry,
    or unknown where an asserted essential spectrum leaves out an infinite
    kernel."""

    def draw() -> OperatorSpectrum:
        if rnd.random() < 0.3:
            return rnd.choice(_KERNEL_ONLY)
        return random_operator_spectrum(rnd)

    functions, forms = draw(), draw()
    kernel = multiplicity_at(functions.spectrum, 0)
    return DbarFactorModel(
        name=name,
        complex_dimension=1,
        box_spectrum=_mirror_p_degrees({(0, 0): functions, (0, 1): forms}),
        closed_range=True,
        bergman_dim=None if is_infinite(kernel) and not functions.essential.contains(0) else kernel,
    )


def sets_semantically_equal(a: SpectralSet, b: SpectralSet) -> bool:
    """Same point set and same essential part, each decided exactly by
    mutual containment, so the finite/infinite classes agree at every value.

    Normalized forms of equal sets need not coincide structurally: a union of
    finite-multiplicity progressions can cover one point set in several
    incomparable ways.  Mutual containment of the sets and of their essential
    parts is the honest equality for such sets.
    """
    return all(
        is_subset(x, y) and is_subset(y, x)
        for x, y in ((a, b), (essential_part(a), essential_part(b)))
    )


# ---------------------------------------------------------------------------
# Property suites


class SuiteResult(NamedTuple):
    suite: str
    cases: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def run_complex_suite(seed: int, cases: int) -> SuiteResult:
    """Cochain validity, Hodge projector algebra, and operator identities,
    each as judged by its report from :mod:`complexes` at the default
    tolerance."""
    rnd = random.Random(seed)
    failures = []
    for case in range(cases):
        dims = [rnd.randint(0, 6) for _ in range(rnd.randint(2, 4))]
        complex_ = complexes.random_complex(dims, seed=rnd.randrange(2**32))
        if not complexes.validate(complex_).passed:
            failures.append(f"case {case}: cochain validation failed for dims {dims}")
            continue
        for degree in complex_.degrees:
            for what, report in (
                ("identity", complexes.check_identities(complex_, degree)),
                ("Hodge projector", complexes.hodge(complex_, degree).report),
            ):
                if not report.passed:
                    failures.append(
                        f"case {case}: {what} residuals {report.residuals} at degree {degree}"
                    )
    return SuiteResult("complexes", cases, tuple(failures))


def run_tensor_suite(seed: int, cases: int) -> SuiteResult:
    """Product spectrum pairing, Kuenneth convolution and the block
    structure of the product Laplacian on random pairs, each product built
    once."""
    rnd = random.Random(seed)
    failures = []
    for case in range(cases):
        dims_a = [rnd.randint(0, 4) for _ in range(rnd.randint(1, 3))]
        dims_b = [rnd.randint(0, 4) for _ in range(rnd.randint(1, 3))]
        a = complexes.random_complex(dims_a, seed=rnd.randrange(2**32))
        b = complexes.random_complex(dims_b, seed=rnd.randrange(2**32))
        product = tensorprod.tensor_complex(a, b)
        for degree in product.degrees:
            match = tensorprod.verify_product_spectrum(a, b, product, degree)
            if not match.passed:
                failures.append(
                    f"case {case}: spectrum gap {match.max_gap:.2e} at degree {degree}"
                )
        kuenneth = tensorprod.kuenneth_check(a, b, product)
        if not kuenneth.passed:
            failures.append(f"case {case}: Kuenneth mismatch {dict(kuenneth.pairs)}")
        blocks = tensorprod.block_structure_check(a, b, product)
        if not blocks.passed:
            failures.append(f"case {case}: block structure residuals {dict(blocks.residuals)}")
    return SuiteResult("tensor", cases, tuple(failures))


def run_spectra_suite(seed: int, cases: int, cutoff: Fraction = Fraction(100)) -> SuiteResult:
    """Minkowski sums against the enumeration oracle, plus algebra laws."""
    rnd = random.Random(seed)
    failures = []
    for case in range(cases):
        a = random_spectral_set(rnd)
        b = random_spectral_set(rnd)
        a_plus_b = minkowski_sum(a, b)
        if not minkowski_oracle_check(a, b, a_plus_b, cutoff):
            failures.append(f"case {case}: oracle mismatch for {a} + {b}")
        c = random_spectral_set(rnd)
        lhs = minkowski_sum(a_plus_b, c)
        rhs = minkowski_sum(a, minkowski_sum(b, c))
        if not sets_semantically_equal(lhs, rhs):
            failures.append(f"case {case}: associativity broke for {a}, {b}, {c}")
        if a_plus_b != minkowski_sum(b, a):
            failures.append(f"case {case}: commutativity broke for {a}, {b}")
    return SuiteResult("spectra", cases, tuple(failures))


def run_verdict_suite(seed: int, cases: int, cutoff: Fraction = Fraction(100)) -> SuiteResult:
    """Containment of essential spectra and compactness criterion equivalences."""
    rnd = random.Random(seed)
    failures = []
    for case in range(cases):
        left = random_spectral_model(rnd)
        right = random_spectral_model(rnd)
        degree = rnd.randint(0, 4)
        verdict = neumann_compactness(left, right, 0, degree)
        inside = {value for value, _ in enumerate_below(verdict.spectrum, cutoff)}
        essential = enumerate_below(verdict.essential_spectrum, cutoff)
        outside = [value for value, _ in essential if value not in inside]
        if outside:
            failures.append(f"case {case}: essential value {outside[0]} not in spectrum")
        pairs = [
            (left.box_spectrum[(0, j)], right.box_spectrum[(0, degree - j)])
            for j in range(degree + 1)
            if (0, j) in left.box_spectrum and (0, degree - j) in right.box_spectrum
        ]
        # the splittings j + k = degree where both degrees hold a space
        pairs = [(x, y) for x, y in pairs if not (x.is_empty() or y.is_empty())]
        by_cross_sums = all(
            is_subset_of_zero(minkowski_sum(x.essential, y.spectrum))
            and is_subset_of_zero(minkowski_sum(x.spectrum, y.essential))
            for x, y in pairs
        )
        by_factor_essentials = all(
            x.essential.is_empty() and y.essential.is_empty() for x, y in pairs
        )
        by_product_essential = verdict.essential_spectrum.is_empty()
        agreed = (
            by_cross_sums
            == by_factor_essentials
            == by_product_essential
            == (verdict.verdict is Verdict.COMPACT)
        )
        if not agreed:
            failures.append(
                f"case {case}: criteria disagree "
                f"(cross-sums {by_cross_sums}, factor essentials {by_factor_essentials}, "
                f"product essential {by_product_essential}, verdict {verdict.verdict})"
            )
    return SuiteResult("verdicts", cases, tuple(failures))


def _direct_witnesses(factors: list[DbarFactorModel], q: int) -> tuple:
    """The witnesses ``(j, *K)`` of the product formula, from this module's
    own loops: over the weight-``q`` bit vectors K in lexicographic order and
    each factor j, the part ``E_j + Σ_{i≠j} S_i`` summed out and tested
    against ``{0}``."""
    witnesses = []
    for bits in itertools.product((0, 1), repeat=len(factors)):
        if sum(bits) != q:
            continue
        entries = [factor.box_spectrum[(0, bit)] for factor, bit in zip(factors, bits)]
        for j, own in enumerate(entries):
            part = own.essential
            for i, other in enumerate(entries):
                if i != j and not part.is_empty():
                    part = minkowski_sum(part, other.spectrum)
            if not is_subset_of_zero(part):
                witnesses.append((j, *bits))
    return tuple(witnesses)


def _direct_disagreements(label: str, factors: list[DbarFactorModel], reports: dict) -> list[str]:
    """Where a complete-data report disagrees with the direct evaluation: in
    its verdict, or in its witnesses when the direct rule decided it."""
    failures = []
    for q, report in reports.items():
        witnesses = _direct_witnesses(factors, q)
        want = Verdict.NONCOMPACT if witnesses else Verdict.COMPACT
        if report.verdict is not want:
            failures.append(
                f"{label}: degree {q} is {report.verdict.value} by "
                f"{report.fired_rule}, the direct formula says {want.value}"
            )
        elif report.fired_rule.startswith("essential-spectrum") and report.witnesses != witnesses:
            failures.append(f"{label}: degree {q} witnesses differ from the direct formula")
    return failures


def run_surface_product_suite(seed: int, cases: int) -> SuiteResult:
    """Monotonicity and shortcut logic for products of one-dimensional
    factors, and every verdict against a direct evaluation of the formula.

    The monotonicity implications are theorems about genuine factors, so
    they are checked on those alone; a separately seeded draw of factors
    whose entries are drawn independently, empty spectra included, is
    checked against the direct evaluation only."""
    rnd = random.Random(seed)
    failures = []
    for case in range(cases):
        n = rnd.randint(2, 4)
        factors = [random_factor_model(rnd, f"factor-{case}-{j}") for j in range(n)]
        reports = {q: riemann_surface_product_report(factors, q) for q in range(n + 1)}
        failures += _direct_disagreements(f"case {case}", factors, reports)
        verdicts = {q: report.verdict for q, report in reports.items()}
        if any(v is Verdict.UNDECIDABLE for v in verdicts.values()):
            failures.append(f"case {case}: unexpected undecidable verdict")
            continue
        noncompact = {q for q, v in verdicts.items() if v is Verdict.NONCOMPACT}
        if 0 in noncompact and not set(range(n)).issubset(noncompact):
            failures.append(f"case {case}: degree-0 non-compactness did not propagate")
        if n in noncompact and not set(range(1, n + 1)).issubset(noncompact):
            failures.append(f"case {case}: top-degree non-compactness did not propagate")
        middle = set(range(1, n)) & noncompact
        if middle and not set(range(1, n)).issubset(noncompact):
            failures.append(f"case {case}: middle-degree non-compactness did not spread")
        mid_compact = (0 not in noncompact) and (n not in noncompact)
        for q in range(1, n):
            if (verdicts[q] is Verdict.COMPACT) != mid_compact:
                failures.append(
                    f"case {case}: middle degree {q} disagrees with the end degrees"
                )
        if any(
            f.bergman_dim is not None and is_infinite(f.bergman_dim) for f in factors
        ) and not set(range(n)).issubset(noncompact):
            failures.append(f"case {case}: infinite Bergman space did not force non-compactness")
        solution_noncompact = any(
            not is_subset_of_zero(f.box_spectrum[(0, 0)].essential)
            or not is_subset_of_zero(f.box_spectrum[(0, 1)].essential)
            for f in factors
        )
        if solution_noncompact and noncompact != set(range(n + 1)):
            failures.append(
                f"case {case}: non-compact factor solution operator did not spread to all degrees"
            )
    loose = random.Random(f"{seed}/non-genuine")
    for case in range(cases):
        factors = [
            _loose_factor_model(loose, f"loose-{case}-{j}")
            for j in range(loose.randint(2, 4))
        ]
        reports = {
            q: riemann_surface_product_report(factors, q) for q in range(len(factors) + 1)
        }
        failures += _direct_disagreements(f"non-genuine case {case}", factors, reports)
    return SuiteResult("surface-products", cases, tuple(failures))


def run_joint_suite(seed: int, cases: int) -> SuiteResult:
    """Joint spectra of tensored pairs and the sum-operator identity, every
    gap held to ``MATCH_GAP``."""
    from .jointspec import (
        cartesian_gap,
        pairing_gap,
        spectral_mapping,
        sum_operator_check,
        tensor_pair_spectrum,
    )

    rng = np.random.default_rng(seed)

    def random_normal_matrix(n: int) -> np.ndarray:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return q @ np.diag(d) @ q.conj().T

    def random_psd(n: int) -> np.ndarray:
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return b @ b.conj().T / n

    failures = []
    for case in range(cases):
        nt = int(rng.integers(1, 5))
        ns = int(rng.integers(1, 5))
        t = random_normal_matrix(nt)
        s = random_normal_matrix(ns)
        cart_gap = cartesian_gap(tensor_pair_spectrum(t, s), t, s)
        if not cart_gap <= MATCH_GAP:
            failures.append(f"case {case}: Cartesian pairing gap {cart_gap:.2e}")

        nt = int(rng.integers(1, 9))
        ns = int(rng.integers(1, 9))
        t = random_psd(nt)
        s = random_psd(ns)
        report = sum_operator_check(t, s)
        if not report.passed:
            failures.append(
                f"case {case}: sum-operator gaps {report.max_gap:.2e} / "
                f"{report.symbolic_max_gap:.2e}"
            )
        mapped = spectral_mapping(
            tensor_pair_spectrum(t, s), lambda lam, mu: lam + mu
        )
        assembled = [complex(v) for v in report.eigenvalues]
        map_gap = pairing_gap(
            [(z, 0j) for z in mapped], [(z, 0j) for z in assembled]
        )
        if not map_gap <= MATCH_GAP:
            failures.append(f"case {case}: mapping vs assembly gap {map_gap:.2e}")
    return SuiteResult("joint", cases, tuple(failures))


SUITES = {
    "finite-complex": (run_complex_suite,),
    "finite-pair": (run_tensor_suite, run_joint_suite),
    "spectral-model": (run_spectra_suite, run_verdict_suite),
    "dbar-factors": (run_surface_product_suite,),
}

_CUTOFF_AWARE = (run_spectra_suite, run_verdict_suite)


def run_kind_suites(
    kind: str, seed: int, cases: int, cutoff: Fraction | None = None
) -> list[SuiteResult]:
    """All property suites registered for one scenario kind."""
    results = []
    for suite in SUITES[kind]:
        if cutoff is not None and suite in _CUTOFF_AWARE:
            results.append(suite(seed, cases, cutoff))
        else:
            results.append(suite(seed, cases))
    return results
