import math

import numpy as np
import pytest

from hcspec import complexes, fuzzing
from hcspec.complexes import (
    BlockSlot,
    DegreeOutOfRangeError,
    FiniteComplex,
    InconsistentRankError,
    ProductBlockIndex,
    ShapeMismatchError,
    check_identities,
    cohomology_dim,
    hodge,
    laplacian,
    laplacian_inverse,
    random_complex,
    solution_operator,
    spectrum_multiset,
    validate,
)
from hcspec.numerics import (
    DEFAULT_TOL,
    NoConvergenceError,
    Tolerance,
    hermitian_eig,
    max_abs,
    pseudo_inverse,
    rank_cutoff,
    svd,
)
from hcspec.tensorprod import kuenneth_check, tensor_complex, verify_product_spectrum


def chain(d=1.0):
    """0 -> C -> C -> 0 with the single differential [d]."""
    return FiniteComplex(0, (1, 1), {0: [[d]]})


def test_shape_validation():
    with pytest.raises(ShapeMismatchError):
        FiniteComplex(0, (1, 1), {0: [[1.0, 2.0]]})
    with pytest.raises(ShapeMismatchError):
        FiniteComplex(0, (-1,))
    with pytest.raises(ShapeMismatchError):
        FiniteComplex(0, ())


def test_validate_zero_differentials_pass():
    c = FiniteComplex(0, (2, 3))
    report = validate(c)
    assert report.passed and all(r == 0.0 for r in report.residuals.values())


def test_validate_single_differential_passes():
    assert validate(chain()).passed


def test_validate_flags_nonzero_square():
    c = FiniteComplex(0, (2, 2, 2), {0: np.eye(2), 1: np.eye(2)})
    report = validate(c)
    assert not report.passed and report.residuals[0] == 1.0


def test_random_complex_is_deterministic_and_valid():
    a = random_complex([3, 4, 2], seed=5)
    b = random_complex([3, 4, 2], seed=5)
    assert validate(a).passed
    for degree in a.differentials:
        assert np.array_equal(a.differentials[degree], b.differentials[degree])
    c = random_complex([3, 4, 2], seed=6)
    assert any(
        not np.array_equal(a.differentials[d], c.differentials[d])
        for d in a.differentials
    )


def test_random_complex_degenerate_dims():
    zero = random_complex([0], seed=1)
    assert validate(zero).passed and zero.differentials == {}
    assert validate(random_complex([1, 1], seed=2)).passed
    pinched = random_complex([2, 0, 3], seed=3)
    assert validate(pinched).passed and pinched.differentials == {}


def test_laplacian_chain():
    c = chain()
    assert np.allclose(laplacian(c, 0), [[1.0]])
    assert np.allclose(laplacian(c, 1), [[1.0]])
    assert np.allclose(laplacian(chain(2.0), 0), [[4.0]])


def test_laplacian_zero_complex():
    c = FiniteComplex(0, (3,))
    assert max_abs(laplacian(c, 0)) == 0.0
    with pytest.raises(DegreeOutOfRangeError):
        laplacian(c, 1)


def test_hodge_zero_differentials():
    c = FiniteComplex(0, (3,))
    split = hodge(c, 0)
    assert np.allclose(split.p_harmonic, np.eye(3))
    assert max_abs(split.p_range_d) == 0.0
    assert max_abs(split.p_range_dstar) == 0.0
    assert split.harmonic_dim == 3


def test_hodge_invertible_laplacian():
    split = hodge(chain(), 0)
    assert split.harmonic_dim == 0
    assert np.allclose(split.p_range_dstar, [[1.0]])
    assert max_abs(split.p_harmonic) <= 1e-12


def test_hodge_projectors_sum_to_identity_on_random_complexes():
    for seed in range(5):
        c = random_complex([3, 4, 3], seed=seed)
        for degree in c.degrees:
            split = hodge(c, degree)
            n = c.dim(degree)
            total = split.p_harmonic + split.p_range_d + split.p_range_dstar
            assert max_abs(total - np.eye(n)) <= 1e-8


def test_cohomology_dims():
    c = FiniteComplex(0, (1, 1))
    assert cohomology_dim(c, 0) == 1 and cohomology_dim(c, 1) == 1
    assert cohomology_dim(chain(), 0) == 0 and cohomology_dim(chain(), 1) == 0
    middle = FiniteComplex(0, (1, 2, 1), {0: [[1.0], [0.0]], 1: [[0.0, 1.0]]})
    assert validate(middle).passed
    assert cohomology_dim(middle, 1) == 0


def test_cohomology_cross_check_flags_bad_thresholds():
    # the singular value 1e-9 of d_0 lies above its rank cutoff 4 eps, but
    # the Laplacian eigenvalue 1e-18 lies below its cutoff 2 eps, so the
    # kernel count and the rank-nullity count disagree
    c = FiniteComplex(0, (2, 2), {0: np.diag([1.0, 1e-9])})
    with pytest.raises(InconsistentRankError):
        cohomology_dim(c, 0)


def test_memo_is_keyed_by_tolerance():
    # memoized eigenvalues do not skip the residual gate of another tolerance
    r = random_complex([3, 4, 2], seed=8)
    spectrum_multiset(r, 1)
    with pytest.raises(NoConvergenceError):
        spectrum_multiset(r, 1, Tolerance(eigen_residual=1e-300))


def test_a_layout_ignores_the_zero_size_maps_outside_the_window():
    layout = {0: ProductBlockIndex(0, (BlockSlot(0, 0, 0, 1),))}
    c = FiniteComplex(0, (1,), {-1: np.zeros((1, 0)), 0: np.zeros((0, 1))}, layout)
    assert sorted(c.differentials) == [-1, 0] and validate(c).passed


def test_large_norm_complex_keeps_its_spectrum():
    # d_0 = [3000]: the Laplacian is [9e6] at both degrees, exactly.  One
    # unit N * eps * ||A||_F (2e-9) exceeds the default eigen_residual, so
    # the measured residual of the vectors path (0) lets the values pass
    c, unit = chain(3000.0), chain(1.0)
    assert [spectrum_multiset(c, degree) for degree in c.degrees] == [[9e6], [9e6]]
    assert [cohomology_dim(c, degree) for degree in c.degrees] == [0, 0]
    product = tensor_complex(c, unit)
    assert kuenneth_check(c, unit, product).passed
    assert all(verify_product_spectrum(c, unit, product, i).passed for i in product.degrees)


def test_spectrum_multiset_repeats():
    c = random_complex([3, 4, 2], seed=8)
    first = spectrum_multiset(c, 1)
    first.append(-1.0)  # the caller owns the list; the memo must not change
    again = spectrum_multiset(c, 1)
    assert again == first[:-1]
    assert again == spectrum_multiset(random_complex([3, 4, 2], seed=8), 1)


def _random_complexes():
    rnd = np.random.default_rng(2024)
    return [
        random_complex(list(rnd.integers(1, 5, size=rnd.integers(2, 4))), seed=seed)
        for seed in range(10)
    ]


def _fuzzed_complexes(count):
    rnd = np.random.default_rng(2026)
    return [
        random_complex(list(rnd.integers(0, 7, size=rnd.integers(1, 5))), seed=seed)
        for seed in range(count)
    ]


def test_hodge_and_cohomology_kernel_counts_agree():
    # hodge counts eigenvector columns of the Laplacian (eigh); cohomology_dim
    # counts the memoized eigvalsh values and checks them against the SVD ranks
    factors = _random_complexes()
    products = [tensor_complex(a, b) for a, b in zip(factors, factors[1:])]
    for c in factors + products + _fuzzed_complexes(200):
        for degree in c.degrees:
            assert hodge(c, degree).harmonic_dim == cohomology_dim(c, degree)
    # up to the 358-dimensional degree, against the count hodge takes from
    # eigh, without its two range projectors
    a = random_complex([6, 14, 10], seed=3)
    product = tensor_complex(a, random_complex([8, 16, 9], seed=4))
    assert max(product.dims) == 358
    for degree in product.degrees:
        values = np.clip(hermitian_eig(laplacian(product, degree)).eigenvalues, 0.0, None)
        kernel = int(np.count_nonzero(complexes._kernel_mask(values)))
        assert cohomology_dim(product, degree) == kernel


def test_values_only_spectra_agree_with_the_vectors_path():
    factors = _fuzzed_complexes(40)
    products = [tensor_complex(a, b) for a, b in zip(factors[::2], factors[1::2])]
    for c in factors + products:
        for degree in c.degrees:
            if not c.dim(degree):
                continue
            got = np.array(spectrum_multiset(c, degree))
            want = np.clip(hermitian_eig(laplacian(c, degree)).eigenvalues, 0.0, None)
            assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, want[-1])


def test_laplacian_memo_takes_only_the_values_path(monkeypatch):
    vector_calls = []
    original = complexes.hermitian_eig

    def counting(a, tol=DEFAULT_TOL, vectors=True):
        vector_calls.append(vectors)
        return original(a, tol, vectors)

    monkeypatch.setattr(complexes, "hermitian_eig", counting)
    c = random_complex([3, 4, 2], seed=11)
    for degree in c.degrees:
        cohomology_dim(c, degree)
        spectrum_multiset(c, degree)
    assert vector_calls == [False] * len(c.degrees)  # one memoized call per degree
    hodge(c, 1)  # the Hodge split needs the kernel vectors
    assert vector_calls[-1] is True


def test_shifted_eigenvalue_fails_the_laplacian_memo(monkeypatch):
    eigvalsh = np.linalg.eigvalsh

    def shifted(m):
        values = eigvalsh(m).copy()
        values[1] += 1e-6
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    with pytest.raises(NoConvergenceError):
        spectrum_multiset(random_complex([3, 4, 2], seed=8), 1)


def _dilation_reference(d):
    """Pseudo-inverse, range projectors of ``d`` and ``d*``, and rank of ``d``
    read off an eigendecomposition of the Hermitian dilation ``[[0, d], [d*,
    0]]``, whose eigenvalues are the signed singular values of ``d``."""
    rows, cols = d.shape
    dilation = np.zeros((rows + cols, rows + cols), dtype=complex)
    dilation[:rows, rows:] = d
    dilation[rows:, :rows] = d.conj().T
    values, vectors = np.linalg.eigh(dilation)
    cutoff = rank_cutoff(rows + cols, float(np.max(np.abs(values))))
    keep = np.abs(values) > cutoff
    inverted = np.zeros_like(values)
    inverted[keep] = 1.0 / values[keep]
    pinv = ((vectors * inverted) @ vectors.conj().T)[rows:, :rows]
    image, coimage = vectors[:rows, keep], vectors[rows:, keep]
    projectors = image @ image.conj().T, coimage @ coimage.conj().T
    return pinv, projectors, int(np.count_nonzero(values[keep] > 0))


def test_svd_kernels_match_dilation_reference():
    factors = _random_complexes()
    deficient = 0
    for a, b in zip(factors, factors[1:]):
        product = tensor_complex(a, b)
        for d in product.differentials.values():
            pinv, (proj, coproj), rank = _dilation_reference(d)
            deficient += rank < min(d.shape)
            factors = svd(d, vectors=True)
            assert svd(d).rank == factors.rank == rank
            image, coimage = factors.u[:, :rank], factors.vh[:rank]
            assert max_abs(image @ image.conj().T - proj) <= 1e-10
            assert max_abs(coimage.conj().T @ coimage - coproj) <= 1e-10
            assert max_abs(pseudo_inverse(d) - pinv) <= 1e-10 * max(1.0, max_abs(pinv))
    assert deficient >= 10


@pytest.mark.parametrize("factor, hodge_fails, identities_fail", [("u", [2], [2]), ("vh", [1], [1, 2])])
def test_a_corrupted_factorization_fails_hodge_and_identities(factor, hodge_fails, identities_fail):
    # hodge and check_identities read one memoized SVD of d_1, but each sets
    # it against a factorization of a Laplacian.  A kept left vector traded
    # for one outside the range moves P_ran(d_1) and S_2, so degree 2 fails
    # both reports; a kept right vector traded for one in the kernel moves
    # P_ran(d_1*) at degree 1 and S_2 at degree 2.
    c = random_complex([3, 5, 4, 2], seed=0)
    assert all(hodge(c, i).report.passed and check_identities(c, i).passed for i in c.degrees)
    factors = complexes._svd_of(c, 1)
    assert factors.rank == 2
    swap = [0, factors.rank]
    if factor == "u":
        factors.u[:, swap] = factors.u[:, swap[::-1]]
    else:
        factors.vh[swap] = factors.vh[swap[::-1]]
    assert complexes._svd_of(c, 1) is factors
    assert [i for i in c.degrees if not hodge(c, i).report.passed] == hodge_fails
    assert [i for i in c.degrees if not check_identities(c, i).passed] == identities_fail


def test_solution_operator_examples():
    assert np.allclose(solution_operator(chain(2.0), 1), [[0.5]])
    c = FiniteComplex(0, (2, 2))
    assert max_abs(solution_operator(c, 1)) == 0.0
    r = random_complex([4, 3, 2], seed=11)
    for degree in (1, 2):
        d = r.differential(degree - 1)
        s = solution_operator(r, degree)
        assert max_abs(d @ s @ d - d) <= 1e-8


def test_laplacian_inverse_examples():
    assert np.allclose(laplacian_inverse(chain(2.0), 0), [[0.25]])
    zero = FiniteComplex(0, (2,))
    assert max_abs(laplacian_inverse(zero, 0)) == 0.0
    c = FiniteComplex(0, (1, 2), {0: [[0.0], [np.sqrt(2.0)]]})
    n = laplacian_inverse(c, 1)
    assert np.allclose(n, np.diag([0.0, 0.5]), atol=1e-12)
    # N * Delta = identity minus harmonic projection
    split = hodge(c, 1)
    assert max_abs(n @ laplacian(c, 1) - (np.eye(2) - split.p_harmonic)) <= 1e-10


def test_identities_zero_and_scalar_chain():
    zero = FiniteComplex(0, (2, 2))
    for degree in (0, 1):
        report = check_identities(zero, degree)
        assert report.passed and all(r == 0.0 for r in report.residuals.values())
    for degree in (0, 1):
        report = check_identities(chain(), degree)
        assert all(r <= 1e-12 for r in report.residuals.values())


def test_identities_on_random_complexes():
    for seed in (0, 1, 2):
        c = random_complex([3, 5, 4, 2], seed=seed)
        for degree in c.degrees:
            report = check_identities(c, degree)
            assert report.passed, (seed, degree, report.residuals)


def test_spectrum_multiset():
    assert spectrum_multiset(FiniteComplex(0, (2,)), 0) == [0.0, 0.0]
    assert np.allclose(spectrum_multiset(chain(), 0), [1.0])
    assert np.allclose(spectrum_multiset(chain(2.0), 0), [4.0])
    assert spectrum_multiset(chain(), 5) == []


def test_nondegenerate_spectra_exceed_zero():
    # a random complex has a nonzero Laplacian eigenvalue at every supported
    # degree
    for seed in range(5):
        c = random_complex([3, 4, 2], seed=seed)
        for degree in c.degrees:
            if c.dim(degree) == 0:
                continue
            values = spectrum_multiset(c, degree)
            assert values and max(values) > 1e-8


def test_complex_suite_fails_nan_identity_residuals(monkeypatch):
    # the suite reads the library's decision, and a NaN residual fails it
    real = complexes.check_identities

    def nan_residuals(complex_, degree, tol=DEFAULT_TOL):
        names = real(complex_, degree, tol).residuals
        return complexes.ResidualReport.judge({name: math.nan for name in names}, tol)

    assert fuzzing.run_complex_suite(0, 3).passed
    monkeypatch.setattr(complexes, "check_identities", nan_residuals)
    result = fuzzing.run_complex_suite(0, 3)
    assert not result.passed and all("identity residuals" in f for f in result.failures)


def test_hodge_report_fails_nan_residuals(monkeypatch):
    monkeypatch.setattr(
        complexes, "_projector_residuals", lambda *projectors: {"sum_minus_identity": math.nan, "pairwise_products": 0.0}
    )
    assert not hodge(chain(), 0).report.passed
    result = fuzzing.run_complex_suite(0, 3)
    assert not result.passed and all("Hodge projector residuals" in f for f in result.failures)


def test_one_report_type_judges_every_residual():
    c = random_complex([2, 3, 2], seed=4)
    reports = [validate(c), check_identities(c, 1), hodge(c, 1).report]
    assert {type(report) for report in reports} == {complexes.ResidualReport}
    assert all(report.passed for report in reports)
    judge = complexes.ResidualReport.judge
    assert judge({"at": 1e-8, "below": 0.0}, DEFAULT_TOL).passed
    assert not judge({"above": 2e-8}, DEFAULT_TOL).passed
    assert not judge({"nan": math.nan, "below": 0.0}, DEFAULT_TOL).passed
