import numpy as np
import pytest

from hcspec.numerics import (
    DEFAULT_TOL,
    NonFiniteError,
    NotHermitianError,
    SizeOverflowError,
    Tolerance,
    hermitian_eig,
    kronecker,
    max_abs,
    numeric_rank,
    pseudo_inverse,
    range_projection,
)


def test_identity_eigenvalues():
    dec = hermitian_eig(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_two_by_two_eigenvalues_match_characteristic_roots():
    # roots of x^2 - 4x + 3
    roots = sorted(np.roots([1.0, -4.0, 3.0]).real)
    dec = hermitian_eig([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(dec.eigenvalues, roots)


def test_diagonal_matrix_sorted_ascending():
    dec = hermitian_eig(np.diag([5.0, 2.0, 0.0]))
    assert np.allclose(dec.eigenvalues, [0.0, 2.0, 5.0])


def test_non_hermitian_rejected():
    with pytest.raises(NotHermitianError):
        hermitian_eig([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.zeros((2, 3)))


def test_empty_matrix_eig():
    dec = hermitian_eig(np.zeros((0, 0)))
    assert dec.eigenvalues.size == 0 and dec.residual == 0.0


def test_random_hermitian_reconstruction():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 13, 32):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (a + a.conj().T) / 2
        dec = hermitian_eig(a)
        recon = dec.vectors @ np.diag(dec.eigenvalues) @ dec.vectors.conj().T
        assert max_abs(a - recon) <= 1e-8
        assert max_abs(dec.vectors.conj().T @ dec.vectors - np.eye(n)) <= 1e-9


def test_pseudo_inverse_scalar():
    assert np.allclose(pseudo_inverse([[2.0]]), [[0.5]])


def test_pseudo_inverse_zero_matrix():
    out = pseudo_inverse(np.zeros((2, 3)))
    assert out.shape == (3, 2) and max_abs(out) == 0.0


def test_pseudo_inverse_of_projection_is_itself():
    p = np.diag([1.0, 0.0])
    assert np.allclose(pseudo_inverse(p), p)


def test_penrose_identities_on_random_ranks():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 17))
        r = int(rng.integers(0, min(m, n) + 1))
        left = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        right = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        a = left @ right if r else np.zeros((m, n), dtype=complex)
        p = pseudo_inverse(a)
        assert max_abs(a @ p @ a - a) <= 1e-8
        assert max_abs(p @ a @ p - p) <= 1e-8
        assert max_abs(a @ p - (a @ p).conj().T) <= 1e-8
        assert max_abs(p @ a - (p @ a).conj().T) <= 1e-8
        assert numeric_rank(a) == r


def test_kronecker_identity_and_scaling():
    assert np.allclose(kronecker(np.eye(2), np.eye(3)), np.eye(6))
    swap = [[0.0, 1.0], [1.0, 0.0]]
    assert np.allclose(kronecker([[2.0]], swap), [[0.0, 2.0], [2.0, 0.0]])


def test_kronecker_eigenvalues_multiply():
    out = kronecker(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert sorted(np.diag(out).real) == [3.0, 4.0, 6.0, 8.0]


def test_kronecker_dimension_cap():
    with pytest.raises(SizeOverflowError):
        kronecker(np.eye(3), np.eye(3), dim_cap=8)


def test_kronecker_sum_spectrum_is_minkowski_sum():
    # eig(A (x) I + I (x) B) = {alpha + beta} as multisets
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (a + a.conj().T) / 2
        b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        b = (b + b.conj().T) / 2
        big = kronecker(a, np.eye(m)) + kronecker(np.eye(n), b)
        got = hermitian_eig(big).eigenvalues
        want = sorted(
            x + y for x in hermitian_eig(a).eigenvalues for y in hermitian_eig(b).eigenvalues
        )
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8


def test_range_projection_cases():
    assert max_abs(range_projection(np.zeros((3, 2)))) == 0.0
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(range_projection(a), np.eye(4), atol=1e-10)
    v = np.array([[1.0], [0.0]])
    assert np.allclose(range_projection(v), np.diag([1.0, 0.0]))


def test_range_projection_rank_matches_matrix_rank():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 10))
        r = int(rng.integers(0, min(m, n) + 1))
        a = (
            rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            if r
            else np.zeros((m, n))
        )
        proj = range_projection(a)
        assert numeric_rank(proj) == numeric_rank(a) == r
        assert max_abs(proj @ proj - proj) <= 1e-10
        assert max_abs(proj - proj.conj().T) <= 1e-12


def test_numeric_rank_examples():
    assert numeric_rank(np.eye(4)) == 4
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank([[1.0, 1.0], [1.0, 1.0]]) == 1


def test_overflowing_singular_value_is_refused():
    # sigma_max = 2e308 overflows; an Inf cutoff would count rank 0
    with pytest.raises(NonFiniteError):
        numeric_rank([[1e308, 1e308], [1e308, 1e308]])


def test_singular_value_without_finite_reciprocal_is_refused():
    # 1e-320 lies above its own cutoff, but 1/1e-320 overflows to Inf
    with pytest.raises(NonFiniteError):
        pseudo_inverse([[1e-320]])


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eigen_residual=0.0)
    with pytest.raises(ValueError):
        Tolerance(identity_check=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rank_threshold=0.0)
    assert Tolerance(rank_threshold=1e-6).rank_cutoff(10, 1.0) == 1e-6
    assert DEFAULT_TOL.rank_cutoff(4, 0.0) == 0.0
