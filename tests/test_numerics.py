import math
import warnings

import numpy as np
import pytest

from hcspec.numerics import (
    DEFAULT_TOL,
    MOMENT_GATE,
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    SizeOverflowError,
    Tolerance,
    hermitian_eig,
    kronecker_sum,
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


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (3, 1), (2, 5), (4, 3), (6, 6), (0, 3), (2, 0), (0, 0)])
def test_kronecker_sum_equals_the_two_products(n, m):
    rng = np.random.default_rng(10 * n + m)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    out = kronecker_sum(a, b)
    want = np.kron(a, np.eye(m)) + np.kron(np.eye(n), b)
    # equal entry for entry (array_equal holds 0.0 and -0.0 equal)
    assert out.shape == want.shape == (n * m, n * m)
    assert out.dtype == np.complex128 and np.array_equal(out, want)
    assert not out.flags.writeable


def test_kronecker_sum_dimension_cap():
    assert kronecker_sum(np.eye(2), np.eye(4), dim_cap=8).shape == (8, 8)
    with pytest.raises(SizeOverflowError, match="kronecker output 9x9 exceeds dimension cap 8"):
        kronecker_sum(np.eye(3), np.eye(3), dim_cap=8)


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
        big = np.kron(a, np.eye(m)) + np.kron(np.eye(n), b)
        got = hermitian_eig(big).eigenvalues
        want = sorted(
            x + y for x in hermitian_eig(a).eigenvalues for y in hermitian_eig(b).eigenvalues
        )
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8


def test_values_only_path_passes_fuzzed_psd_kronecker_sums():
    # the moment gate must pass what eigvalsh returns on the assembled
    # operators of the sum-operator check, up to 256 x 256
    rng = np.random.default_rng(31)
    for n, m in ((1, 1), (2, 3), (5, 8), (9, 12), (16, 16)):
        bt = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        bs = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a, b = bt @ bt.conj().T, bs @ bs.conj().T
        big = np.kron(a, np.eye(m)) + np.kron(np.eye(n), b)
        dec = hermitian_eig(big, vectors=False)
        assert dec.vectors is None and dec.residual <= MOMENT_GATE
        assert not dec.eigenvalues.flags.writeable
        want = np.sort(np.add.outer(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)).ravel())
        assert np.max(np.abs(dec.eigenvalues - want)) <= 1e-9 * max(1.0, want[-1])


def test_values_only_path_keeps_the_checks(monkeypatch):
    with pytest.raises(NotHermitianError):
        hermitian_eig([[0.0, 1.0], [0.0, 0.0]], vectors=False)
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.zeros((2, 3)), vectors=False)
    assert hermitian_eig(np.zeros((0, 0)), vectors=False).eigenvalues.size == 0

    rng = np.random.default_rng(37)
    b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    a = b @ b.conj().T
    assert hermitian_eig(a, vectors=False).residual <= MOMENT_GATE
    eigvalsh = np.linalg.eigvalsh
    # one shifted eigenvalue moves the trace; two opposite shifts keep the
    # trace and move the sum of squares
    for shift in ({3: 1e-6}, {3: 1e-6, 12: -1e-6}):

        def shifted(m):
            values = eigvalsh(m).copy()
            for idx, delta in shift.items():
                values[idx] += delta
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        with pytest.raises(NoConvergenceError):
            hermitian_eig(a, vectors=False)


def test_values_only_gate_honours_eigen_residual():
    rng = np.random.default_rng(41)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = b @ b.conj().T
    assert hermitian_eig(a, Tolerance(eigen_residual=1e-9), vectors=False).residual <= MOMENT_GATE
    # a tolerance under one unit N * eps * ||A||_F is out of the moments'
    # reach, and the measured residual of the vectors path fails it
    for vectors in (True, False):
        with pytest.raises(NoConvergenceError):
            hermitian_eig(a, Tolerance(eigen_residual=1e-300), vectors=vectors)
    # the zero matrix has exact eigenvalues and passes any tolerance
    zero = hermitian_eig(np.zeros((3, 3)), Tolerance(eigen_residual=1e-300), vectors=False)
    assert zero.eigenvalues.tolist() == [0.0, 0.0, 0.0] and zero.residual == 0.0


def test_values_only_gate_sees_one_shifted_eigenvalue(monkeypatch):
    # a shift of 8 units passes the moment gate (16 units) but moves the
    # trace by itself, above a tolerance of half the shift; the vectors path
    # then decides and returns its own eigenvalues
    rng = np.random.default_rng(53)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = b @ b.conj().T
    herm = (a + a.conj().T) / 2.0
    shift = 8 * 8 * np.finfo(float).eps * np.linalg.norm(herm)
    eigvalsh = np.linalg.eigvalsh

    def shifted(m):
        values = eigvalsh(m).copy()
        values[1] += shift
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    dec = hermitian_eig(a, Tolerance(eigen_residual=shift / 2), vectors=False)
    assert dec.vectors is None and dec.residual <= shift / 2
    assert np.array_equal(dec.eigenvalues, np.linalg.eigh(herm)[0])
    # above the shift the moments answer, and the shifted values stand
    dec = hermitian_eig(a, Tolerance(eigen_residual=2 * shift), vectors=False)
    assert 4 <= dec.residual <= MOMENT_GATE
    assert np.array_equal(dec.eigenvalues, shifted(herm))


@pytest.mark.parametrize(
    "a", [[[9e6]], np.diag([5e6, 5e6, 1.0]), np.diag([1e200, -3e200])], ids=["9e6", "5e6", "1e200"]
)
def test_values_only_path_keeps_exact_large_eigenvalues(a, monkeypatch):
    # one unit N * eps * ||A||_F exceeds the default eigen_residual of 1e-9
    # here, so the measured residual of the vectors path (0 on a diagonal)
    # decides instead of refusing exact eigenvalues
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    dec = hermitian_eig(a, vectors=False)
    assert dec.vectors is None and dec.residual == 0.0 and len(calls) == 1
    assert dec.eigenvalues.tolist() == sorted(np.diag(a).tolist())
    # inside the tolerance the moments answer alone
    hermitian_eig(np.diag([1.0, 2.0]), vectors=False)
    assert len(calls) == 1


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e150, 1e-150])
def test_values_only_gate_is_overflow_safe(scale, monkeypatch):
    rng = np.random.default_rng(43)
    b = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    a = (b @ b.conj().T) * scale
    want = np.linalg.eigvalsh(a)
    # near 1e200 the squares overflow and near 1e-200 they underflow, so the
    # moments are taken on a scaled copy; the eigenvalues themselves pass
    tol = Tolerance(eigen_residual=1e-6 * scale)
    dec = hermitian_eig(a, tol, vectors=False)
    assert dec.residual <= MOMENT_GATE
    assert np.array_equal(dec.eigenvalues, want)
    if scale > 1.0:
        with pytest.raises(NoConvergenceError):  # the measured residual misses 1e-9 too
            hermitian_eig(a, vectors=False)
    eigvalsh = np.linalg.eigvalsh
    for poison in (np.nan, np.inf):

        def poisoned(m):
            values = eigvalsh(m).copy()
            values[5] = poison
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", poisoned)
        with pytest.raises(NoConvergenceError):
            hermitian_eig(a, tol, vectors=False)
        monkeypatch.undo()


@pytest.mark.parametrize("vectors", [True, False])
def test_overflowing_hermitian_part_is_refused(vectors):
    # a + a* overflows to Inf and the solver returns NaN; the failed gate
    # names the overflow, and no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="overflows"):
            hermitian_eig(np.full((2, 2), 1e308), vectors=vectors)


@pytest.mark.parametrize("vectors", [True, False])
def test_overflowing_adjoint_deviation_is_refused(vectors):
    # a - a* overflows to Inf, which still exceeds the tolerance; the refusal
    # is the NotHermitianError, and no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0, 1e308], [-1e308, 0]]), vectors=vectors)


def test_hermitian_part_is_the_mean_with_the_adjoint():
    # the gate sees exactly (A + A*)/2, and max|A - A*| decides the refusal
    rng = np.random.default_rng(47)
    b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    a = b @ b.conj().T + 1e-10 * b
    herm = (a + a.conj().T) / 2.0
    assert np.array_equal(hermitian_eig(a).eigenvalues, np.linalg.eigh(herm)[0])
    assert np.array_equal(hermitian_eig(a, vectors=False).eigenvalues, np.linalg.eigvalsh(herm))
    skew = max_abs(a - a.conj().T)
    hermitian_eig(a, Tolerance(identity_check=skew))
    with pytest.raises(NotHermitianError):
        hermitian_eig(a, Tolerance(identity_check=skew * (1 - 1e-12)))


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


@pytest.mark.parametrize("field", ["eigen_residual", "identity_check", "rank_threshold"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-9, 0.0])
def test_tolerance_refuses_values_that_are_not_finite_and_positive(field, value):
    # a NaN fails every comparison, so it would pass every gate: a NaN rank
    # threshold made numeric_rank(eye(3)) 0, a NaN identity check made
    # [[0, 1], [0, 0]] Hermitian
    with pytest.raises(ValueError, match=field):
        Tolerance(**{field: value})
    assert getattr(Tolerance(**{field: 1e-3}), field) == 1e-3
