import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcspec import fuzzing, jointspec
from hcspec.jointspec import (
    EigenspaceSplitFailureError,
    NotCommutingError,
    NotNormalError,
    NotPSDError,
    PairShapeError,
    check_pair,
    joint_spectrum,
    pairing_gap,
    spectral_mapping,
    sum_operator_check,
    tensor_pair_spectrum,
)
from hcspec.numerics import NoConvergenceError, NonFiniteError, Tolerance, hermitian_eig
from hcspec.spectra import Point, SpectralSet, minkowski_sum


def test_check_pair_diagonal():
    pair = check_pair(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert pair.commutator_norm == 0.0


def test_check_pair_identity_with_any_normal():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert check_pair(np.eye(2), swap).commutator_norm == 0.0


def test_check_pair_rejects_nilpotent():
    with pytest.raises(NotNormalError):
        check_pair([[0.0, 1.0], [0.0, 0.0]], np.eye(2))


def test_check_pair_rejects_noncommuting():
    swap = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(NotCommutingError):
        check_pair(np.diag([1.0, 2.0]), swap)


def test_joint_spectrum_diagonal_pair():
    points = joint_spectrum(check_pair(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
    assert points.pairs == ((1 + 0j, 3 + 0j), (2 + 0j, 4 + 0j))


def test_joint_spectrum_identity_and_swap():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    points = joint_spectrum(check_pair(np.eye(2), swap))
    assert pairing_gap(points.pairs, [(1 + 0j, -1 + 0j), (1 + 0j, 1 + 0j)]) <= 1e-9


def test_joint_spectrum_pair_with_itself():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    t = (t + t.conj().T) / 2
    points = joint_spectrum(check_pair(t, t))
    assert all(abs(lam - mu) <= 1e-8 for lam, mu in points.pairs)


def test_joint_spectrum_functional_relation():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    t = (t + t.conj().T) / 2
    points = joint_spectrum(check_pair(t, t @ t))
    assert all(abs(mu - lam * lam) <= 1e-7 for lam, mu in points.pairs)


def test_joint_point_count_equals_dimension():
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t = (t + t.conj().T) / 2
        points = joint_spectrum(check_pair(t, np.eye(n)))
        assert len(points.pairs) == n
        for idx, (lam, mu) in enumerate(points.pairs):
            v = points.basis[:, idx]
            assert np.linalg.norm(t @ v - lam * v) <= 1e-8
            assert np.linalg.norm(v - mu * v) <= 1e-8


def test_clustered_eigenvalues_fail_loudly():
    # eigenvalues closer than the cluster gap but a residual bound the mixed
    # joint vectors cannot meet: the split must fail rather than mislead
    loose_commute = Tolerance(eigen_residual=1e-13, identity_check=1e-6)
    t = np.diag([1.0, 1.0 + 1e-8])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    pair = check_pair(t, swap, loose_commute)
    with pytest.raises(EigenspaceSplitFailureError):
        joint_spectrum(pair, loose_commute)


def test_tensor_pair_spectrum_examples():
    points = tensor_pair_spectrum(np.diag([1.0, 2.0]), np.diag([0.0, 5.0]))
    want = [(1 + 0j, 0j), (1 + 0j, 5 + 0j), (2 + 0j, 0j), (2 + 0j, 5 + 0j)]
    assert pairing_gap(points.pairs, want) <= 1e-9

    points = tensor_pair_spectrum([[3.0]], np.diag([1.0, 2.0]))
    assert pairing_gap(points.pairs, [(3 + 0j, 1 + 0j), (3 + 0j, 2 + 0j)]) <= 1e-9

    points = tensor_pair_spectrum(np.zeros((2, 2)), np.zeros((2, 2)))
    assert points.pairs == ((0j, 0j),) * 4


def test_tensor_pair_spectrum_checks_its_factors():
    with pytest.raises(NotNormalError):
        tensor_pair_spectrum([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    with pytest.raises(NotNormalError):
        tensor_pair_spectrum(np.eye(3), [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PairShapeError):
        tensor_pair_spectrum([[1.0, 0.0]], np.eye(2))


def test_tensor_pair_matches_cartesian_on_fuzzed_normals():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        t = q1 @ np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)) @ q1.conj().T
        s = q2 @ np.diag(rng.standard_normal(m) + 1j * rng.standard_normal(m)) @ q2.conj().T
        points = tensor_pair_spectrum(t, s)
        eig_t = np.linalg.eigvals(t)
        eig_s = np.linalg.eigvals(s)
        cartesian = [(complex(a), complex(b)) for a in eig_t for b in eig_s]
        assert pairing_gap(points.pairs, cartesian) <= 1e-7


def _unitary(rng, n):
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return u


def _normal(values, u):
    """``U diag(values) U*`` for a unitary U: normal, with those eigenvalues."""
    return u @ np.diag(values) @ u.conj().T


def _quotient_gaps(points, t, s):
    """Largest distance of the reported pairs from the basis Rayleigh quotients."""
    basis = points.basis
    got = np.array(points.pairs)
    want_t = np.einsum("ij,ik,kj->j", basis.conj(), t, basis)
    want_s = np.einsum("ij,ik,kj->j", basis.conj(), s, basis)
    return max(np.max(np.abs(got[:, 0] - want_t)), np.max(np.abs(got[:, 1] - want_s)))


def _refuse_kronecker(monkeypatch):
    """Make ``np.kron`` raise, so a tensored pair must be applied by factor
    products."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Kronecker factor was formed")

    monkeypatch.setattr(np, "kron", refuse)


def test_combination_collision_falls_back_to_simdiag(monkeypatch):
    # (0, 0) and (c1 - i c0, 0) have the same combination value c0 c1 - c1 c0
    # = 0, so the head eigendecomposition leaves their columns mixed and the
    # cluster must be split by the recursion
    c = jointspec.COMBINATION_WEIGHTS
    lam = [0.0, complex(c[1], -c[0]), 1.0, 1.0j, 0.0]
    mu = [0.0, 0.0, 2.0, -1.0, 0.0]
    u = _unitary(np.random.default_rng(41), len(lam))
    t, s = _normal(lam, u), _normal(mu, u)
    calls = []
    simdiag = jointspec._simdiag

    def counting(mats, tol):
        calls.append(len(mats))
        return simdiag(mats, tol)

    monkeypatch.setattr(jointspec, "_simdiag", counting)
    points = joint_spectrum(check_pair(t, s))
    assert calls and calls[0] == 4
    assert pairing_gap(points.pairs, list(zip(lam, mu))) <= 1e-9
    assert _quotient_gaps(points, t, s) <= 1e-10


def test_tensor_pair_collision_splits_through_factor_products(monkeypatch):
    # T has the points 0 and c1 - i c0, and S the point 0: the joint points
    # (0, 0) and (c1 - i c0, 0) of the tensored pair collide in the head
    # combination, and so do (0, 2) and (c1 - i c0, 2)
    c = jointspec.COMBINATION_WEIGHTS
    lam, mu = [0.0, complex(c[1], -c[0]), 1.0], [0.0, 2.0]
    rng = np.random.default_rng(42)
    t, s = _normal(lam, _unitary(rng, 3)), _normal(mu, _unitary(rng, 2))
    big_t, big_s = np.kron(t, np.eye(2)), np.kron(np.eye(3), s)
    calls = []
    simdiag = jointspec._simdiag

    def counting(mats, tol):
        calls.append(len(mats))
        return simdiag(mats, tol)

    monkeypatch.setattr(jointspec, "_simdiag", counting)
    _refuse_kronecker(monkeypatch)
    points = tensor_pair_spectrum(t, s)
    monkeypatch.undo()
    assert calls and calls[0] == 4
    assert pairing_gap(points.pairs, [(a, b) for a in lam for b in mu]) <= 1e-9
    assert _quotient_gaps(points, big_t, big_s) <= 1e-10


def test_tensor_pair_head_gate_raises_no_convergence():
    rng = np.random.default_rng(44)
    t = _normal(rng.standard_normal(3) + 1j * rng.standard_normal(3), _unitary(rng, 3))
    s = _normal(rng.standard_normal(4), _unitary(rng, 4))
    with pytest.raises(NoConvergenceError):
        tensor_pair_spectrum(t, s, Tolerance(eigen_residual=1e-300))


def test_combination_weights_separate_small_integer_points():
    # No integer vector z != 0 with |z_i| <= 8 (coordinate differences of the
    # Gaussian-integer palettes the tests and benchmark draw from) has c . z
    # near 0; the smallest |c . z| there is about 4.4e-4, far above the
    # cluster gap.  Rationally dependent weights such as 1, phi - 1,
    # sqrt 2 - 1, sqrt 5 - 2 reach exactly 0 at z = (1, -2, 0, 1).
    axis = np.arange(-8, 9)
    box = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 4)
    box = box[np.any(box != 0, axis=1)]
    assert np.min(np.abs(box @ jointspec.COMBINATION_WEIGHTS)) > 1e-4


@pytest.mark.parametrize("psd", [False, True], ids=["normal", "psd"])
def test_tensor_pair_spectrum_makes_one_eigendecomposition(monkeypatch, psd):
    # shaped like a joint-pairs benchmark case of size 6: lam repeats two
    # palette values, mu draws from a palette, both in one random eigenbasis
    rng = np.random.default_rng(43 + psd)
    n = 6
    if psd:
        heads, mu = rng.integers(0, 5, 2), rng.integers(0, 4, n)
    else:
        heads = rng.integers(-3, 5, 2) + 1j * rng.integers(-3, 5, 2)
        mu = rng.integers(-2, 4, n) + 1j * rng.integers(-2, 4, n)
    lam = heads[np.arange(n) % 2]
    u = _unitary(rng, n)
    t, s = _normal(lam, u), _normal(mu, u)
    # count at the LAPACK entry points, whichever wrapper calls them
    vector_sizes, value_sizes = [], []

    def counting(record, solver):
        def call(a, *args, **kwargs):
            record.append(np.shape(a)[0])
            return solver(a, *args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigh", counting(vector_sizes, np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eig", counting(vector_sizes, np.linalg.eig))
    for name in ("eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counting(value_sizes, getattr(np.linalg, name)))
    _refuse_kronecker(monkeypatch)
    points = tensor_pair_spectrum(t, s)
    assert vector_sizes == [n * n] and value_sizes == []
    monkeypatch.undo()
    cartesian = [(complex(a), complex(b)) for a in lam for b in mu]
    assert pairing_gap(points.pairs, cartesian) <= 1e-7


@pytest.mark.parametrize("psd", [False, True], ids=["normal", "psd"])
def test_tensor_pair_with_repeated_eigenvalues(psd):
    # Repeated factor eigenvalues give joint eigenspaces of dimension above
    # one, and complex ones sharing a real part give joint points that Re T
    # alone cannot tell apart; the head combination separates them all, and
    # the returned basis must still carry the reported Rayleigh quotients.
    rng = np.random.default_rng(17 + psd)
    palette = [0.0, 0.5, 2.0] if psd else [1.0 + 1.0j, 1.0 - 1.0j, -0.5j, 2.0]
    for n, m in ((5, 8), (6, 6), (7, 5), (8, 7)):
        lam = rng.choice(palette, n)
        mu = rng.choice(palette, m)
        t = _normal(lam, _unitary(rng, n))
        s = _normal(mu, _unitary(rng, m))
        points = tensor_pair_spectrum(t, s)
        cartesian = [(complex(a), complex(b)) for a in lam for b in mu]
        assert pairing_gap(points.pairs, cartesian) <= 1e-7
        assert _quotient_gaps(points, np.kron(t, np.eye(m)), np.kron(np.eye(n), s)) <= 1e-10


def _loop_pairing_gap(left, right, decimals=8):
    """``pairing_gap`` as a per-pair loop: Python ``round`` keys, ``sorted``."""
    if len(left) != len(right):
        return float("inf")

    def key(pair):
        lam, mu = pair
        return tuple(round(x, decimals) for x in (lam.real, lam.imag, mu.real, mu.imag))

    gap = 0.0
    for (a, b), (c, d) in zip(sorted(left, key=key), sorted(right, key=key)):
        gap = max(gap, abs(a - c), abs(b - d))
    return gap


def test_pairing_gap_matches_the_loop():
    rng = np.random.default_rng(23)
    for case in range(60):
        k = int(rng.integers(0, 40))
        if case % 3 == 0:  # continuous coordinates: no two keys tie
            z, other = rng.standard_normal((2, k, 4))
        else:  # a small palette: many exact repeats, which sort stably
            z, other = rng.integers(-2, 3, (2, k, 4)) / 4.0
        left = [(complex(a, b), complex(c, d)) for a, b, c, d in z]
        noise = rng.standard_normal((k, 4)) * 1e-12
        right = [(complex(a, b), complex(c, d)) for a, b, c, d in z + noise]
        right = [right[i] for i in rng.permutation(k)]
        assert pairing_gap(left, right) == _loop_pairing_gap(left, right)
        # unrelated multisets: the gap depends on the order of every key
        other = [(complex(a, b), complex(c, d)) for a, b, c, d in other]
        assert pairing_gap(left, other) == _loop_pairing_gap(left, other)
        assert pairing_gap(left, right[:-1] if k else [(0j, 0j)]) == float("inf")


def test_cartesian_gap_matches_the_loop():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n, m = (int(k) for k in rng.integers(1, 6, 2))
        t = _normal(rng.standard_normal(n) + 1j * rng.standard_normal(n), _unitary(rng, n))
        s = _normal(rng.standard_normal(m) + 1j * rng.standard_normal(m), _unitary(rng, m))
        points = tensor_pair_spectrum(t, s)
        eig_t, eig_s = np.linalg.eigvals(t), np.linalg.eigvals(s)
        cartesian = [(complex(a), complex(b)) for a in eig_t for b in eig_s]
        assert jointspec.cartesian_gap(points, t, s) == _loop_pairing_gap(points.pairs, cartesian)
        assert jointspec.cartesian_gap(points, t, s[:-1, :-1]) == float("inf")


def test_spectral_mapping():
    points = joint_spectrum(check_pair(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
    assert spectral_mapping(points, lambda lam, mu: lam) == (1 + 0j, 2 + 0j)
    assert spectral_mapping(points, lambda lam, mu: lam + mu) == (4 + 0j, 6 + 0j)
    assert spectral_mapping(points, lambda lam, mu: 0) == (0j, 0j)


def test_sum_operator_examples():
    report = sum_operator_check(np.diag([1.0, 2.0]), [[3.0]])
    assert report.passed and report.eigenvalues == (4.0, 5.0)

    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    report = sum_operator_check(np.zeros((2, 2)), s)
    assert report.passed
    assert np.allclose(report.eigenvalues, [1.0, 1.0, 3.0, 3.0])


def test_sum_operator_keeps_exact_large_eigenvalues():
    # one unit N * eps * ||A||_F of the values-only gate exceeds the default
    # eigen_residual at 5e6; the measured residual of the vectors path is 0
    report = sum_operator_check(np.diag([5e6]), [[1.0]])
    assert report.passed and report.eigenvalues == (5000001.0,)


def test_sum_operator_symbolic_route_counts_repeated_eigenvalues():
    # exact repeats merge into points of multiplicity > 1, and 1 + 1 = 2 + 0
    report = sum_operator_check(np.diag([1.0, 1.0, 2.0, 2.0]), np.diag([0.0, 1.0, 1.0, 2.0]))
    assert len(report.eigenvalues) == len(report.expected) == 16
    assert report.passed and report.symbolic_max_gap <= 1e-7


def _fraction_symbolic_gap(report, t, s):
    """The symbolic side as built before lattice keys: ``Point(Fraction(v))``
    atoms, listed from the ``atoms`` view of their Minkowski sum.  The factor
    eigenvalues are those the check computes (the same call on the same input)."""
    lhs, rhs = (
        SpectralSet.of(*(Point(Fraction(max(float(v), 0.0)), 1) for v in values))
        for values in (hermitian_eig(m, vectors=False).eigenvalues for m in (t, s))
    )
    total = minkowski_sum(lhs, rhs)
    listed = sorted(float(atom.value) for atom in total.atoms for _ in range(atom.mult))
    return max(abs(x - y) for x, y in zip(report.eigenvalues, listed))


def test_sum_operator_symbolic_gap_matches_the_fraction_route():
    rng = np.random.default_rng(19)
    for case in range(12):
        n, m = (int(k) for k in rng.integers(1, 7, 2))
        if case % 2:  # exact repeats merge into points of mult > 1
            t, s = np.diag(rng.integers(0, 3, n) * 1.0), np.diag(rng.integers(0, 3, m) * 1.0)
        else:
            bt = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            bs = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            t, s = bt @ bt.conj().T, bs @ bs.conj().T
        report = sum_operator_check(t, s)
        assert report.symbolic_max_gap == _fraction_symbolic_gap(report, t, s)


def test_sum_operator_rejects_indefinite():
    with pytest.raises(NotPSDError):
        sum_operator_check(np.diag([-1.0, 1.0]), np.eye(2))


def test_sum_operator_symbolic_route_on_fuzzed_psd():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        bt = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        bs = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        report = sum_operator_check(bt @ bt.conj().T, bs @ bs.conj().T)
        assert report.passed, (report.max_gap, report.symbolic_max_gap)


# Joint points from a small Gaussian-integer palette: many repeated points,
# and many distinct ones that agree in some coordinates.  The combination
# weights are independent over the rationals, so no two distinct points share
# a combination value and the recursion never runs.
_GAUSSIAN = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(_GAUSSIAN, _GAUSSIAN), min_size=1, max_size=7), st.integers(0, 2**32 - 1))
def test_joint_spectrum_reproduces_gaussian_integer_diagonals(points, seed):
    lam, mu = zip(*points)
    u = _unitary(np.random.default_rng(seed), len(points))
    t, s = _normal(lam, u), _normal(mu, u)
    with mock.patch.object(jointspec, "_simdiag", wraps=jointspec._simdiag) as simdiag:
        got = joint_spectrum(check_pair(t, s))
    assert pairing_gap(got.pairs, points) <= 1e-7
    assert simdiag.call_count == 0


@pytest.mark.parametrize("check", [check_pair, tensor_pair_spectrum])
def test_overflowing_normality_residual_is_non_finite(check):
    # t t* - t* t is Inf - Inf, a NaN that no tolerance test may pass
    t = np.full((2, 2), 1e300)
    s = np.array([[1e300, -1e300], [-1e300, 1e300]])
    with pytest.raises(NonFiniteError, match="normality residual of the first matrix"):
        check(t, s)


def test_overflowing_commutator_is_non_finite():
    # both normal with finite residuals, but t s - s t = diag(-2xy, 2xy) overflows
    t = np.array([[0.0, 1.2e154], [1.2e154, 0.0]])
    s = np.array([[0.0, 1.2e154], [-1.2e154, 0.0]])
    with pytest.raises(NonFiniteError, match="commutator"):
        check_pair(t, s)


def test_joint_suite_fails_a_nan_cartesian_gap(monkeypatch):
    assert fuzzing.run_joint_suite(0, 3).passed
    monkeypatch.setattr(jointspec, "cartesian_gap", lambda points, t, s: math.nan)
    result = fuzzing.run_joint_suite(0, 3)
    assert not result.passed and all("Cartesian pairing gap" in f for f in result.failures)
