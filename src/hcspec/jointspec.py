"""Joint spectra of commuting normal matrix pairs.

A normal matrix splits into commuting Hermitian real and imaginary parts, so
a strongly commuting normal pair ``(T, S)`` yields four pairwise commuting
Hermitian matrices ``Re T, Im T, Re S, Im S``.  Their joint eigenspaces are
the eigenspaces of one generic real combination of the four, and the weights
``1, sqrt 2, sqrt 3, sqrt 5`` (normalized) are linearly independent over the
rationals, so distinct joint points with rational coordinates never share a
combination value.  One Hermitian eigendecomposition of that combination
therefore yields the joint eigenbasis; one product ``T V`` and one ``S V``
give the Rayleigh quotients and the residuals.  A cluster of combination
eigenvalues that holds a column above the residual gate, where two joint
points (nearly) collide in the combination, is split by the recursive
``_simdiag``: eigendecompose one part restricted to the cluster, cluster its
eigenvalues, and recurse on the remaining parts.

The tensored pair ``(T (x) I, I (x) S)`` runs the same core without forming
either Kronecker factor: its head combination is the Kronecker sum of the
factors' combination parts, and every product with the pair, the head's
residual included, is one product with the ``n x n`` or ``m x m`` factor on
the basis reshaped to ``(n, m, k)`` (``(A (x) B) vec X = vec(B X A^T)``).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ToolkitError
from .limits import DEFAULT_TOL, KRONECKER_DIM_CAP, Tolerance
from .numerics import (
    MATCH_GAP,
    EigenDecomposition,
    NonFiniteError,
    _gated_eigh,
    as_complex_matrix,
    hermitian_eig,
    kronecker_sum,
    max_abs,
    nan_max,
)
from .spectra import minkowski_sum, normalize_ratios

# Relative gap below which eigenvalues are treated as one eigenspace.
CLUSTER_GAP_FACTOR = 1e-6

# Weights of Re T, Im T, Re S, Im S in the head combination: linearly
# independent over the rationals, so rational joint points stay apart.
COMBINATION_WEIGHTS = np.sqrt([1.0, 2.0, 3.0, 5.0]) / np.sqrt(11.0)

# ``V -> M V`` for a fixed operator M and a block V of basis columns.
Apply = Callable[[np.ndarray], np.ndarray]


class NotNormalError(ToolkitError):
    """A matrix fails the normality check."""


class NotCommutingError(ToolkitError):
    """The pair fails the commutation check."""


class NotPSDError(ToolkitError):
    """A matrix required to be positive semidefinite is not."""


class EigenspaceSplitFailureError(ToolkitError):
    """Clustered eigenvalues could not be split within tolerance."""


class PairShapeError(ToolkitError, ValueError):
    """The two matrices of a pair are not square or differ in size."""


class CommutingPair(NamedTuple):
    """A validated pair of commuting normal matrices."""

    t: np.ndarray
    s: np.ndarray
    commutator_norm: float


def _commutator_norm(x: np.ndarray, y: np.ndarray, what: str) -> float:
    """Max-norm of ``x y - y x``, formed without overflow warnings; raises
    ``NonFiniteError`` naming ``what`` when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = max_abs(x @ y - y @ x)
    if not np.isfinite(norm):
        raise NonFiniteError(f"the {what} overflows")
    return norm


def _check_normal(t: np.ndarray, s: np.ndarray, tol: Tolerance) -> None:
    """Both matrices square and normal within tolerance."""
    if t.shape[0] != t.shape[1] or s.shape[0] != s.shape[1]:
        raise PairShapeError(f"both matrices must be square: {t.shape} and {s.shape}")
    for name, m in (("first", t), ("second", s)):
        residual = _commutator_norm(m, m.conj().T, f"normality residual of the {name} matrix")
        if not residual <= tol.identity_check:
            raise NotNormalError(f"{name} matrix is not normal within tolerance")


def check_pair(t, s, tol: Tolerance = DEFAULT_TOL) -> CommutingPair:
    """Validate normality of both matrices and their commutation; a residual
    that overflows is a ``NonFiniteError``."""
    t = as_complex_matrix(t)
    s = as_complex_matrix(s)
    _check_normal(t, s, tol)
    if t.shape != s.shape:
        raise PairShapeError(f"size mismatch: {t.shape} vs {s.shape}")
    commutator = _commutator_norm(t, s, "commutator")
    if not commutator <= tol.identity_check:
        raise NotCommutingError(
            f"commutator max-norm {commutator:.3e} exceeds {tol.identity_check:.3e}"
        )
    return CommutingPair(t, s, commutator)


def _clusters(values: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive index ranges of eigenvalues within the cluster gap."""
    if values.size == 0:
        return []
    diameter = float(values[-1] - values[0])
    threshold = CLUSTER_GAP_FACTOR * (diameter + 1.0)
    ranges: list[tuple[int, int]] = []
    start = 0
    for idx in range(1, values.size):
        if values[idx] - values[idx - 1] > threshold:
            ranges.append((start, idx))
            start = idx
    ranges.append((start, values.size))
    return ranges


def _hermitian_parts(t: np.ndarray, s: np.ndarray) -> list[np.ndarray]:
    """``Re T, Im T, Re S, Im S`` of a commuting normal pair."""
    return [
        (t + t.conj().T) / 2.0,
        (t - t.conj().T) / 2.0j,
        (s + s.conj().T) / 2.0,
        (s - s.conj().T) / 2.0j,
    ]


def _head_parts(t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian parts of ``(c_0 - i c_1) T`` and ``(c_2 - i c_3) S``, whose
    sum is the head combination ``sum c_i H_i`` of the four parts."""
    c = COMBINATION_WEIGHTS
    mixed_t, mixed_s = (c[0] - 1j * c[1]) * t, (c[2] - 1j * c[3]) * s
    return (mixed_t + mixed_t.conj().T) / 2.0, (mixed_s + mixed_s.conj().T) / 2.0


def _simdiag(mats: Sequence[np.ndarray], tol: Tolerance) -> np.ndarray:
    """Unitary basis simultaneously diagonalizing commuting Hermitian matrices:
    eigendecompose the first, then recurse on the rest restricted to each
    cluster of its eigenvalues."""
    n = mats[0].shape[0] if mats else 0
    if not mats or n == 0:
        return np.eye(n, dtype=np.complex128)
    head, rest = mats[0], mats[1:]
    dec = hermitian_eig(head, tol)
    if not rest:
        return dec.vectors
    basis = np.array(dec.vectors, copy=True)
    for start, stop in _clusters(dec.eigenvalues):
        if stop - start == 1:
            continue
        block = basis[:, start:stop]
        restricted = (block.conj().T @ m @ block for m in rest)
        inner = _simdiag([(r + r.conj().T) / 2.0 for r in restricted], tol)
        basis[:, start:stop] = block @ inner
    return basis


def _quotients(
    basis: np.ndarray, t_basis: np.ndarray, s_basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rayleigh quotients of T and S on each basis column, and the larger of
    the two residuals ``|T v - lam v|``, ``|S v - mu v|`` per column."""
    lams = np.sum(basis.conj() * t_basis, axis=0)
    mus = np.sum(basis.conj() * s_basis, axis=0)
    residual = np.maximum(
        np.linalg.norm(t_basis - basis * lams, axis=0),
        np.linalg.norm(s_basis - basis * mus, axis=0),
    )
    return lams, mus, residual


class JointSpectrumPoints(NamedTuple):
    """Joint eigenvalue pairs (one per basis column) and the joint eigenbasis.

    Pairs are sorted lexicographically by (Re, Im) of the first then second
    component; the column count equals the matrix dimension, so multiplicity
    is carried by repetition.
    """

    pairs: tuple[tuple[complex, complex], ...]
    basis: np.ndarray


def joint_spectrum(pair: CommutingPair, tol: Tolerance = DEFAULT_TOL) -> JointSpectrumPoints:
    """Simultaneous diagonalization of a commuting normal pair.

    The basis ``V`` comes from one Hermitian eigendecomposition of the
    combination ``sum c_i H_i`` of the four Hermitian parts with weights
    ``COMBINATION_WEIGHTS``, which is the Hermitian part of
    ``(c_0 - i c_1) T + (c_2 - i c_3) S``.  The joint eigenvalues of column
    ``v`` are the Rayleigh quotients ``v* T v`` and ``v* S v``; they and the
    residuals ``|T v - lam v|`` and ``|S v - mu v|`` are read from one
    product ``T V`` and one ``S V``.  Only clusters of combination
    eigenvalues that hold a column with residual above
    ``10 * tol.eigen_residual`` are split again by ``_simdiag`` on the
    restricted parts; their columns are then recomputed.

    Raises ``EigenspaceSplitFailureError`` when some joint eigenvector fails
    the residual bound, which happens for eigenvalues clustered beyond what
    the gap threshold can separate.
    """
    t, s = pair.t, pair.s
    head_t, head_s = _head_parts(t, s)
    head = hermitian_eig(head_t + head_s, tol)
    return _joint_points(head, lambda v: t @ v, lambda v: s @ v, tol)


def _joint_points(
    head: EigenDecomposition, apply_t: Apply, apply_s: Apply, tol: Tolerance
) -> JointSpectrumPoints:
    """The joint points of a commuting normal pair from the eigendecomposition
    of its head combination, with ``apply_t(V) = T V`` and ``apply_s(V) = S V``
    (see :func:`joint_spectrum`)."""
    basis = np.array(head.vectors, copy=True)
    t_basis = apply_t(basis)
    s_basis = apply_s(basis)
    lams, mus, residual = _quotients(basis, t_basis, s_basis)
    bound = 10.0 * tol.eigen_residual
    redone = False
    for start, stop in _clusters(head.eigenvalues):
        if stop - start == 1 or residual[start:stop].max() <= bound:
            continue
        block = basis[:, start:stop]
        parts = _hermitian_parts(
            block.conj().T @ t_basis[:, start:stop], block.conj().T @ s_basis[:, start:stop]
        )
        basis[:, start:stop] = block @ _simdiag(parts, tol)
        t_basis[:, start:stop] = apply_t(basis[:, start:stop])
        s_basis[:, start:stop] = apply_s(basis[:, start:stop])
        redone = True
    if redone:
        lams, mus, residual = _quotients(basis, t_basis, s_basis)
    worst = float(residual.max(initial=0.0))
    if worst > bound:
        raise EigenspaceSplitFailureError(
            f"joint eigenvector residual {worst:.3e} exceeds "
            f"{bound:.3e}; eigenvalues too clustered"
        )
    order = np.lexsort((mus.imag, mus.real, lams.imag, lams.real))
    pairs = tuple(zip(lams[order].tolist(), mus[order].tolist()))
    sorted_basis = basis[:, order]
    sorted_basis.setflags(write=False)
    return JointSpectrumPoints(pairs, sorted_basis)


def _tensor_products(a: np.ndarray, b: np.ndarray) -> tuple[Apply, Apply]:
    """``V -> (A (x) I_m) V`` and ``V -> (I_n (x) B) V`` for ``n x n`` A and
    ``m x m`` B: one product with A on V reshaped to ``(n, m k)``, and B on
    each ``(m, k)`` slice of V reshaped to ``(n, m, k)``."""
    n, m = a.shape[0], b.shape[0]
    return (
        lambda v: (a @ v.reshape(n, m * v.shape[1])).reshape(n * m, v.shape[1]),
        lambda v: np.matmul(b, v.reshape(n, m, v.shape[1])).reshape(n * m, v.shape[1]),
    )


def tensor_pair_spectrum(
    t, s, tol: Tolerance = DEFAULT_TOL, dim_cap: int = KRONECKER_DIM_CAP
) -> JointSpectrumPoints:
    """Joint spectrum of ``(T (x) I, I (x) S)`` for normal T and S.

    Equals the Cartesian product of the individual spectra as a multiset.
    ``T (x) I`` is normal exactly when T is, so T and S are checked in place
    of the Kronecker pair, which commutes exactly: every entry of both
    products is the one product ``t_ae * s_bf``.

    The pair is never formed.  The head combination of the pair is the
    Kronecker sum ``A (x) I + I (x) B`` of the factors' parts (see
    :func:`joint_spectrum`), built by ``kronecker_sum`` (which holds the
    ``dim_cap`` guard) and decomposed by one ``N x N`` ``eigh``, ``N = n m``;
    its residual gate at ``tol.eigen_residual`` and every product of the
    joint core with ``T (x) I`` or ``I (x) S`` are factor products on the
    reshaped basis.
    """
    t = as_complex_matrix(t)
    s = as_complex_matrix(s)
    _check_normal(t, s, tol)
    head_t, head_s = _head_parts(t, s)
    left, right = _tensor_products(head_t, head_s)
    head = _gated_eigh(kronecker_sum(head_t, head_s, dim_cap), lambda v: left(v) + right(v), tol)
    return _joint_points(head, *_tensor_products(t, s), tol)


def spectral_mapping(
    points: JointSpectrumPoints, f: Callable[[complex, complex], complex]
) -> tuple[complex, ...]:
    """Image multiset ``{f(lam, mu)}`` with multiplicities carried."""
    values = [complex(f(lam, mu)) for lam, mu in points.pairs]
    return tuple(sorted(values, key=lambda z: (z.real, z.imag)))


def pairing_gap(left, right) -> float:
    """Largest componentwise distance between two pair multisets.

    Both sides (sequences or ``(k, 2)`` arrays of complex pairs) are sorted
    lexicographically by the (Re, Im) of the first then second component,
    rounded to 8 decimals, stably, so the gap is meaningful for multisets
    that agree up to small perturbations.  Returns infinity on a length mismatch.
    """
    if len(left) != len(right):
        return float("inf")

    def ordered(pairs) -> np.ndarray:
        z = np.asarray(pairs, dtype=np.complex128).reshape(-1, 2)
        keys = np.round([z[:, 1].imag, z[:, 1].real, z[:, 0].imag, z[:, 0].real], 8)
        return z[np.lexsort(keys)]

    diff = ordered(left) - ordered(right)
    # np.hypot rounds as Python's abs(complex) does; np.abs may differ by an ulp
    return float(np.max(np.hypot(diff.real, diff.imag), initial=0.0))


def cartesian_gap(points: JointSpectrumPoints, t, s) -> float:
    """:func:`pairing_gap` of ``points`` against the Cartesian product of the
    eigenvalues of T and of S.

    The reference side for :func:`tensor_pair_spectrum`: each factor's
    eigenvalues come from ``np.linalg.eigvals`` of that factor alone, never
    from the tensored pair or its basis.
    """
    eig_t, eig_s = np.linalg.eigvals(t), np.linalg.eigvals(s)
    cartesian = np.stack(np.broadcast_arrays(eig_t[:, None], eig_s[None, :]), axis=-1)
    return pairing_gap(points.pairs, cartesian.reshape(-1, 2))


class SumOperatorReport(NamedTuple):
    """Eigenvalues of ``T (x) I + I (x) S`` against pairwise eigenvalue sums."""

    eigenvalues: tuple[float, ...]
    expected: tuple[float, ...]
    max_gap: float
    symbolic_max_gap: float
    passed: bool


def sum_operator_check(
    t,
    s,
    tol: Tolerance = DEFAULT_TOL,
    dim_cap: int = KRONECKER_DIM_CAP,
) -> SumOperatorReport:
    """Verify the sum-operator spectrum two ways for Hermitian PSD inputs.

    Numerically: the assembled operator's eigenvalues must match all pairwise
    sums of factor eigenvalues after sorting.  Symbolically: spectral sets
    built from the factor eigenvalue multisets must reproduce the same values
    through the exact Minkowski sum.  Both gaps must be at most
    ``MATCH_GAP``.
    """
    t = as_complex_matrix(t)
    s = as_complex_matrix(s)
    eig_t = hermitian_eig(t, tol, vectors=False).eigenvalues
    eig_s = hermitian_eig(s, tol, vectors=False).eigenvalues
    for name, values in (("first", eig_t), ("second", eig_s)):
        if values.size and float(values[0]) < -1e-9:
            raise NotPSDError(f"{name} matrix has eigenvalue {values[0]:.3e} < -1e-9")
    eigenvalues = hermitian_eig(kronecker_sum(t, s, dim_cap), tol, vectors=False).eigenvalues
    expected = sorted(float(a + b) for a in eig_t for b in eig_s)
    if len(expected) != eigenvalues.size:
        raise AssertionError("dimension bookkeeping is broken")
    max_gap = nan_max(np.abs(eigenvalues - np.array(expected)))

    # each eigenvalue as the exact ratio of its float, a point of mult 1
    lhs, rhs = (
        normalize_ratios((*max(float(v), 0.0).as_integer_ratio(), 0, 1, 1) for v in values)
        for values in (eig_t, eig_s)
    )
    # a sum of point sets normalizes to points only: keys (k, 0, 0, mult) of k / L
    total = minkowski_sum(lhs, rhs)
    listed = sorted(value / total.scale for value, _, _, mult in total.keys for _ in range(mult))
    if len(listed) != eigenvalues.size:
        symbolic_gap = float("inf")
    else:
        symbolic_gap = nan_max(np.abs(eigenvalues - np.array(listed)))
    passed = max_gap <= MATCH_GAP and symbolic_gap <= MATCH_GAP
    return SumOperatorReport(
        tuple(float(v) for v in eigenvalues),
        tuple(expected),
        max_gap,
        symbolic_gap,
        passed,
    )
