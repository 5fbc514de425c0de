"""Dense complex-matrix kernels.

Everything else in the package reduces to the operations here: Hermitian
eigendecomposition, Moore-Penrose pseudo-inverse, Kronecker products, range
projections and numeric rank.  The last three of those are read off one
singular value decomposition, which also fixes the rank cutoff (dimension
``rows + cols``) for all of them.  All functions are pure; matrices are plain
``numpy.ndarray`` values with dtype complex128 and are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError

# Kronecker outputs larger than this (rows or columns) are refused.
KRONECKER_DIM_CAP = 4096

_EPS = float(np.finfo(np.float64).eps)

# Bound of the values-only eigen gate, in units of N * eps * ||A||_F (trace)
# and N * eps * ||A||_F^2 (sum of squares).  Measured with eigvalsh: at most
# 0.21 units on 300 random PSD Kronecker sums of size 64 to 256, and 5.2 on
# 40,000 random 2 x 2 matrices, where the O(eps) rounding of the sums weighs
# most against the small N.
MOMENT_GATE = 16.0


class NotHermitianError(ToolkitError):
    """Input matrix is not square or not Hermitian within tolerance."""


class NoConvergenceError(ToolkitError):
    """The eigensolver failed to reach the requested residual."""


class SizeOverflowError(ToolkitError):
    """A product dimension exceeds the configured cap."""


class NonFiniteError(ToolkitError, ValueError):
    """A matrix holds NaN or Inf, given as input or reached by overflow."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerances used across the toolkit.

    ``rank_threshold`` is an explicit override for the singular-value cutoff;
    when ``None`` the cutoff is ``dimension * eps * sigma_max``, the standard
    backward-stable convention.
    """

    eigen_residual: float = 1e-9
    identity_check: float = 1e-8
    rank_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.eigen_residual <= 0:
            raise ValueError("eigen_residual must be strictly positive")
        if self.identity_check <= 0:
            raise ValueError("identity_check must be strictly positive")
        if self.rank_threshold is not None and self.rank_threshold <= 0:
            raise ValueError("rank_threshold must be strictly positive")

    def rank_cutoff(self, dimension: int, sigma_max: float) -> float:
        if self.rank_threshold is not None:
            return self.rank_threshold
        return max(dimension, 1) * _EPS * sigma_max


DEFAULT_TOL = Tolerance()


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a read-only 2-D complex128 array, rejecting NaN/Inf."""
    a = np.array(entries, dtype=np.complex128, copy=True)
    if a.ndim == 1:
        a = a.reshape(-1, 1) if a.size else a.reshape(0, 0)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if a.size and not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise NonFiniteError("matrix entries must be finite")
    a.setflags(write=False)
    return a


def zero_matrix(rows: int, cols: int) -> np.ndarray:
    a = np.zeros((rows, cols), dtype=np.complex128)
    a.setflags(write=False)
    return a


def max_abs(a: np.ndarray) -> float:
    """Max-norm of a matrix; zero for empty matrices."""
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and an orthonormal eigenbasis of a Hermitian matrix.

    ``residual`` is the largest ``||A v - lambda v||_2`` over eigenvector
    columns, measured against the Hermitian part of the input.  A values-only
    decomposition has ``vectors`` None and ``residual`` the larger of its two
    moment deviations, in units of ``N * eps`` (see ``hermitian_eig``).
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray | None
    residual: float


def _moment_deviation(herm: np.ndarray, values: np.ndarray) -> float:
    """The larger of ``|sum lam - tr A|`` over ``N eps ||A||_F`` and
    ``|sum lam^2 - ||A||_F^2|`` over ``N eps ||A||_F^2``, taken on ``A`` and
    ``lam`` scaled to max-norm 1 so that no moment overflows."""
    scale = max_abs(herm) or 1.0
    h, lam = herm / scale, values / scale
    frob = float(np.linalg.norm(h))
    unit = max(h.shape[0], 1) * _EPS * frob
    if unit == 0.0:
        return 0.0
    first = abs(float(np.sum(lam)) - float(np.trace(h).real)) / unit
    second = abs(float(np.sum(lam**2)) - frob**2) / (unit * frob)
    return max(first, second)


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL, vectors: bool = True) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises ``NotHermitianError`` when the input is not square or deviates
    from its adjoint by more than ``tol.identity_check`` in max-norm, and
    ``NoConvergenceError`` when the residual target cannot be met.

    Without ``vectors`` only the eigenvalues are computed.  A backward-stable
    solver returns the exact eigenvalues of a nearby matrix, so a moment gate
    stands in for the residual: ``sum lam`` must match ``tr A`` within
    ``MOMENT_GATE * N * eps * ||A||_F`` and ``sum lam^2`` must match
    ``||A||_F^2`` within ``MOMENT_GATE * N * eps * ||A||_F^2``, or
    ``NoConvergenceError`` is raised.
    """
    a = as_complex_matrix(a)
    n, m = a.shape
    if n != m:
        raise NotHermitianError(f"matrix is {n}x{m}, not square")
    if max_abs(a - a.conj().T) > tol.identity_check:
        raise NotHermitianError("matrix deviates from its adjoint beyond tolerance")
    herm = (a + a.conj().T) / 2.0
    try:
        if vectors:
            values, basis = np.linalg.eigh(herm)
        else:
            values = np.linalg.eigvalsh(herm)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    if not vectors:
        deviation = _moment_deviation(herm, values)
        if not deviation <= MOMENT_GATE:  # NaN fails too
            raise NoConvergenceError(
                f"eigenvalue moments deviate by {deviation:.3e} units of N*eps, "
                f"above {MOMENT_GATE:g}"
            )
        values.setflags(write=False)
        return EigenDecomposition(values, None, deviation)
    residual = float(
        np.max(np.linalg.norm(herm @ basis - basis * values, axis=0), initial=0.0)
    )
    if residual > tol.eigen_residual:
        raise NoConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds {tol.eigen_residual:.3e}"
        )
    values.setflags(write=False)
    basis.setflags(write=False)
    return EigenDecomposition(values, basis, residual)


def _svd(a: np.ndarray, tol: Tolerance, vectors: bool = False):
    """Singular values of a nonempty ``a``, descending, and how many of them
    lie above the rank cutoff for dimension ``rows + cols``.

    Returns ``(sigma, rank, u, vh)``; with ``vectors`` the unitary factors
    are full (``u[:, rank:]`` spans the complement of the range), otherwise
    they are ``None``.  Raises ``NonFiniteError`` when a singular value
    overflows or a kept one has no finite reciprocal.
    """
    rows, cols = a.shape
    u = vh = None
    try:
        if vectors:
            u, sigma, vh = np.linalg.svd(a)
        else:
            sigma = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    if not np.all(np.isfinite(sigma)):
        raise NonFiniteError("a singular value overflows")
    cutoff = tol.rank_cutoff(rows + cols, float(sigma[0]))
    rank = int(np.count_nonzero(sigma > cutoff))
    if rank and not math.isfinite(1.0 / float(sigma[rank - 1])):
        raise NonFiniteError("a singular value above the rank cutoff has no finite reciprocal")
    return sigma, rank, u, vh


def pseudo_inverse(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse ``V diag(1/sigma) U*`` over the singular values
    above the rank cutoff, so the zero matrix maps to the (transposed) zero
    matrix."""
    a = as_complex_matrix(a)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return zero_matrix(cols, rows)
    sigma, rank, u, vh = _svd(a, tol, vectors=True)
    result = (vh[:rank].conj().T / sigma[:rank]) @ u[:, :rank].conj().T
    result.setflags(write=False)
    return result


def kronecker(a, b, dim_cap: int = KRONECKER_DIM_CAP) -> np.ndarray:
    """Kronecker product with a guard on the output dimensions."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > dim_cap or cols > dim_cap:
        raise SizeOverflowError(
            f"kronecker output {rows}x{cols} exceeds dimension cap {dim_cap}"
        )
    out = np.kron(a, b)
    out.setflags(write=False)
    return out


def range_projection(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the column space of ``a`` at the rank cutoff:
    ``U_r U_r*`` over the left singular vectors of the kept singular values."""
    a = as_complex_matrix(a)
    rows, cols = a.shape
    if rows == 0:
        return zero_matrix(0, 0)
    if cols == 0:
        return zero_matrix(rows, rows)
    _, rank, u, _ = _svd(a, tol, vectors=True)
    basis = u[:, :rank]
    proj = basis @ basis.conj().T
    proj = (proj + proj.conj().T) / 2.0
    proj.setflags(write=False)
    return proj


def numeric_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the rank cutoff, from an SVD without
    vectors."""
    a = as_complex_matrix(a)
    if a.size == 0:
        return 0
    return _svd(a, tol)[1]
