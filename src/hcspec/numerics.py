"""Dense complex-matrix kernels.

Everything else in the package reduces to the operations here: Hermitian
eigendecomposition, Moore-Penrose pseudo-inverse, Kronecker products, range
projections and numeric rank.  Pseudo-inverses and range projections are read
off an eigendecomposition of the Hermitian dilation; the numeric rank needs
no vectors and counts singular values alone, at the same cutoff (dimension
``rows + cols``).  All functions are pure; matrices are plain
``numpy.ndarray`` values with dtype complex128 and are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError

# Kronecker outputs larger than this (rows or columns) are refused.
KRONECKER_DIM_CAP = 4096

_EPS = float(np.finfo(np.float64).eps)


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
    columns, measured against the Hermitian part of the input.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual: float


def _eigh_unchecked(herm: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """eigh plus residual, without the public residual gate."""
    if herm.shape[0] == 0:
        return np.zeros(0), zero_matrix(0, 0), 0.0
    try:
        values, vectors = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    residual = float(np.max(np.linalg.norm(herm @ vectors - vectors * values, axis=0)))
    return values, vectors, residual


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises ``NotHermitianError`` when the input is not square or deviates
    from its adjoint by more than ``tol.identity_check`` in max-norm, and
    ``NoConvergenceError`` when the residual target cannot be met.
    """
    a = as_complex_matrix(a)
    n, m = a.shape
    if n != m:
        raise NotHermitianError(f"matrix is {n}x{m}, not square")
    if max_abs(a - a.conj().T) > tol.identity_check:
        raise NotHermitianError("matrix deviates from its adjoint beyond tolerance")
    herm = (a + a.conj().T) / 2.0
    values, vectors, residual = _eigh_unchecked(herm)
    if residual > tol.eigen_residual:
        raise NoConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds {tol.eigen_residual:.3e}"
        )
    values = values.copy()
    values.setflags(write=False)
    vectors = np.array(vectors, copy=True)
    vectors.setflags(write=False)
    return EigenDecomposition(values, vectors, residual)


def _dilation_spectral(a: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigendecomposition of the Hermitian dilation ``[[0, a], [a*, 0]]``.

    The dilation's eigenvalues are the signed singular values of ``a``; going
    through it instead of a Gram matrix keeps their noise floor at machine
    precision (squaring would raise it to its square root), so the standard
    rank cutoff remains meaningful.  The cutoff dimension is ``rows + cols``,
    the size of the matrix actually decomposed.  Returns eigenvalues,
    eigenvectors, and the cutoff.
    """
    rows, cols = a.shape
    dilation = np.zeros((rows + cols, rows + cols), dtype=np.complex128)
    dilation[:rows, rows:] = a
    dilation[rows:, :rows] = a.conj().T
    values, vectors, _ = _eigh_unchecked(dilation)
    sigma_max = float(np.max(np.abs(values))) if values.size else 0.0
    cutoff = tol.rank_cutoff(rows + cols, sigma_max)
    return values, vectors, cutoff


def pseudo_inverse(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse through the Hermitian eigendecomposition kernel.

    Applies the odd function ``t -> 1/t if |t| > cutoff else 0`` to the
    Hermitian dilation of ``a`` and reads the inverse off the lower-left
    block.  Singular values at or below the rank cutoff are treated as zero,
    so the zero matrix maps to the (transposed) zero matrix.
    """
    a = as_complex_matrix(a)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return zero_matrix(cols, rows)
    values, vectors, cutoff = _dilation_spectral(a, tol)
    inverted = np.zeros_like(values)
    keep = np.abs(values) > cutoff
    inverted[keep] = 1.0 / values[keep]
    transform = (vectors * inverted) @ vectors.conj().T
    result = np.array(transform[rows:, :rows])
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
    """Orthogonal projection onto the column space of ``a`` at the rank cutoff.

    The even function ``t -> 1 if |t| > cutoff else 0`` of the Hermitian
    dilation is block diagonal; its upper-left block is the projection onto
    the range.
    """
    a = as_complex_matrix(a)
    rows, cols = a.shape
    if rows == 0:
        return zero_matrix(0, 0)
    if cols == 0:
        return zero_matrix(rows, rows)
    values, vectors, cutoff = _dilation_spectral(a, tol)
    keep = np.abs(values) > cutoff
    basis = vectors[:rows, keep]
    proj = basis @ basis.conj().T
    proj = np.array((proj + proj.conj().T) / 2.0)
    proj.setflags(write=False)
    return proj


def numeric_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the rank cutoff.

    The singular values come from an SVD without vectors; the cutoff is the
    one :func:`range_projection` and :func:`pseudo_inverse` apply, with
    dimension ``rows + cols``.
    """
    a = as_complex_matrix(a)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 0
    try:
        sigma = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    cutoff = tol.rank_cutoff(rows + cols, float(sigma[0]))
    return int(np.count_nonzero(sigma > cutoff))
