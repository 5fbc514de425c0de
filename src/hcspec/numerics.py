"""Dense complex-matrix kernels.

Everything else in the package reduces to the operations here: Hermitian
eigendecomposition, Kronecker sums, Moore-Penrose pseudo-inverse, range
projections and numeric rank.  The last three of those are read
off one singular value decomposition, which also fixes the rank cutoff
(dimension ``rows + cols``) for all of them.  All functions are pure; matrices are plain
``numpy.ndarray`` values with dtype complex128 and are never mutated.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ToolkitError
from .limits import _EPS, DEFAULT_TOL, KRONECKER_DIM_CAP, Tolerance

# Largest gap at which two eigenvalue multisets, paired in sorted order, count
# as one: every product, sum-operator and joint spectrum comparison passes on
# ``gap <= MATCH_GAP``, which a NaN fails.
MATCH_GAP = 1e-7

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


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a read-only 2-D complex128 array, rejecting NaN/Inf."""
    a = np.array(entries, dtype=np.complex128, copy=True)
    if a.ndim == 1:
        a = a.reshape(-1, 1) if a.size else a.reshape(0, 0)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite")
    a.setflags(write=False)
    return a


def zero_matrix(rows: int, cols: int) -> np.ndarray:
    a = np.zeros((rows, cols), dtype=np.complex128)
    a.setflags(write=False)
    return a


def max_abs(a: np.ndarray) -> float:
    """Max-norm of a matrix; zero for empty matrices."""
    return float(np.abs(a).max()) if a.size else 0.0


def nan_max(values) -> float:
    """The largest of a sequence or array of nonnegative gaps or residuals, 0
    for none and NaN when any is NaN, which fails every gate: Python's
    ``max`` keeps a NaN only when it comes first."""
    return float(np.max(np.asarray(values, dtype=np.float64), initial=0.0))


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues and an orthonormal eigenbasis of a Hermitian matrix.

    ``residual`` is the largest ``||A v - lambda v||_2`` over eigenvector
    columns, measured against the Hermitian part of the input.  A values-only
    decomposition has ``vectors`` None and ``residual`` the larger of its two
    moment deviations, in the units of the moment gate (see
    ``hermitian_eig``), unless the moments could not answer for
    ``tol.eigen_residual``; then the vectors path decided, and the
    eigenvalues and ``residual`` are its own.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray | None
    residual: float


# Sums of squares inside this range leave the moments of ``_moment_deviation``
# clear of overflow and of subnormal rounding; outside it they are taken on
# a copy scaled to max-norm 1.
_SQUARES_RANGE = (2.0**-900, 2.0**900)


def _moment_deviation(herm: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """The larger of ``|sum lam - tr A|`` over ``N eps ||A||_F`` and
    ``|sum lam^2 - ||A||_F^2|`` over ``N eps ||A||_F^2``, and the unit
    ``N eps ||A||_F`` itself.

    The squares are summed without a copy, as one ``vdot`` of ``herm`` with
    itself; only when that sum leaves ``_SQUARES_RANGE`` (overflow,
    underflow, Inf or NaN) are the moments taken again on ``A`` and ``lam``
    scaled to max-norm 1.  Overflow is expected there, and a NaN fails the
    caller's gate, so the caller runs this with over- and invalid-operation
    warnings off."""
    scale = 1.0
    squares = float(np.vdot(herm, herm).real)
    if not _SQUARES_RANGE[0] <= squares <= _SQUARES_RANGE[1]:
        scale = max_abs(herm) or 1.0
        herm, values = herm / scale, values / scale
        squares = float(np.vdot(herm, herm).real)
    frob = math.sqrt(squares)
    unit = max(herm.shape[0], 1) * _EPS * frob
    if unit == 0.0:
        return 0.0, 0.0
    first = abs(float(values.sum()) - float(herm.trace().real)) / unit
    second = abs(float(values @ values) - squares) / (unit * frob)
    return max(first, second), unit * scale


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL, vectors: bool = True) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises ``NotHermitianError`` when the input is not square or deviates
    from its adjoint by more than ``tol.identity_check`` in max-norm,
    ``NonFiniteError`` when its Hermitian part overflows, and
    ``NoConvergenceError`` when the residual target cannot be met.

    Without ``vectors`` only the eigenvalues are computed.  A backward-stable
    solver returns the exact eigenvalues of a nearby matrix, so a moment gate
    stands in for the residual: ``sum lam`` must match ``tr A`` within
    ``MOMENT_GATE * N * eps * ||A||_F`` and ``sum lam^2`` must match
    ``||A||_F^2`` within ``MOMENT_GATE * N * eps * ||A||_F^2``, or
    ``NoConvergenceError`` is raised.  The larger deviation, times that unit
    ``N * eps * ||A||_F`` and never below one unit (the size of the solver's
    own backward error), must also stay within ``tol.eigen_residual``.  It
    is a moment check, not a certificate: one eigenvalue off by ``d`` moves
    the trace by ``d``, so the check sees at least ``d``, but errors that
    cancel inside a cluster of equal eigenvalues move neither moment much.
    When only the ``tol.eigen_residual`` term misses (a large norm, or a
    tolerance below the unit), the measured residual of the vectors path
    decides, so exact eigenvalues of a large matrix are not refused.
    """
    a = as_complex_matrix(a)
    n, m = a.shape
    if n != m:
        raise NotHermitianError(f"matrix is {n}x{m}, not square")
    # one C-ordered adjoint, turned in place into the Hermitian part (a* + a
    # equals a + a* bit for bit, and halving the real and imaginary parts
    # equals the complex division by 2 on finite entries), so only that
    # buffer outlives the check
    herm = np.conjugate(a.T, order="C")
    # entries near the float limit overflow to Inf here: an Inf deviation
    # still exceeds the tolerance, and an overflowed Hermitian part fails a
    # gate below, where _eig_failure names the overflow; one errstate covers
    # the values path too
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = max_abs(a - herm)
        herm += a
        herm.view(np.float64)[...] *= 0.5
        if deviation > tol.identity_check:
            raise NotHermitianError("matrix deviates from its adjoint beyond tolerance")
        if not vectors:
            try:
                values = np.linalg.eigvalsh(herm)
            except np.linalg.LinAlgError as exc:
                raise _eig_failure(herm, str(exc)) from exc
            deviation, unit = _moment_deviation(herm, values)
            if not deviation <= MOMENT_GATE:  # NaN fails too
                raise _eig_failure(
                    herm,
                    f"eigenvalue moments deviate by {deviation:.3e} units of N*eps, "
                    f"above {MOMENT_GATE:g}",
                )
            if max(deviation, 1.0) * unit <= tol.eigen_residual:
                values.setflags(write=False)
                return EigenDecomposition(values, None, deviation)
    dec = _gated_eigh(herm, lambda basis: herm @ basis, tol)
    return dec if vectors else EigenDecomposition(dec.eigenvalues, None, dec.residual)


def _gated_eigh(
    herm: np.ndarray, apply: Callable[[np.ndarray], np.ndarray], tol: Tolerance
) -> EigenDecomposition:
    """The vectors path of :func:`hermitian_eig` on its Hermitian part
    ``herm``: one ``eigh``, then the gate ``max_j |A v_j - lam_j v_j| <=
    tol.eigen_residual`` with ``A V`` read from ``apply(V)``, which must equal
    ``herm @ V`` but may form it from factors of ``herm``."""
    try:
        values, basis = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise _eig_failure(herm, str(exc)) from exc
    # entries near the float limit overflow here; Inf or NaN fails the gate
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(
            np.max(np.linalg.norm(apply(basis) - basis * values, axis=0), initial=0.0)
        )
    if not residual <= tol.eigen_residual:
        raise _eig_failure(
            herm, f"eigendecomposition residual {residual:.3e} exceeds {tol.eigen_residual:.3e}"
        )
    values.setflags(write=False)
    basis.setflags(write=False)
    return EigenDecomposition(values, basis, residual)


def _eig_failure(herm: np.ndarray, message: str) -> ToolkitError:
    """The error for a failed eigen gate or solver: ``NonFiniteError`` when
    the Hermitian part holds Inf or NaN (its entries overflowed), otherwise
    ``NoConvergenceError`` with ``message``.  Only failures pay this pass."""
    if not np.isfinite(herm).all():
        return NonFiniteError("the Hermitian part of the matrix overflows")
    return NoConvergenceError(message)


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


def kronecker_sum(a, b, dim_cap: int = KRONECKER_DIM_CAP) -> np.ndarray:
    """Kronecker sum ``A (x) I_m + I_n (x) B`` of a square ``n x n`` A and
    ``m x m`` B; an output of more than ``dim_cap`` rows is refused.

    Written into one ``(n, m, n, m)`` buffer: A on the ``(i, k, j, k)``
    entries, then B added on the ``(i, k, i, l)`` ones, so no Kronecker
    factor is formed; equal to ``kron(A, I) + kron(I, B)`` entry for entry.
    """
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    n, m = a.shape[0], b.shape[0]
    if n * m > dim_cap:
        raise SizeOverflowError(
            f"kronecker output {n * m}x{n * m} exceeds dimension cap {dim_cap}"
        )
    out = np.zeros((n, m, n, m), dtype=np.complex128)
    out[:, np.arange(m), :, np.arange(m)] = a
    out[np.arange(n), :, np.arange(n), :] += b
    out = out.reshape(n * m, n * m)
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
