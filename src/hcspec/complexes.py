"""Finite-dimensional Hilbert complexes.

A complex stores a contiguous degree window, the dimension of each graded
piece, and the differential matrices between consecutive pieces.  Degrees
outside the window are zero spaces.  On top of that this module provides the
Laplacians, the Hodge decomposition, cohomology dimensions, the norm-minimal
solution operator, the inverse-of-Laplacian, and the operator identities that
tie them together, all as checkable dense-matrix statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ToolkitError
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    _svd,
    as_complex_matrix,
    hermitian_eig,
    max_abs,
    numeric_rank,
    pseudo_inverse,
    range_projection,
    zero_matrix,
)


class ShapeMismatchError(ToolkitError):
    """A differential's shape does not match the graded dimensions."""


class DegreeOutOfRangeError(ToolkitError):
    """The requested degree lies outside the complex's window."""


class InconsistentRankError(ToolkitError):
    """Kernel and rank-nullity cohomology counts disagree (tolerance trouble)."""


@dataclass(frozen=True, eq=False)
class FiniteComplex:
    """Graded dimensions plus differentials ``d_i: H_i -> H_{i+1}``.

    ``dims[n]`` is the dimension at degree ``lo + n``.  A missing differential
    is the zero map.  Shapes are validated on construction; the cochain
    condition ``d_{i+1} d_i = 0`` is checked by :func:`validate`.

    Each object memoizes, keyed by ``(degree, tol)``, the numeric rank of
    each differential and the clipped Laplacian eigenvalues of each degree
    (no eigenvectors), which :func:`cohomology_dim` and
    :func:`spectrum_multiset` read.  The memo lives with the object, and the
    object is frozen with read-only matrices, so no entry goes stale.
    """

    lo: int
    dims: tuple[int, ...]
    differentials: Mapping[int, np.ndarray] = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ShapeMismatchError("a complex needs at least one degree")
        if any(d < 0 for d in dims):
            raise ShapeMismatchError("dimensions must be nonnegative")
        object.__setattr__(self, "dims", dims)
        cleaned: dict[int, np.ndarray] = {}
        for degree, matrix in dict(self.differentials).items():
            matrix = as_complex_matrix(matrix)
            expected = (self.dim(degree + 1), self.dim(degree))
            if matrix.shape != expected:
                raise ShapeMismatchError(
                    f"differential at degree {degree} has shape {matrix.shape}, "
                    f"expected {expected}"
                )
            cleaned[degree] = matrix
        object.__setattr__(self, "differentials", cleaned)

    @property
    def hi(self) -> int:
        return self.lo + len(self.dims) - 1

    @property
    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def dim(self, degree: int) -> int:
        if self.lo <= degree <= self.hi:
            return self.dims[degree - self.lo]
        return 0

    def differential(self, degree: int) -> np.ndarray:
        """The matrix of ``d_degree``; a zero map when absent or out of window."""
        found = self.differentials.get(degree)
        if found is not None:
            return found
        return zero_matrix(self.dim(degree + 1), self.dim(degree))

    def support(self) -> frozenset[int]:
        return frozenset(d for d in self.degrees if self.dim(d) > 0)

    def _require_degree(self, degree: int) -> None:
        if not self.lo <= degree <= self.hi:
            raise DegreeOutOfRangeError(
                f"degree {degree} outside window [{self.lo}, {self.hi}]"
            )


@dataclass(frozen=True)
class ValidationReport:
    """Max-norm residuals of ``d_{i+1} d_i`` per degree."""

    residuals: Mapping[int, float]
    passed: bool


def validate(complex_: FiniteComplex, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Check the cochain condition ``d o d = 0`` within ``tol.identity_check``."""
    residuals: dict[int, float] = {}
    for degree in range(complex_.lo, complex_.hi):
        lower = complex_.differential(degree)
        upper = complex_.differential(degree + 1)
        residuals[degree] = max_abs(upper @ lower)
    passed = all(r <= tol.identity_check for r in residuals.values())
    return ValidationReport(residuals, passed)


def random_complex(
    dims: tuple[int, ...] | list[int],
    seed: int,
    lo: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> FiniteComplex:
    """Deterministic random complex with ``d o d = 0`` enforced by construction.

    Each differential is a complex Gaussian draw composed with the projection
    onto the orthogonal complement of the previous differential's range, which
    kills the composite up to floating error.  The projection is applied in
    factored form, through an orthonormal basis of the complement (the left
    singular vectors of the previous differential past its rank), so the
    constructed matrix has no stray singular values straddling the rank
    cutoff.
    """
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)
    differentials: dict[int, np.ndarray] = {}
    previous: np.ndarray | None = None
    for offset in range(len(dims) - 1):
        rows, cols = dims[offset + 1], dims[offset]
        if previous is not None and previous.size:
            _, rank, u, _ = _svd(previous, tol, vectors=True)
            complement = u[:, rank:]
        else:
            complement = np.eye(cols, dtype=np.complex128)
        width = complement.shape[1]
        draw = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
        matrix = np.asarray(draw / math.sqrt(2.0)) @ complement.conj().T
        if rows and cols and width:
            differentials[lo + offset] = matrix
        else:
            matrix = zero_matrix(rows, cols)
        previous = matrix
    return FiniteComplex(lo, dims, differentials)


def laplacian(complex_: FiniteComplex, degree: int) -> np.ndarray:
    """``d_i^* d_i + d_{i-1} d_{i-1}^*`` at the given degree."""
    complex_._require_degree(degree)
    return _laplacian_any(complex_, degree)


def _laplacian_any(complex_: FiniteComplex, degree: int) -> np.ndarray:
    down = complex_.differential(degree - 1)
    up = complex_.differential(degree)
    return up.conj().T @ up + down @ down.conj().T


@dataclass(frozen=True)
class HodgeSplit:
    """The three orthogonal projectors of the Hodge decomposition at one degree."""

    degree: int
    p_harmonic: np.ndarray
    p_range_d: np.ndarray
    p_range_dstar: np.ndarray
    harmonic_dim: int


def _kernel_mask(values: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Which clipped ascending Laplacian eigenvalues lie at or below the rank
    cutoff for the Laplacian's size and largest eigenvalue: the kernel."""
    sigma_max = float(values[-1]) if values.size else 0.0
    return values <= tol.rank_cutoff(values.size, sigma_max)


def _laplacian_eigenvalues(complex_: FiniteComplex, degree: int, tol: Tolerance) -> np.ndarray:
    """Ascending Laplacian eigenvalues clipped at 0, memoized on the complex."""
    key = ("eigenvalues", degree, tol)
    if key not in complex_._memo:
        values = np.zeros(0)
        if complex_.dim(degree):
            dec = hermitian_eig(_laplacian_any(complex_, degree), tol)
            values = np.clip(dec.eigenvalues, 0.0, None)
        values.setflags(write=False)
        complex_._memo[key] = values
    return complex_._memo[key]


def _rank(complex_: FiniteComplex, degree: int, tol: Tolerance) -> int:
    """Numeric rank of ``d_degree``, memoized on the complex."""
    key = ("rank", degree, tol)
    if key not in complex_._memo:
        complex_._memo[key] = numeric_rank(complex_.differential(degree), tol)
    return complex_._memo[key]


def hodge(complex_: FiniteComplex, degree: int, tol: Tolerance = DEFAULT_TOL) -> HodgeSplit:
    """Split ``H_i`` into harmonic space, range of d, and range of d-star."""
    complex_._require_degree(degree)
    delta = _laplacian_any(complex_, degree)
    n = delta.shape[0]
    if n == 0:
        empty = zero_matrix(0, 0)
        return HodgeSplit(degree, empty, empty, empty, 0)
    dec = hermitian_eig(delta, tol)
    kernel = dec.vectors[:, _kernel_mask(np.clip(dec.eigenvalues, 0.0, None), tol)]
    p_harm = kernel @ kernel.conj().T
    p_range_d = range_projection(complex_.differential(degree - 1), tol)
    p_range_dstar = range_projection(complex_.differential(degree).conj().T, tol)
    return HodgeSplit(degree, p_harm, p_range_d, p_range_dstar, kernel.shape[1])


def cohomology_dim(
    complex_: FiniteComplex, degree: int, tol: Tolerance = DEFAULT_TOL
) -> int:
    """Dimension of the degree-``degree`` cohomology, cross-checked two ways.

    The kernel dimension of the Laplacian must agree with the rank-nullity
    count ``dim - rank(d_i) - rank(d_{i-1})``; a disagreement signals that the
    rank threshold is unreliable for this input.
    """
    complex_._require_degree(degree)
    values = _laplacian_eigenvalues(complex_, degree, tol)
    harmonic = int(np.count_nonzero(_kernel_mask(values, tol)))
    by_rank = (
        complex_.dim(degree)
        - _rank(complex_, degree, tol)
        - _rank(complex_, degree - 1, tol)
    )
    if harmonic != by_rank:
        raise InconsistentRankError(
            f"kernel dimension {harmonic} vs rank-nullity {by_rank} "
            f"at degree {degree}"
        )
    return harmonic


def solution_operator(
    complex_: FiniteComplex, degree: int, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Norm-minimal solution operator ``S_i: H_i -> H_{i-1}``.

    The pseudo-inverse of ``d_{i-1}`` solves ``d x = y`` with ``x`` orthogonal
    to the kernel and vanishes on the orthogonal complement of the range.
    """
    complex_._require_degree(degree)
    return pseudo_inverse(complex_.differential(degree - 1), tol)


def laplacian_inverse(
    complex_: FiniteComplex, degree: int, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """``N_i``, the pseudo-inverse of the Laplacian, zero on the harmonic space."""
    complex_._require_degree(degree)
    return pseudo_inverse(_laplacian_any(complex_, degree), tol)


@dataclass(frozen=True)
class IdentityReport:
    """Max-norm residuals of the operator identities linking S, N, and d."""

    residuals: Mapping[str, float]
    passed: bool


def check_identities(
    complex_: FiniteComplex, degree: int, tol: Tolerance = DEFAULT_TOL
) -> IdentityReport:
    """Residuals of the standard identities at one degree.

    Checks, in max-norm: ``S = d* N``; the projection formula
    ``I - P_ker(d) = d* N d``; the commutation ``d N = N d``; and
    ``N = S* S + S S*`` with the zero-extended solution operators.
    Adjacent out-of-window degrees are treated as zero spaces.
    """
    d_prev = complex_.differential(degree - 1)
    d_here = complex_.differential(degree)
    n_here = pseudo_inverse(_laplacian_any(complex_, degree), tol)
    n_up = pseudo_inverse(_laplacian_any(complex_, degree + 1), tol)
    s_here = pseudo_inverse(d_prev, tol)
    s_up = pseudo_inverse(d_here, tol)

    residuals = {
        "solution-from-inverse": max_abs(s_here - d_prev.conj().T @ n_here),
        "kernel-complement-formula": max_abs(
            range_projection(d_here.conj().T, tol) - d_here.conj().T @ n_up @ d_here
        ),
        "inverse-commutes-with-d": max_abs(d_here @ n_here - n_up @ d_here),
        "inverse-from-solutions": max_abs(
            n_here - (s_here.conj().T @ s_here + s_up @ s_up.conj().T)
        ),
    }
    passed = all(r <= tol.identity_check for r in residuals.values())
    return IdentityReport(residuals, passed)


def basic_estimate_constant(
    complex_: FiniteComplex, degree: int, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Best constant C with ``|x|^2 <= C (|d x|^2 + |d* x|^2)`` off the kernel.

    Returns the reciprocal of the smallest positive Laplacian eigenvalue,
    infinity when the Laplacian vanishes on a nonzero space, and 0 for a zero
    space.
    """
    if complex_.dim(degree) == 0:
        return 0.0
    values = _laplacian_eigenvalues(complex_, degree, tol)
    positive = values[~_kernel_mask(values, tol)]
    if positive.size == 0:
        return math.inf
    return float(1.0 / positive[0])


def spectrum_multiset(
    complex_: FiniteComplex, degree: int, tol: Tolerance = DEFAULT_TOL
) -> list[float]:
    """Ascending Laplacian eigenvalues at one degree, negatives clamped to 0."""
    return _laplacian_eigenvalues(complex_, degree, tol).tolist()


@dataclass(frozen=True)
class NondegeneracyReport:
    nondegenerate: bool
    witnesses: Mapping[int, bool]


def is_nondegenerate(
    complex_: FiniteComplex, tol: Tolerance = DEFAULT_TOL
) -> NondegeneracyReport:
    """Every supported degree must touch at least one nonzero differential."""
    witnesses: dict[int, bool] = {}
    for degree in complex_.degrees:
        if complex_.dim(degree) == 0:
            continue
        touched = (
            max_abs(complex_.differential(degree - 1)) > tol.identity_check
            or max_abs(complex_.differential(degree)) > tol.identity_check
        )
        witnesses[degree] = touched
    return NondegeneracyReport(all(witnesses.values()), witnesses)
