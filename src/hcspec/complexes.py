"""Finite-dimensional Hilbert complexes.

A complex stores a contiguous degree window, the dimension of each graded
piece, and the differential matrices between consecutive pieces.  Degrees
outside the window are zero spaces.  On top of that this module provides the
Laplacians, the Hodge decomposition, cohomology dimensions, the norm-minimal
solution operator, the inverse-of-Laplacian, and the operator identities that
tie them together, all as checkable dense-matrix statements.

One residual report, :class:`ResidualReport`, judges the cochain condition,
the operator identities and the Hodge projector algebra: each passes when
every max-norm residual is within ``tol.identity_check``, and a NaN fails.

A complex may carry a block layout (:class:`ProductBlockIndex` per degree),
the grading of a tensor product: degree ``i`` is the direct sum over
``j + k = i`` of blocks ``(j, k)``, and each differential sends block ``j``
into blocks ``j`` and ``j + 1`` only.  Then the Laplacian of a degree can
vanish off its diagonal blocks, and its spectrum is read block by block.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ToolkitError
from .limits import DEFAULT_TOL, Tolerance
from .numerics import (
    SVD,
    NonFiniteError,
    as_complex_matrix,
    hermitian_eig,
    max_abs,
    nan_max,
    pseudo_inverse,
    rank_cutoff,
    svd,
    zero_matrix,
)
from .records import FrozenRecord


class ShapeMismatchError(ToolkitError):
    """A differential's shape does not match the graded dimensions."""


class DegreeOutOfRangeError(ToolkitError):
    """The requested degree lies outside the complex's window."""


class InconsistentRankError(ToolkitError):
    """Kernel and rank-nullity cohomology counts disagree (tolerance trouble)."""


class BlockSlot(NamedTuple):
    """One ``H_j (x) H'_k`` block inside a product degree."""

    j: int
    k: int
    offset: int
    size: int


class ProductBlockIndex(NamedTuple):
    """Ordered block layout of one degree of the product complex: nonempty
    blocks in ascending ``j``, each starting where the one before ends."""

    degree: int
    blocks: tuple[BlockSlot, ...]

    def span(self, first: int, last: int) -> slice:
        """The coordinates of the blocks with ``first <= j <= last``, which
        are contiguous; empty when there are none."""
        inside = [block for block in self.blocks if first <= block.j <= last]
        if not inside:
            return slice(0, 0)
        return slice(inside[0].offset, inside[-1].offset + inside[-1].size)

    @property
    def total(self) -> int:
        return sum(block.size for block in self.blocks)


class FiniteComplex(FrozenRecord):
    """Graded dimensions plus differentials ``d_i: H_i -> H_{i+1}``.

    ``dims[n]`` is the dimension at degree ``lo + n``.  A missing differential
    is the zero map.  Shapes are validated on construction; the cochain
    condition ``d_{i+1} d_i = 0`` is checked by :func:`validate`.

    ``layout``, when given, holds a :class:`ProductBlockIndex` for every
    degree of the window.  Construction refuses a layout whose blocks do not
    tile a degree, or that a differential does not respect: each column of
    block ``j`` must vanish outside the rows of blocks ``j`` and ``j + 1``.

    Each object memoizes, keyed by ``(degree, tol)``, the clipped Laplacian
    eigenvalues of each degree (values-only ``eigvalsh`` under the moment
    gate of :func:`hermitian_eig`, no eigenvectors; block by block under a
    layout, see :func:`off_block_residual`), which :func:`cohomology_dim`
    and :func:`spectrum_multiset` read.  Keyed by degree alone, since no
    tolerance moves the rank cutoff, it holds the Laplacian pseudo-inverses
    of :func:`laplacian_inverse` and two SVDs of each differential: one
    values-only, whose rank :func:`cohomology_dim` reads, and one with
    vectors, the only one, from which :func:`hodge` reads both range
    projectors, :func:`solution_operator` the pseudo-inverse and
    :func:`check_identities` both.  The memo lives with the object, and the
    object is frozen with read-only matrices, so no entry goes stale.
    """

    __slots__ = ("lo", "dims", "differentials", "layout", "_memo")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        lo: int,
        dims: tuple[int, ...],
        differentials: Mapping[int, np.ndarray] | None = None,
        layout: Mapping[int, ProductBlockIndex] | None = None,
    ) -> None:
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ShapeMismatchError("a complex needs at least one degree")
        if any(d < 0 for d in dims):
            raise ShapeMismatchError("dimensions must be nonnegative")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "dims", dims)
        cleaned: dict[int, np.ndarray] = {}
        for degree, matrix in dict(differentials or {}).items():
            matrix = as_complex_matrix(matrix)
            expected = (self.dim(degree + 1), self.dim(degree))
            if matrix.shape != expected:
                raise ShapeMismatchError(
                    f"differential at degree {degree} has shape {matrix.shape}, "
                    f"expected {expected}"
                )
            cleaned[degree] = matrix
        object.__setattr__(self, "differentials", cleaned)
        object.__setattr__(self, "layout", None if layout is None else dict(layout))
        object.__setattr__(self, "_memo", {})
        if layout is not None:
            self._check_layout()

    def _check_layout(self) -> None:
        if set(self.layout) != set(self.degrees):
            raise ShapeMismatchError("a layout needs one block index per degree of the window")
        for degree in self.degrees:
            blocks = self.layout[degree].blocks
            ends = [0, *(block.offset + block.size for block in blocks)]
            if (
                ends[-1] != self.dim(degree)
                or any(block.offset != end or block.size <= 0 for block, end in zip(blocks, ends))
                or any(block.j + block.k != degree for block in blocks)
                or any(x.j >= y.j for x, y in zip(blocks, blocks[1:]))
            ):
                raise ShapeMismatchError(f"the layout does not tile degree {degree}")
        for degree, matrix in self.differentials.items():
            if not self.lo <= degree < self.hi:
                continue  # a zero-size map
            target = self.layout[degree + 1]
            for block in self.layout[degree].blocks:
                rows = target.span(block.j, block.j + 1)
                cols = matrix[:, block.offset : block.offset + block.size]
                if cols[: rows.start].any() or cols[rows.stop :].any():
                    raise ShapeMismatchError(
                        f"differential at degree {degree} leaves the blocks of its layout"
                    )

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

    def _require_degree(self, degree: int) -> None:
        if not self.lo <= degree <= self.hi:
            raise DegreeOutOfRangeError(
                f"degree {degree} outside window [{self.lo}, {self.hi}]"
            )


class ResidualReport(NamedTuple):
    """Max-norm residuals of a set of identities, by name or degree, and
    whether all of them hold within tolerance."""

    residuals: Mapping
    passed: bool

    @classmethod
    def judge(cls, residuals: Mapping, tol: Tolerance) -> "ResidualReport":
        """The report whose ``passed`` says every residual is at most
        ``tol.identity_check``; a NaN residual fails."""
        return cls(residuals, all(r <= tol.identity_check for r in residuals.values()))


def validate(complex_: FiniteComplex, tol: Tolerance = DEFAULT_TOL) -> ResidualReport:
    """Check the cochain condition ``d o d = 0`` within ``tol.identity_check``.

    Raises ``NonFiniteError`` when a composite overflows, since no residual
    can then be measured.
    """
    residuals: dict[int, float] = {}
    for degree in range(complex_.lo, complex_.hi):
        lower = complex_.differential(degree)
        upper = complex_.differential(degree + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            residual = max_abs(upper @ lower)
        if not math.isfinite(residual):
            raise NonFiniteError(f"d o d overflows at degree {degree}")
        residuals[degree] = residual
    return ResidualReport.judge(residuals, tol)


def random_complex(dims: tuple[int, ...] | list[int], seed: int, lo: int = 0) -> FiniteComplex:
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
        factors = svd(zero_matrix(cols, 0) if previous is None else previous, vectors=True)
        complement = factors.u[:, factors.rank :]
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
    """The Laplacian; an overflow leaves Inf or NaN entries, with no warning,
    for the eigen gate to refuse as ``NonFiniteError``."""
    down = complex_.differential(degree - 1)
    up = complex_.differential(degree)
    with np.errstate(over="ignore", invalid="ignore"):
        return up.conj().T @ up + down @ down.conj().T


class HodgeSplit(NamedTuple):
    """The three orthogonal projectors of the Hodge decomposition at one
    degree, and the report on their algebra (see :func:`hodge`)."""

    degree: int
    p_harmonic: np.ndarray
    p_range_d: np.ndarray
    p_range_dstar: np.ndarray
    harmonic_dim: int
    report: ResidualReport


def _kernel_mask(values: np.ndarray) -> np.ndarray:
    """Which clipped ascending Laplacian eigenvalues lie at or below the rank
    cutoff for the Laplacian's size and largest eigenvalue: the kernel."""
    return values <= rank_cutoff(values.size, np.max(values, initial=0.0))


def _laplacian_eigenvalues(complex_: FiniteComplex, degree: int, tol: Tolerance) -> np.ndarray:
    """Ascending Laplacian eigenvalues clipped at 0, memoized on the complex.

    They come from the values-only path of :func:`hermitian_eig`: its moment
    gate, and ``tol.eigen_residual`` met by the moments or else by the
    measured residual of the vectors path.  Under a layout that path runs on
    each diagonal block, unless an off-block entry exceeds
    ``tol.identity_check`` (a NaN does); then on the whole Laplacian."""
    key = ("eigenvalues", degree, tol)
    if key not in complex_._memo:
        values = np.zeros(0)
        if complex_.dim(degree):
            blocks = _diagonal_blocks(complex_, degree)
            if not off_block_residual(complex_, degree) <= tol.identity_check:
                blocks = [_laplacian_any(complex_, degree)]
            values = [hermitian_eig(block, tol, vectors=False).eigenvalues for block in blocks]
            values = np.clip(np.sort(np.concatenate(values)), 0.0, None)
        values.setflags(write=False)
        complex_._memo[key] = values
    return complex_._memo[key]


def _diagonal_blocks(complex_: FiniteComplex, degree: int) -> list[np.ndarray]:
    """The diagonal blocks of the Laplacian at ``degree``, memoizing its
    largest off-block entry for :func:`off_block_residual`; without a layout,
    the whole Laplacian as one block.

    Block ``j`` is ``u* u + v v*``, with ``u`` its columns of ``d_i`` on the
    rows of blocks ``j`` and ``j + 1`` above and ``v`` its rows of
    ``d_{i-1}`` on the columns of blocks ``j - 1`` and ``j`` below: the
    only nonzero blocks of the two differentials there.  Blocks ``j`` and
    ``j + 1`` share block ``j + 1`` above and block ``j`` below, and the
    off-diagonal block between them sums the products through those two,
    the cross terms that a tensor product's sign cancels; blocks further
    apart share neither, and their off-diagonal block is 0."""
    key = ("off_block", degree)
    if complex_.layout is None:
        complex_._memo[key] = 0.0
        return [_laplacian_any(complex_, degree)]
    slots = complex_.layout[degree].blocks
    above = complex_.layout.get(degree + 1, ProductBlockIndex(degree + 1, ()))
    below = complex_.layout.get(degree - 1, ProductBlockIndex(degree - 1, ()))
    up, down = complex_.differential(degree), complex_.differential(degree - 1)
    blocks = []
    cross = []
    # An overflow leaves Inf or NaN, as in _laplacian_any, with no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in slots:
            cols = slice(block.offset, block.offset + block.size)
            u = up[above.span(block.j, block.j + 1), cols]
            v = down[cols, below.span(block.j - 1, block.j)]
            blocks.append(u.conj().T @ u + v @ v.conj().T)
        for x, y in zip(slots, slots[1:]):
            if y.j == x.j + 1:
                xs, ys = slice(x.offset, x.offset + x.size), slice(y.offset, y.offset + y.size)
                rows, cols = above.span(y.j, y.j), below.span(x.j, x.j)
                through_above = up[rows, xs].conj().T @ up[rows, ys]
                cross.append(max_abs(through_above + down[xs, cols] @ down[ys, cols].conj().T))
    complex_._memo[key] = nan_max(cross)
    return blocks


def off_block_residual(complex_: FiniteComplex, degree: int) -> float:
    """The largest entry of the Laplacian at ``degree`` outside the diagonal
    blocks of the complex's layout, memoized on the complex; 0 without a
    layout, where the degree is one block."""
    complex_._require_degree(degree)
    key = ("off_block", degree)
    if key not in complex_._memo:
        _diagonal_blocks(complex_, degree)
    return complex_._memo[key]


def _svd_of(complex_: FiniteComplex, degree: int, vectors: bool = True) -> SVD:
    """The SVD of ``d_degree``, with or without vectors, memoized on the
    complex; an out-of-window degree is a map to or from a zero space."""
    key = ("svd", degree, vectors)
    if key not in complex_._memo:
        complex_._memo[key] = svd(complex_.differential(degree), vectors)
    return complex_._memo[key]


def hodge(complex_: FiniteComplex, degree: int, tol: Tolerance = DEFAULT_TOL) -> HodgeSplit:
    """Split ``H_i`` into harmonic space, range of d, and range of d-star.

    ``P_harm`` spans the kernel eigenvectors of the Laplacian, while
    ``P_d`` and ``P_d*`` are read off the memoized SVDs of ``d_{i-1}`` (left
    vectors) and ``d_i`` (right vectors), so the sum compares the two
    differentials' factorizations with the Laplacian's.  The split's
    ``report`` judges the projector algebra at ``tol``: its residuals
    ``sum_minus_identity`` (``P_harm + P_d + P_d* - I``) and
    ``pairwise_products`` (the largest product of two different
    projectors), both 0 on a zero space.
    """
    complex_._require_degree(degree)
    dec = hermitian_eig(_laplacian_any(complex_, degree), tol)
    below, above = _svd_of(complex_, degree - 1), _svd_of(complex_, degree)
    bases = (
        dec.vectors[:, _kernel_mask(np.clip(dec.eigenvalues, 0.0, None))],
        below.u[:, : below.rank],
        above.vh[: above.rank].conj().T,
    )
    p_harm, p_range_d, p_range_dstar = (basis @ basis.conj().T for basis in bases)
    report = ResidualReport.judge(_projector_residuals(p_harm, p_range_d, p_range_dstar), tol)
    return HodgeSplit(degree, p_harm, p_range_d, p_range_dstar, bases[0].shape[1], report)


def _projector_residuals(p_harm: np.ndarray, p_d: np.ndarray, p_dstar: np.ndarray) -> dict[str, float]:
    """The residuals of the projector algebra reported by :func:`hodge`."""
    total = p_harm + p_d + p_dstar
    return {
        "sum_minus_identity": max_abs(total - np.eye(total.shape[0])),
        "pairwise_products": nan_max(
            [max_abs(p_harm @ p_d), max_abs(p_harm @ p_dstar), max_abs(p_d @ p_dstar)]
        ),
    }


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
    harmonic = int(np.count_nonzero(_kernel_mask(values)))
    ranks = (_svd_of(complex_, i, vectors=False).rank for i in (degree, degree - 1))
    by_rank = complex_.dim(degree) - sum(ranks)
    if harmonic != by_rank:
        raise InconsistentRankError(
            f"kernel dimension {harmonic} vs rank-nullity {by_rank} "
            f"at degree {degree}"
        )
    return harmonic


def solution_operator(complex_: FiniteComplex, degree: int) -> np.ndarray:
    """Norm-minimal solution operator ``S_i: H_i -> H_{i-1}``.

    The pseudo-inverse of ``d_{i-1}``, read off its memoized SVD, solves
    ``d x = y`` with ``x`` orthogonal to the kernel and vanishes on the
    orthogonal complement of the range.
    """
    complex_._require_degree(degree)
    return _svd_of(complex_, degree - 1).pseudo_inverse()


def laplacian_inverse(complex_: FiniteComplex, degree: int) -> np.ndarray:
    """``N_i``, the pseudo-inverse of the Laplacian, zero on the harmonic space."""
    complex_._require_degree(degree)
    return _laplacian_pinv(complex_, degree)


def _laplacian_pinv(complex_: FiniteComplex, degree: int) -> np.ndarray:
    """The pseudo-inverse of the Laplacian at ``degree``, from its own SVD,
    memoized on the complex; an out-of-window degree is a zero space."""
    key = ("laplacian", degree)
    if key not in complex_._memo:
        complex_._memo[key] = pseudo_inverse(_laplacian_any(complex_, degree))
    return complex_._memo[key]


def check_identities(
    complex_: FiniteComplex, degree: int, tol: Tolerance = DEFAULT_TOL
) -> ResidualReport:
    """Residuals of the standard identities at one degree.

    Checks, in max-norm: ``S = d* N``; the projection formula
    ``I - P_ker(d) = d* N d``; the commutation ``d N = N d``; and
    ``N = S* S + S S*`` with the zero-extended solution operators.
    ``degree`` must lie in the window; the adjacent degree above it may not,
    and is then treated as a zero space.  The report judges the four
    residuals at ``tol``.

    ``S`` and ``I - P_ker(d) = P_ran(d*)`` are read off the memoized SVD of
    each differential, and ``N`` off a separate SVD of each Laplacian, so the
    identities at degrees ``i`` and ``i + 1`` share every factorization.
    Still no identity compares a value with itself: the first, second and
    fourth each set a differential's SVD against a Laplacian's, and the
    commutation sets the Laplacians of two degrees against each other.
    """
    d_prev = complex_.differential(degree - 1)
    d_here = complex_.differential(degree)
    n_here = laplacian_inverse(complex_, degree)
    n_up = _laplacian_pinv(complex_, degree + 1)
    s_here = solution_operator(complex_, degree)
    here = _svd_of(complex_, degree)
    s_up = here.pseudo_inverse()
    coimage = here.vh[: here.rank]

    residuals = {
        "solution-from-inverse": max_abs(s_here - d_prev.conj().T @ n_here),
        "kernel-complement-formula": max_abs(
            coimage.conj().T @ coimage - d_here.conj().T @ n_up @ d_here
        ),
        "inverse-commutes-with-d": max_abs(d_here @ n_here - n_up @ d_here),
        "inverse-from-solutions": max_abs(
            n_here - (s_here.conj().T @ s_here + s_up @ s_up.conj().T)
        ),
    }
    return ResidualReport.judge(residuals, tol)


def spectrum_multiset(
    complex_: FiniteComplex, degree: int, tol: Tolerance = DEFAULT_TOL
) -> list[float]:
    """Ascending Laplacian eigenvalues at one degree, negatives clamped to 0."""
    return _laplacian_eigenvalues(complex_, degree, tol).tolist()
