"""Tensor products of finite Hilbert complexes.

The degree-``i`` piece of the product is the direct sum over ``j + k = i`` of
``H_j (x) H'_k``, laid out in ascending ``j`` with row-major Kronecker
convention inside each block.  The product differential acts blockwise as
``d_j (x) I`` into block ``(j+1, k)`` and ``(-1)^j I (x) d'_k`` into block
``(j, k+1)``; the alternating sign is what makes the square vanish.

Each piece is written straight into its slot of the product differential
through a four-index view, and the product carries its block layout, so
its Laplacian spectra are read block by block from its own differentials
(see :func:`complexes.off_block_residual`).  On each block ``(j, k)`` the
product Laplacian is ``Delta_j (x) I + I (x) Delta'_k`` and the cross terms
between blocks cancel, by the same sign: :func:`block_structure_check`
holds the dense Laplacian to both facts.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from .complexes import (
    BlockSlot,
    FiniteComplex,
    ProductBlockIndex,
    ResidualReport,
    cohomology_dim,
    laplacian,
    spectrum_multiset,
)
from .limits import DEFAULT_TOL, KRONECKER_DIM_CAP, Tolerance
from .numerics import (
    MATCH_GAP,
    SizeOverflowError,
    kronecker_sum,
    max_abs,
    nan_max,
    sorted_gap,
)


def _block_index(a: FiniteComplex, b: FiniteComplex, degree: int) -> ProductBlockIndex:
    blocks: list[BlockSlot] = []
    offset = 0
    for j in a.degrees:
        k = degree - j
        size = a.dim(j) * b.dim(k)
        if size:
            blocks.append(BlockSlot(j, k, offset, size))
            offset += size
    return ProductBlockIndex(degree, tuple(blocks))


def tensor_complex(a: FiniteComplex, b: FiniteComplex, dim_cap: int = KRONECKER_DIM_CAP) -> FiniteComplex:
    """Build the product complex, which carries its per-degree block layout
    as ``layout``.  A product degree of more than ``dim_cap`` dimensions, or
    differentials of more than ``dim_cap**2`` entries in all, is refused
    before any matrix is made."""
    lo = a.lo + b.lo
    hi = a.hi + b.hi
    indexes = {i: _block_index(a, b, i) for i in range(lo, hi + 1)}
    dims = tuple(indexes[i].total for i in range(lo, hi + 1))
    if any(d > dim_cap for d in dims):
        raise SizeOverflowError(
            f"product degree dimension {max(dims)} exceeds cap {dim_cap}"
        )
    entries = sum(x * y for x, y in zip(dims, dims[1:]))
    if entries > dim_cap**2:
        raise SizeOverflowError(
            f"product differentials of {entries} entries exceed the cap {dim_cap}**2"
        )

    differentials: dict[int, np.ndarray] = {}
    for i in range(lo, hi):
        target = indexes[i + 1]
        matrix = np.zeros((target.total, indexes[i].total), dtype=np.complex128)
        for block in indexes[i].blocks:
            j, k = block.j, block.k
            m, n = a.dim(j), b.dim(k)
            cols = slice(block.offset, block.offset + block.size)
            # splitting each axis of a slot in two is a view of ``matrix``
            if j in a.differentials and a.dim(j + 1):
                # d_j (x) I_n: entry ((p', q), (p, q)) is d_j[p', p]
                view = matrix[target.span(j + 1, j + 1), cols].reshape(a.dim(j + 1), n, m, n)
                view[:, np.arange(n), :, np.arange(n)] = a.differentials[j]
            if k in b.differentials and b.dim(k + 1):
                # (-1)^j I_m (x) d'_k: entry ((p, q'), (p, q)) is +-d'_k[q', q]
                piece = -b.differentials[k] if j % 2 else b.differentials[k]
                view = matrix[target.span(j, j), cols].reshape(m, b.dim(k + 1), m, n)
                view[np.arange(m), :, np.arange(m), :] = piece
        if matrix.size:
            differentials[i] = matrix

    return FiniteComplex(lo, dims, differentials, indexes)


def product_laplacian_blocks(a: FiniteComplex, b: FiniteComplex, degree: int) -> dict[tuple[int, int], np.ndarray]:
    """Per-block product Laplacians ``Delta_j (x) I + I (x) Delta'_k``.

    Assembling these along the diagonal in the recorded block order equals the
    Laplacian of the assembled product complex; the cross terms cancel (see
    :func:`block_structure_check`).  Blocks are held to ``KRONECKER_DIM_CAP``.
    """
    index = _block_index(a, b, degree)
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for block in index.blocks:
        blocks[(block.j, block.k)] = kronecker_sum(laplacian(a, block.j), laplacian(b, block.k))
    return blocks


def block_structure_check(
    a: FiniteComplex, b: FiniteComplex, product: FiniteComplex
) -> ResidualReport:
    """Hold the dense Laplacian of ``product`` at each degree to the block
    structure of the product formula, with the block layout derived from
    ``a`` and ``b``: residual ``(degree, "off-block")`` is its largest entry
    outside the diagonal blocks, and ``(degree, "diagonal")`` the largest
    gap of a diagonal block from :func:`product_laplacian_blocks`.  The
    report judges them at the default tolerance.  ``product`` is the complex
    :func:`tensor_complex` built from ``a`` and ``b``."""
    residuals: dict[tuple[int, str], float] = {}
    for degree in product.degrees:
        dense = np.array(laplacian(product, degree))
        expected = product_laplacian_blocks(a, b, degree)
        gaps = []
        for block in _block_index(a, b, degree).blocks:
            inside = slice(block.offset, block.offset + block.size)
            gaps.append(max_abs(dense[inside, inside] - expected[(block.j, block.k)]))
            dense[inside, inside] = 0.0
        residuals[(degree, "off-block")] = max_abs(dense)
        residuals[(degree, "diagonal")] = nan_max(gaps)
    return ResidualReport.judge(residuals, DEFAULT_TOL)


class KuennethReport(NamedTuple):
    """Computed vs expected cohomology dimensions of the product, per degree."""

    pairs: Mapping[int, tuple[int, int]]
    passed: bool


def kuenneth_check(
    a: FiniteComplex, b: FiniteComplex, product: FiniteComplex, tol: Tolerance = DEFAULT_TOL
) -> KuennethReport:
    """Product cohomology must be the convolution of factor cohomologies.

    ``product`` is the complex :func:`tensor_complex` built from ``a`` and
    ``b``; callers build it once and pass it to every product check.
    """
    factor_a = {j: cohomology_dim(a, j, tol) for j in a.degrees}
    factor_b = {k: cohomology_dim(b, k, tol) for k in b.degrees}
    pairs: dict[int, tuple[int, int]] = {}
    for i in product.degrees:
        computed = cohomology_dim(product, i, tol)
        expected = sum(
            factor_a[j] * factor_b[i - j] for j in a.degrees if i - j in factor_b
        )
        pairs[i] = (computed, expected)
    passed = all(c == e for c, e in pairs.values())
    return KuennethReport(pairs, passed)


class SpectrumMatchReport(NamedTuple):
    """Pairing of product-Laplacian eigenvalues against sums of factor eigenvalues."""

    degree: int
    product_eigenvalues: tuple[float, ...]
    summed_eigenvalues: tuple[float, ...]
    max_gap: float
    passed: bool


def verify_product_spectrum(
    a: FiniteComplex,
    b: FiniteComplex,
    product: FiniteComplex,
    degree: int,
    tol: Tolerance = DEFAULT_TOL,
) -> SpectrumMatchReport:
    """Check that the product Laplacian's eigenvalue multiset at ``degree``
    equals the multiset union over ``j + k = degree`` of pairwise sums of
    factor eigenvalues: it passes when their :func:`numerics.sorted_gap` is
    at most ``MATCH_GAP``.  ``product`` is the complex
    :func:`tensor_complex` built from ``a`` and ``b``."""
    if product.lo <= degree <= product.hi:
        lhs = spectrum_multiset(product, degree, tol)
    else:
        lhs = []
    sums = [
        np.add.outer(spectrum_multiset(a, j, tol), spectrum_multiset(b, degree - j, tol)).ravel()
        for j in a.degrees
        if a.dim(j) and b.dim(degree - j)
    ]
    rhs = np.sort(np.concatenate(sums)) if sums else np.zeros(0)
    summed = tuple(rhs.tolist())
    max_gap = sorted_gap(lhs, rhs)
    return SpectrumMatchReport(degree, tuple(lhs), summed, max_gap, max_gap <= MATCH_GAP)

