"""Tensor products of finite Hilbert complexes.

The degree-``i`` piece of the product is the direct sum over ``j + k = i`` of
``H_j (x) H'_k``, laid out in ascending ``j`` with row-major Kronecker
convention inside each block.  The product differential acts blockwise as
``d_j (x) I`` into block ``(j+1, k)`` and ``(-1)^j I (x) d'_k`` into block
``(j, k+1)``; the alternating sign is what makes the square vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .complexes import (
    FiniteComplex,
    cohomology_dim,
    laplacian,
    spectrum_multiset,
)
from .numerics import (
    DEFAULT_TOL,
    KRONECKER_DIM_CAP,
    MATCH_GAP,
    SizeOverflowError,
    Tolerance,
    kronecker,
    kronecker_sum,
)


@dataclass(frozen=True)
class BlockSlot:
    """One ``H_j (x) H'_k`` block inside a product degree."""

    j: int
    k: int
    offset: int
    size: int


@dataclass(frozen=True)
class ProductBlockIndex:
    """Ordered block layout of one degree of the product complex."""

    degree: int
    blocks: tuple[BlockSlot, ...]

    def slot(self, j: int, k: int) -> BlockSlot:
        for block in self.blocks:
            if block.j == j and block.k == k:
                return block
        raise KeyError(f"no block ({j}, {k}) in degree {self.degree}")

    @property
    def total(self) -> int:
        return sum(block.size for block in self.blocks)


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


def tensor_complex(
    a: FiniteComplex, b: FiniteComplex, dim_cap: int = KRONECKER_DIM_CAP
) -> tuple[FiniteComplex, dict[int, ProductBlockIndex]]:
    """Build the product complex and the per-degree block layout."""
    lo = a.lo + b.lo
    hi = a.hi + b.hi
    indexes = {i: _block_index(a, b, i) for i in range(lo, hi + 1)}
    dims = tuple(indexes[i].total for i in range(lo, hi + 1))
    if any(d > dim_cap for d in dims):
        raise SizeOverflowError(
            f"product degree dimension {max(dims)} exceeds cap {dim_cap}"
        )

    differentials: dict[int, np.ndarray] = {}
    for i in range(lo, hi):
        source = indexes[i]
        target = indexes[i + 1]
        matrix = np.zeros((target.total, source.total), dtype=np.complex128)
        for block in source.blocks:
            j, k = block.j, block.k
            cols = slice(block.offset, block.offset + block.size)
            up_j = a.differential(j)
            if up_j.size and a.dim(j + 1) and b.dim(k):
                piece = kronecker(up_j, np.eye(b.dim(k)), dim_cap)
                slot = target.slot(j + 1, k)
                matrix[slot.offset : slot.offset + slot.size, cols] += piece
            up_k = b.differential(k)
            if up_k.size and a.dim(j) and b.dim(k + 1):
                sign = -1.0 if j % 2 else 1.0
                piece = sign * kronecker(np.eye(a.dim(j)), up_k, dim_cap)
                slot = target.slot(j, k + 1)
                matrix[slot.offset : slot.offset + slot.size, cols] += piece
        if matrix.size:
            differentials[i] = matrix

    return FiniteComplex(lo, dims, differentials), indexes


def product_laplacian_blocks(a: FiniteComplex, b: FiniteComplex, degree: int) -> dict[tuple[int, int], np.ndarray]:
    """Per-block product Laplacians ``Delta_j (x) I + I (x) Delta'_k``.

    Assembling these along the diagonal in the recorded block order equals the
    Laplacian of the assembled product complex; the cross terms cancel.
    Blocks are held to ``KRONECKER_DIM_CAP``.
    """
    index = _block_index(a, b, degree)
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for block in index.blocks:
        blocks[(block.j, block.k)] = kronecker_sum(laplacian(a, block.j), laplacian(b, block.k))
    return blocks


@dataclass(frozen=True)
class KuennethReport:
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


@dataclass(frozen=True)
class SpectrumMatchReport:
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
    factor eigenvalues, by greedy matching after sorting: it passes when the
    largest gap is at most ``MATCH_GAP``.  ``product`` is the complex
    :func:`tensor_complex` built from ``a`` and ``b``."""
    if product.lo <= degree <= product.hi:
        lhs = spectrum_multiset(product, degree, tol)
    else:
        lhs = []
    rhs: list[float] = []
    for j in a.degrees:
        k = degree - j
        if a.dim(j) == 0 or b.dim(k) == 0:
            continue
        alphas = spectrum_multiset(a, j, tol)
        betas = spectrum_multiset(b, k, tol)
        rhs.extend(alpha + beta for alpha in alphas for beta in betas)
    rhs.sort()
    if len(lhs) != len(rhs):
        return SpectrumMatchReport(degree, tuple(lhs), tuple(rhs), float("inf"), False)
    max_gap = max((abs(x - y) for x, y in zip(lhs, rhs)), default=0.0)
    return SpectrumMatchReport(degree, tuple(lhs), tuple(rhs), max_gap, max_gap <= MATCH_GAP)

