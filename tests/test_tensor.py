import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from hcspec import cli, complexes, tensorprod
from hcspec.complexes import (
    BlockSlot,
    FiniteComplex,
    ProductBlockIndex,
    ShapeMismatchError,
    random_complex,
    validate,
)
from hcspec.numerics import MATCH_GAP, NonFiniteError, SizeOverflowError, max_abs, rank_cutoff
from hcspec.tensorprod import (
    block_structure_check,
    kuenneth_check,
    product_laplacian_blocks,
    tensor_complex,
    verify_product_spectrum,
)


def chain():
    return FiniteComplex(0, (1, 1), {0: [[1.0]]})


def test_chain_squared_matches_hand_computation():
    product = tensor_complex(chain(), chain())
    assert product.dims == (1, 2, 1)
    # degree-1 blocks in ascending j: (0,1) then (1,0)
    assert [(slot.j, slot.k) for slot in product.layout[1].blocks] == [(0, 1), (1, 0)]
    assert np.allclose(product.differential(0).real.ravel(), [1.0, 1.0])
    assert np.allclose(product.differential(1).real.ravel(), [1.0, -1.0])
    assert validate(product).passed


def test_sign_rule_is_load_bearing():
    # Rebuilding the product differentials without the degree sign must break
    # the cochain condition.
    a = b = chain()
    d0 = np.vstack([np.kron(np.eye(1), b.differential(0)), np.kron(a.differential(0), np.eye(1))])
    d1_unsigned = np.hstack(
        [np.kron(a.differential(0), np.eye(1)), np.kron(np.eye(1), b.differential(0))]
    )
    mutated = FiniteComplex(0, (1, 2, 1), {0: d0, 1: d1_unsigned})
    assert not validate(mutated).passed


def test_unit_complex_is_identity_for_the_product():
    unit = FiniteComplex(0, (1,))
    a = random_complex([2, 3, 2], seed=4)
    product = tensor_complex(a, unit)
    assert product.dims == a.dims
    for degree in a.degrees:
        assert np.allclose(product.differential(degree), a.differential(degree))


def test_zero_complex_annihilates():
    zero = FiniteComplex(0, (0,))
    a = random_complex([2, 2], seed=9)
    product = tensor_complex(a, zero)
    assert all(d == 0 for d in product.dims)


def test_support_of_product_is_sumset():
    a = random_complex([2, 0, 3], seed=1)
    b = random_complex([1, 2], seed=2)
    product = tensor_complex(a, b)

    def support(c):
        return {d for d in c.degrees if c.dim(d) > 0}

    assert support(product) == {j + k for j in support(a) for k in support(b)}


def test_product_laplacian_blocks_chain():
    blocks = product_laplacian_blocks(chain(), chain(), 1)
    assert set(blocks) == {(0, 1), (1, 0)}
    assert np.allclose(blocks[(0, 1)], [[2.0]])
    assert np.allclose(blocks[(1, 0)], [[2.0]])


def test_product_laplacian_blocks_zero_differentials():
    a = FiniteComplex(0, (2, 2))
    blocks = product_laplacian_blocks(a, a, 1)
    assert all(max_abs(m) == 0.0 for m in blocks.values())


def test_block_assembly_matches_direct_laplacian():
    from hcspec.complexes import laplacian

    a = random_complex([2, 3], seed=3)
    b = random_complex([3, 2], seed=5)
    product = tensor_complex(a, b)
    for degree in product.degrees:
        blocks = product_laplacian_blocks(a, b, degree)
        n = product.dim(degree)
        assembled = np.zeros((n, n), dtype=complex)
        for slot in product.layout[degree].blocks:
            block = blocks[(slot.j, slot.k)]
            assembled[
                slot.offset : slot.offset + slot.size,
                slot.offset : slot.offset + slot.size,
            ] = block
        assert max_abs(assembled - laplacian(product, degree)) <= 1e-8


def test_kuenneth_examples():
    def check(a, b):
        return kuenneth_check(a, b, tensor_complex(a, b))

    point = FiniteComplex(0, (1,))
    report = check(point, point)
    assert report.pairs[0] == (1, 1) and report.passed

    report = check(chain(), chain())
    assert all(pair == (0, 0) for pair in report.pairs.values())

    two = FiniteComplex(0, (2,))
    three = FiniteComplex(0, (3,))
    report = check(two, three)
    assert report.pairs[0] == (6, 6)


def test_kuenneth_on_random_pairs():
    for seed in range(4):
        a = random_complex([2, 3, 1], seed=seed)
        b = random_complex([1, 2], seed=seed + 10)
        assert kuenneth_check(a, b, tensor_complex(a, b)).passed


def test_verify_product_spectrum_chain():
    match = verify_product_spectrum(chain(), chain(), tensor_complex(chain(), chain()), 1)
    assert match.passed and match.max_gap <= 1e-12
    assert list(match.product_eigenvalues) == [2.0, 2.0]


def test_verify_product_spectrum_outside_support():
    match = verify_product_spectrum(chain(), chain(), tensor_complex(chain(), chain()), 7)
    assert match.passed
    assert match.product_eigenvalues == () and match.summed_eigenvalues == ()


def test_verify_product_spectrum_of_an_unrelated_product():
    # a product of other factors: one eigenvalue at degree 1 against the two
    # sums of the chain's, so the gap is infinite
    product = tensor_complex(chain(), FiniteComplex(0, (1,)))
    match = verify_product_spectrum(chain(), chain(), product, 1)
    assert match.max_gap == math.inf and not match.passed
    assert len(match.product_eigenvalues) == 1 and match.summed_eigenvalues == (2.0, 2.0)


def test_verify_product_spectrum_random_pairs():
    for seed in range(5):
        a = random_complex([3, 2], seed=seed)
        b = random_complex([2, 3, 1], seed=seed + 100)
        product = tensor_complex(a, b)
        for degree in product.degrees:
            match = verify_product_spectrum(a, b, product, degree)
            assert match.passed, (seed, degree, match.max_gap)


def test_size_overflow_guard():
    big = FiniteComplex(0, (70, 70), {0: np.eye(70)})
    with pytest.raises(SizeOverflowError):
        tensor_complex(big, big)


def test_product_differentials_are_capped_in_all():
    # product dims (4, 8, 12, 8, 4): every degree within 15, but the
    # differentials hold 32 + 96 + 96 + 32 = 256 entries
    a = random_complex([2, 2, 2], seed=1)
    with pytest.raises(SizeOverflowError, match="256 entries exceed the cap 15"):
        tensor_complex(a, a, dim_cap=15)
    assert tensor_complex(a, a, dim_cap=16).dims == (4, 8, 12, 8, 4)


def test_shifted_degree_windows():
    a = random_complex([2, 3], seed=1, lo=-1)
    b = random_complex([2, 2], seed=2, lo=2)
    product = tensor_complex(a, b)
    assert (product.lo, product.hi) == (1, 3)
    assert validate(product).passed
    assert kuenneth_check(a, b, product).passed
    for degree in product.degrees:
        assert verify_product_spectrum(a, b, product, degree).passed


def test_tensor_command_builds_once_and_ranks_once(tmp_path, monkeypatch, capsys):
    ranked = []
    builds = []
    factor, build = complexes.svd, tensorprod.tensor_complex

    def counting_svd(a, vectors=False):
        if not vectors:
            ranked.append(np.asarray(a))
        return factor(a, vectors)

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(complexes, "svd", counting_svd)
    monkeypatch.setattr(tensorprod, "tensor_complex", counting_build)
    payload = {
        "left": {"random": {"dims": [2, 3, 2], "seed": 1}},
        "right": {"random": {"dims": [2, 2, 1], "seed": 2}},
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"version": "1", "kind": "finite-pair", "payload": payload}))
    assert cli.main(["tensor", str(path)]) == 0
    capsys.readouterr()
    assert len(builds) == 1
    # no nonzero differential twice, and at most the differentials of degrees
    # lo - 1 .. hi of each factor (3 degrees) and of the product (5 degrees)
    nonempty = Counter((a.shape, a.tobytes()) for a in ranked if a.size)
    assert max(nonempty.values()) == 1
    assert len(ranked) <= 4 + 4 + 6


def _kron_product(a, b, signed=True):
    """The product of ``a`` and ``b`` assembled from ``np.kron`` pieces on the
    layout of :func:`tensor_complex`, with the sign ``(-1)^j`` on the
    ``I (x) d'_k`` pieces unless ``signed`` is false."""
    product = tensor_complex(a, b)
    layout = product.layout
    differentials = {}
    for i in range(product.lo, product.hi):
        matrix = np.zeros((product.dim(i + 1), product.dim(i)), dtype=complex)
        for block in layout[i].blocks:
            j, k = block.j, block.k
            cols = slice(block.offset, block.offset + block.size)
            if a.dim(j + 1):
                rows = layout[i + 1].span(j + 1, j + 1)
                matrix[rows, cols] = np.kron(a.differential(j), np.eye(b.dim(k)))
            if b.dim(k + 1):
                sign = -1.0 if signed and j % 2 else 1.0
                rows = layout[i + 1].span(j, j)
                matrix[rows, cols] = sign * np.kron(np.eye(a.dim(j)), b.differential(k))
        differentials[i] = matrix
    return FiniteComplex(product.lo, product.dims, differentials, layout)


# (dims, lo) of each factor: one-block end degrees (all pairs), a factor of
# one degree (every product degree one block), zero-dimension degrees whose
# blocks the layout leaves out, shifted windows, and three-block degrees
_PAIRS = [
    (([2, 3], 0), ([3, 2], 0)),
    (([2, 0, 3], 0), ([1, 2], 0)),
    (([3, 4, 2], -1), ([2, 0, 3, 1], 2)),
    (([1], 0), ([4, 3, 2], 0)),
    (([5, 6, 3], 0), ([4, 5, 2], 0)),
]


def _pair(index):
    (dims_a, lo_a), (dims_b, lo_b) = _PAIRS[index]
    a = random_complex(dims_a, seed=index, lo=lo_a)
    return a, random_complex(dims_b, seed=index + 50, lo=lo_b)


def _eig_sizes(monkeypatch):
    """The sizes of the matrices that ``complexes`` hands to
    ``hermitian_eig`` from now on, in call order."""
    sizes = []
    eig = complexes.hermitian_eig

    def recording(matrix, *args, **kwargs):
        sizes.append(len(matrix))
        return eig(matrix, *args, **kwargs)

    monkeypatch.setattr(complexes, "hermitian_eig", recording)
    return sizes


@pytest.mark.parametrize("index", range(len(_PAIRS)))
def test_tensor_build_equals_the_kron_build(index):
    a, b = _pair(index)
    product = tensor_complex(a, b)
    want = _kron_product(a, b)
    for degree in range(product.lo, product.hi):
        got = product.differential(degree)
        assert got.dtype == np.complex128 and np.array_equal(got, want.differential(degree))


@pytest.mark.parametrize("index", range(len(_PAIRS)))
def test_block_eigenvalues_match_the_whole_laplacian(index):
    a, b = _pair(index)
    product = tensor_complex(a, b)
    for degree in product.degrees:
        got = np.array(complexes.spectrum_multiset(product, degree))
        whole = np.clip(np.linalg.eigvalsh(complexes.laplacian(product, degree)), 0.0, None)
        assert got.shape == whole.shape
        assert np.max(np.abs(got - whole), initial=0.0) <= MATCH_GAP
        cutoff = rank_cutoff(whole.size, whole[-1] if whole.size else 0.0)
        assert complexes.cohomology_dim(product, degree) == np.count_nonzero(whole <= cutoff)
        assert complexes.off_block_residual(product, degree) <= 1e-12


def test_no_eigendecomposition_of_a_product_exceeds_its_largest_block(monkeypatch):
    a, b = _pair(4)
    product = tensor_complex(a, b)
    sizes = _eig_sizes(monkeypatch)
    for degree in product.degrees:
        complexes.spectrum_multiset(product, degree)
    largest = max(block.size for index in product.layout.values() for block in index.blocks)
    assert max(sizes) == largest < max(product.dims)
    assert len(sizes) == sum(len(index.blocks) for index in product.layout.values())


def test_a_complex_without_layout_takes_the_whole_laplacian(monkeypatch):
    a, b = _pair(4)
    product = tensor_complex(a, b)
    blockwise = [complexes.spectrum_multiset(product, degree) for degree in product.degrees]
    plain = FiniteComplex(product.lo, product.dims, product.differentials)
    assert plain.layout is None
    sizes = _eig_sizes(monkeypatch)
    for degree, want in zip(plain.degrees, blockwise):
        got = complexes.spectrum_multiset(plain, degree)
        assert np.max(np.abs(np.subtract(got, want))) <= MATCH_GAP
        assert complexes.off_block_residual(plain, degree) == 0.0
    assert sizes == list(product.dims)


def test_block_structure_holds_and_the_sign_mutant_fails_it():
    a, b = _pair(4)
    product = tensor_complex(a, b)
    report = block_structure_check(a, b, product)
    assert report.passed and set(report.residuals) == {
        (degree, kind) for degree in product.degrees for kind in ("off-block", "diagonal")
    }
    mutant = _kron_product(a, b, signed=False)
    report = block_structure_check(a, b, mutant)
    assert not report.passed
    # the diagonal blocks do not see the sign; the cross terms do
    assert all(report.residuals[(d, "diagonal")] <= 1e-8 for d in mutant.degrees)
    assert max(report.residuals[(d, "off-block")] for d in mutant.degrees) > 1e-2
    for degree in mutant.degrees:
        residual = complexes.off_block_residual(mutant, degree)
        assert residual == pytest.approx(report.residuals[(degree, "off-block")], abs=1e-10)


def test_an_off_block_residual_sends_the_spectrum_down_the_whole_path(monkeypatch):
    a, b = _pair(4)
    mutant = _kron_product(a, b, signed=False)
    sizes = _eig_sizes(monkeypatch)
    for degree in mutant.degrees:
        whole = np.clip(np.linalg.eigvalsh(complexes.laplacian(mutant, degree)), 0.0, None)
        got = complexes.spectrum_multiset(mutant, degree)
        assert np.max(np.abs(got - whole)) <= MATCH_GAP
        if complexes.off_block_residual(mutant, degree) > 1e-8:
            assert sizes[-1] == mutant.dim(degree)


def test_an_overflowing_block_is_refused_without_a_warning():
    # each factor Laplacian, 1.44e308, is finite; their sum in the product
    # block overflows, and the eigen gate refuses it with no RuntimeWarning
    factor = FiniteComplex(0, (1, 1), {0: [[1.2e154]]})
    product = tensor_complex(factor, factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert complexes.off_block_residual(product, 1) == 0.0
        with pytest.raises(NonFiniteError):
            complexes.spectrum_multiset(product, 1)


def test_tensor_reports_the_off_block_residual_and_fails_the_sign_mutant(
    tmp_path, monkeypatch, capsys
):
    payload = {
        "left": {"random": {"dims": [2, 3, 2], "seed": 1}},
        "right": {"random": {"dims": [2, 2, 1], "seed": 2}},
    }
    path, out = tmp_path / "pair.json", tmp_path / "report.json"
    path.write_text(json.dumps({"version": "1", "kind": "finite-pair", "payload": payload}))
    assert cli.main(["tensor", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    residuals = report["results"]["off_block_residual"]
    assert report["pass"] and set(residuals) == {str(d) for d in range(5)}
    assert all(0.0 <= r <= 1e-8 for r in residuals.values())

    def unsigned(a, b, dim_cap):
        return _kron_product(a, b, signed=False)

    monkeypatch.setattr(tensorprod, "tensor_complex", unsigned)
    assert cli.main(["tensor", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["pass"]
    assert max(report["results"]["off_block_residual"].values()) > 1e-8
    capsys.readouterr()


def test_layout_is_checked_against_dims_and_differentials():
    a, b = _pair(4)
    product = tensor_complex(a, b)
    lo, dims, differentials, layout = product.lo, product.dims, product.differentials, product.layout
    FiniteComplex(lo, dims, differentials, layout)
    with pytest.raises(ShapeMismatchError, match="one block index per degree"):
        FiniteComplex(lo, dims, differentials, {d: layout[d] for d in list(layout)[1:]})
    shifted = dict(layout)
    first = layout[1].blocks[0]
    moved = BlockSlot(first.j, first.k, 1, first.size)
    shifted[1] = ProductBlockIndex(1, (moved, *layout[1].blocks[1:]))
    with pytest.raises(ShapeMismatchError, match="does not tile degree 1"):
        FiniteComplex(lo, dims, differentials, shifted)
    # a differential entry between blocks two apart
    stray = {d: np.array(m) for d, m in differentials.items()}
    stray[1][layout[2].span(2, 2).start, layout[1].span(0, 0).start] = 1.0
    with pytest.raises(ShapeMismatchError, match="leaves the blocks of its layout"):
        FiniteComplex(lo, dims, stray, layout)


def test_product_spectrum_pairing_fails_on_a_nan(monkeypatch):
    a, b = _pair(0)
    product = tensor_complex(a, b)
    spectrum = tensorprod.spectrum_multiset

    def poisoned(complex_, degree, tol):
        values = spectrum(complex_, degree, tol)
        return values[:-1] + [float("nan")] if complex_ is product and len(values) > 1 else values

    monkeypatch.setattr(tensorprod, "spectrum_multiset", poisoned)
    match = verify_product_spectrum(a, b, product, 1)
    assert math.isnan(match.max_gap) and not match.passed
