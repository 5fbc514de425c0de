import json
from collections import Counter

import numpy as np
import pytest

from hcspec import cli, complexes, tensorprod
from hcspec.complexes import FiniteComplex, random_complex, validate
from hcspec.numerics import SizeOverflowError, kronecker, max_abs
from hcspec.tensorprod import (
    kuenneth_check,
    product_laplacian_blocks,
    tensor_complex,
    verify_product_spectrum,
)


def chain():
    return FiniteComplex(0, (1, 1), {0: [[1.0]]})


def test_chain_squared_matches_hand_computation():
    product, index = tensor_complex(chain(), chain())
    assert product.dims == (1, 2, 1)
    # degree-1 blocks in ascending j: (0,1) then (1,0)
    assert [(slot.j, slot.k) for slot in index[1].blocks] == [(0, 1), (1, 0)]
    assert np.allclose(product.differential(0).real.ravel(), [1.0, 1.0])
    assert np.allclose(product.differential(1).real.ravel(), [1.0, -1.0])
    assert validate(product).passed


def test_sign_rule_is_load_bearing():
    # Rebuilding the product differentials without the degree sign must break
    # the cochain condition.
    a = b = chain()
    d0 = np.vstack([kronecker(np.eye(1), b.differential(0)), kronecker(a.differential(0), np.eye(1))])
    d1_unsigned = np.hstack(
        [kronecker(a.differential(0), np.eye(1)), kronecker(np.eye(1), b.differential(0))]
    )
    mutated = FiniteComplex(0, (1, 2, 1), {0: d0, 1: d1_unsigned})
    assert not validate(mutated).passed


def test_unit_complex_is_identity_for_the_product():
    unit = FiniteComplex(0, (1,))
    a = random_complex([2, 3, 2], seed=4)
    product, _ = tensor_complex(a, unit)
    assert product.dims == a.dims
    for degree in a.degrees:
        assert np.allclose(product.differential(degree), a.differential(degree))


def test_zero_complex_annihilates():
    zero = FiniteComplex(0, (0,))
    a = random_complex([2, 2], seed=9)
    product, _ = tensor_complex(a, zero)
    assert all(d == 0 for d in product.dims)


def test_support_of_product_is_sumset():
    a = random_complex([2, 0, 3], seed=1)
    b = random_complex([1, 2], seed=2)
    product, _ = tensor_complex(a, b)
    want = {j + k for j in a.support() for k in b.support()}
    assert product.support() == want


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
    product, index = tensor_complex(a, b)
    for degree in product.degrees:
        blocks = product_laplacian_blocks(a, b, degree)
        n = product.dim(degree)
        assembled = np.zeros((n, n), dtype=complex)
        for slot in index[degree].blocks:
            block = blocks[(slot.j, slot.k)]
            assembled[
                slot.offset : slot.offset + slot.size,
                slot.offset : slot.offset + slot.size,
            ] = block
        assert max_abs(assembled - laplacian(product, degree)) <= 1e-8


def test_kuenneth_examples():
    def check(a, b):
        return kuenneth_check(a, b, tensor_complex(a, b)[0])

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
        assert kuenneth_check(a, b, tensor_complex(a, b)[0]).passed


def test_verify_product_spectrum_chain():
    match = verify_product_spectrum(chain(), chain(), tensor_complex(chain(), chain())[0], 1)
    assert match.passed and match.max_gap <= 1e-12
    assert list(match.product_eigenvalues) == [2.0, 2.0]


def test_verify_product_spectrum_outside_support():
    match = verify_product_spectrum(chain(), chain(), tensor_complex(chain(), chain())[0], 7)
    assert match.passed
    assert match.product_eigenvalues == () and match.summed_eigenvalues == ()


def test_verify_product_spectrum_random_pairs():
    for seed in range(5):
        a = random_complex([3, 2], seed=seed)
        b = random_complex([2, 3, 1], seed=seed + 100)
        product, _ = tensor_complex(a, b)
        for degree in product.degrees:
            match = verify_product_spectrum(a, b, product, degree)
            assert match.passed, (seed, degree, match.max_gap)


def test_size_overflow_guard():
    big = FiniteComplex(0, (70, 70), {0: np.eye(70)})
    with pytest.raises(SizeOverflowError):
        tensor_complex(big, big)


def test_shifted_degree_windows():
    a = random_complex([2, 3], seed=1, lo=-1)
    b = random_complex([2, 2], seed=2, lo=2)
    product, _ = tensor_complex(a, b)
    assert (product.lo, product.hi) == (1, 3)
    assert validate(product).passed
    assert kuenneth_check(a, b, product).passed
    for degree in product.degrees:
        assert verify_product_spectrum(a, b, product, degree).passed


def test_tensor_command_builds_once_and_ranks_once(tmp_path, monkeypatch, capsys):
    ranked = []
    builds = []
    rank, build = complexes.numeric_rank, tensorprod.tensor_complex

    def counting_rank(a, tol):
        ranked.append(np.asarray(a))
        return rank(a, tol)

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(complexes, "numeric_rank", counting_rank)
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
