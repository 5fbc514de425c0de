"""Regenerate the Gaussian catalogue spectra from the ladder oracle."""

from fractions import Fraction

import pytest

from hcspec.complexes import cohomology_dim
from hcspec.dbar import FORM_LADDER_BASE, FUNCTION_LADDER_BASE, LADDER_STEP, builtin_models
from hcspec.gaussian_oracle import (
    derive_catalogue_values,
    form_laplacian_spectrum,
    function_laplacian_spectrum,
    truncated_line,
)
from hcspec.spectra import AP, is_infinite
from hcspec.tensorprod import block_structure_check, kuenneth_check, tensor_complex, verify_product_spectrum


def test_function_levels_are_the_nonnegative_integers():
    spectrum = function_laplacian_spectrum(7)
    assert sorted(spectrum.level_counts) == list(range(8))


def test_form_levels_start_at_one():
    spectrum = form_laplacian_spectrum(7)
    assert sorted(spectrum.level_counts) == list(range(1, 8))


def test_level_multiplicities_grow_with_truncation():
    small = function_laplacian_spectrum(5)
    large = function_laplacian_spectrum(9)
    for level in small.level_counts:
        assert large.level_counts[level] > small.level_counts[level]
    # exact counts: level k appears once per total-number block n >= k
    for level, count in large.level_counts.items():
        assert count == 9 + 1 - level


def test_frozen_catalogue_values_match_oracle():
    derived = derive_catalogue_values(8)
    assert derived["function_base"] == FUNCTION_LADDER_BASE
    assert derived["form_base"] == FORM_LADDER_BASE
    assert derived["step"] == LADDER_STEP
    assert derived["multiplicities_grow_with_truncation"]


def test_catalogue_entry_consumes_oracle_values():
    model = builtin_models()["gaussian-weight-line"]
    functions = model.box_spectrum[(0, 0)]
    forms = model.box_spectrum[(0, 1)]
    assert functions.spectrum.atoms == (
        AP(Fraction(FUNCTION_LADDER_BASE), Fraction(LADDER_STEP), float("inf")),
    )
    assert forms.spectrum.atoms == (
        AP(Fraction(FORM_LADDER_BASE), Fraction(LADDER_STEP), float("inf")),
    )
    # every level carries infinite multiplicity, so the essential spectrum is
    # the whole ladder
    assert functions.essential == functions.spectrum
    assert is_infinite(model.bergman_dim)


@pytest.mark.parametrize("truncation", [3, 4])
def test_truncated_lines_tensor_in_the_dense_product_path(truncation):
    line = truncated_line(truncation)
    product = tensor_complex(line, line)
    for degree in product.degrees:
        assert verify_product_spectrum(line, line, product, degree).passed, degree
    assert kuenneth_check(line, line, product).passed
    assert block_structure_check(line, line, product).passed
    # one holomorphic level per total-number block: the finite witness of the
    # infinite Bergman spaces of the plane and of C^2
    assert cohomology_dim(line, 0) == truncation + 1
    assert cohomology_dim(product, 0) == (truncation + 1) ** 2
