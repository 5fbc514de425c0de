"""Derivation oracle for the Gaussian-weighted Cauchy-Riemann Laplacians.

For the weighted complex on the plane with weight ``exp(-|z|^2)``, conjugation
by ``exp(-|z|^2 / 2)`` turns the weighted Cauchy-Riemann operator into
``a = (a_x + i a_y) / sqrt(2)`` where ``a_x, a_y`` are the standard harmonic
oscillator lowering operators, so the function-level Laplacian is ``a* a`` and
the form-level one is ``a a*``.  Truncating ``a_x`` and ``a_y`` at a finite
level gives matrix models that are exact on the subspace of bounded total
oscillator number: lowering never leaves the truncation, so the restricted
matrices have the true eigenvalues.  That truncation is a two-term
:class:`FiniteComplex`, and its Laplacian spectra at degrees 0 and 1 are read
by the dense engine.

The catalogue entry for this factor freezes the spectra derived here: a unit
ladder starting at 0 on functions and at 1 on forms, every level of infinite
multiplicity, the latter witnessed by level counts that grow without bound as
the truncation grows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .complexes import FiniteComplex, spectrum_multiset
from .numerics import kronecker_sum


def lowering_matrix(levels: int) -> np.ndarray:
    """Oscillator lowering operator truncated to ``levels + 1`` states."""
    a = np.zeros((levels + 1, levels + 1))
    for n in range(1, levels + 1):
        a[n - 1, n] = np.sqrt(n)
    return a


def truncated_line(truncation: int) -> FiniteComplex:
    """The two-term complex whose ``d`` is the plane lowering operator ``a``,
    from total oscillator number ``<= truncation`` to ``<= truncation - 1``."""
    a = lowering_matrix(truncation) / np.sqrt(2.0)
    total = np.add.outer(np.arange(truncation + 1), np.arange(truncation + 1)).ravel()
    d = kronecker_sum(a, 1j * a)[np.ix_(total < truncation, total <= truncation)]
    return FiniteComplex(0, d.shape[::-1], {0: d})


class LadderSpectrum(NamedTuple):
    """Eigenvalues of one truncated weighted Laplacian, grouped by level."""

    truncation: int
    eigenvalues: tuple[float, ...]
    level_counts: dict[int, int]


def _group_levels(eigenvalues: list[float]) -> dict[int, int]:
    """Eigenvalue counts per integer level; each eigenvalue must lie within
    1e-8 of its level."""
    counts: dict[int, int] = {}
    for value in eigenvalues:
        level = round(value)
        if not abs(value - level) <= 1e-8:
            raise ArithmeticError(f"eigenvalue {value!r} is not within 1e-08 of an integer level")
        counts[level] = counts.get(level, 0) + 1
    return counts


def function_laplacian_spectrum(truncation: int) -> LadderSpectrum:
    """Spectrum of ``a* a`` restricted to total oscillator number <= truncation."""
    values = spectrum_multiset(truncated_line(truncation), 0)
    return LadderSpectrum(truncation, tuple(values), _group_levels(values))


def form_laplacian_spectrum(truncation: int) -> LadderSpectrum:
    """Spectrum of ``a a*`` restricted to total oscillator number <= truncation - 1."""
    values = spectrum_multiset(truncated_line(truncation), 1)
    return LadderSpectrum(truncation, tuple(values), _group_levels(values))


def derive_catalogue_values(truncation: int = 8) -> dict[str, object]:
    """Re-derive the frozen catalogue values and report the evidence.

    The multiplicity of every level increases with the truncation, which is
    the finite-matrix witness of infinite multiplicity on the full space.
    """
    small = function_laplacian_spectrum(truncation - 2)
    large = function_laplacian_spectrum(truncation)
    forms = form_laplacian_spectrum(truncation)
    growing = all(
        large.level_counts[level] > small.level_counts[level]
        for level in small.level_counts
    )
    return {
        "function_levels": sorted(large.level_counts),
        "form_levels": sorted(forms.level_counts),
        "function_base": min(large.level_counts),
        "form_base": min(forms.level_counts),
        "step": 1,
        "multiplicities_grow_with_truncation": growing,
    }
