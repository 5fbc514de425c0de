"""hcspec: spectral toolkit for finite Hilbert complexes and their products.

Layers, bottom up:

- :mod:`hcspec.limits`: tolerances and size caps, shared with the command
  line without numpy.
- :mod:`hcspec.numerics`: dense complex-matrix kernels (Hermitian eig,
  Kronecker sums, one SVD for rank, range projectors and pseudo-inverse).
- :mod:`hcspec.complexes`: finite Hilbert complexes (with an optional
  product block layout), Laplacians, Hodge splitting, solution operators,
  operator identities.
- :mod:`hcspec.tensorprod`: tensor products of complexes, the blockwise
  product Laplacian and its block structure check, Kuenneth counts,
  spectrum pairing checks.
- :mod:`hcspec.spectra`: exact symbolic spectral sets (points and arithmetic
  progressions over the rationals), Minkowski sums, essential parts and the
  product formula.
- :mod:`hcspec.jointspec`: joint spectra of commuting normal pairs and the
  sum-operator spectrum checks.
- :mod:`hcspec.dbar`: compactness of the inverse complex Laplacian on
  products of Hermitian factors or graded Hilbert complexes, the one
  verdict convention, and a built-in model catalogue.
- :mod:`hcspec.cli`: the ``hcspec`` command.

The names of ``_EXPORTS`` are the public surface.  Each loads its module on
first access (PEP 562), so ``import hcspec`` loads no layer and no numpy.
The exact layers (:mod:`hcspec.spectra`, :mod:`hcspec.dbar`) and the scenario
parser import numpy only where the enumeration oracle runs or a matrix is
read, so ``dbar``, ``dbar-n`` and ``symbolic`` without ``--oracle-cutoff``
run without it.
"""

from importlib import import_module

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "complexes": (
            "FiniteComplex",
            "HodgeSplit",
            "check_identities",
            "cohomology_dim",
            "hodge",
            "laplacian",
            "laplacian_inverse",
            "off_block_residual",
            "random_complex",
            "solution_operator",
            "spectrum_multiset",
            "validate",
        ),
        "dbar": (
            "CompactnessReport",
            "DbarFactorModel",
            "Verdict",
            "builtin_models",
            "neumann_compactness",
            "riemann_surface_product_report",
        ),
        "errors": ("ToolkitError",),
        "jointspec": (
            "CommutingPair",
            "JointSpectrumPoints",
            "check_pair",
            "joint_spectrum",
            "spectral_mapping",
            "sum_operator_check",
            "tensor_pair_spectrum",
        ),
        "limits": ("Tolerance",),
        "numerics": (
            "EigenDecomposition",
            "hermitian_eig",
            "pseudo_inverse",
            "svd",
        ),
        "spectra": (
            "AP",
            "EMPTY",
            "INFINITE",
            "OperatorSpectrum",
            "Point",
            "SpectralSet",
            "enumerate_below",
            "essential_part",
            "is_subset",
            "minkowski_oracle_check",
            "minkowski_sum",
            "normalize",
            "union",
        ),
        "tensorprod": (
            "ProductBlockIndex",
            "block_structure_check",
            "kuenneth_check",
            "product_laplacian_blocks",
            "tensor_complex",
            "verify_product_spectrum",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
