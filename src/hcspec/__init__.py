"""hcspec: spectral toolkit for finite Hilbert complexes and their products.

Layers, bottom up:

- :mod:`hcspec.numerics`: dense complex-matrix kernels (Hermitian eig,
  pseudo-inverse, Kronecker sums, projections, rank).
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

The names imported below are the public surface.
"""

from .complexes import (
    FiniteComplex,
    HodgeSplit,
    check_identities,
    cohomology_dim,
    hodge,
    laplacian,
    laplacian_inverse,
    off_block_residual,
    random_complex,
    solution_operator,
    spectrum_multiset,
    validate,
)
from .dbar import (
    CompactnessReport,
    DbarFactorModel,
    Verdict,
    builtin_models,
    neumann_compactness,
    riemann_surface_product_report,
)
from .errors import ToolkitError
from .jointspec import (
    CommutingPair,
    JointSpectrumPoints,
    check_pair,
    joint_spectrum,
    spectral_mapping,
    sum_operator_check,
    tensor_pair_spectrum,
)
from .numerics import (
    EigenDecomposition,
    Tolerance,
    hermitian_eig,
    numeric_rank,
    pseudo_inverse,
    range_projection,
)
from .spectra import (
    AP,
    EMPTY,
    INFINITE,
    OperatorSpectrum,
    Point,
    SpectralSet,
    enumerate_below,
    essential_part,
    is_subset,
    minkowski_oracle_check,
    minkowski_sum,
    normalize,
    union,
)
from .tensorprod import (
    ProductBlockIndex,
    block_structure_check,
    kuenneth_check,
    product_laplacian_blocks,
    tensor_complex,
    verify_product_spectrum,
)

__version__ = "0.1.0"
