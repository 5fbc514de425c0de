"""Numerical tolerances and size caps.

Every module that reads them imports them from here: the dense layers, the
command line and the scenario parser.  This module imports no numpy, so the
exact commands can read the defaults without loading it.
"""

from __future__ import annotations

import math
import sys

from .records import FrozenRecord

# Kronecker sums and tensor products larger than this (rows or columns) are
# refused, and so is a parsed complex or a product whose differentials hold
# more than its square of entries in all.
KRONECKER_DIM_CAP = 4096

# Most degrees of a parsed complex.
DEGREE_CAP = 64

# Machine epsilon of float64, numpy's ``finfo(float64).eps``.
_EPS = sys.float_info.epsilon


class Tolerance(FrozenRecord):
    """Numerical tolerances used across the toolkit.

    Every value must be finite and strictly positive: a NaN would fail no
    comparison and so disable every gate.  No tolerance moves the rank
    cutoff, ``numerics.rank_cutoff``.
    """

    __slots__ = ("eigen_residual", "identity_check")

    def __init__(self, eigen_residual: float = 1e-9, identity_check: float = 1e-8) -> None:
        for name, value in zip(self.__slots__, (eigen_residual, identity_check)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
            object.__setattr__(self, name, value)


DEFAULT_TOL = Tolerance()
