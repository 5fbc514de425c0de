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

    ``rank_threshold`` is an explicit override for the singular-value cutoff;
    when ``None`` the cutoff is ``dimension * eps * sigma_max``, the standard
    backward-stable convention.  Every given value must be finite and strictly
    positive: a NaN would fail no comparison and so disable every gate.
    """

    __slots__ = ("eigen_residual", "identity_check", "rank_threshold")

    def __init__(
        self, eigen_residual: float = 1e-9, identity_check: float = 1e-8, rank_threshold: float | None = None
    ) -> None:
        for name, value in zip(self.__slots__, (eigen_residual, identity_check, rank_threshold)):
            if not ((value is None and name == "rank_threshold") or (math.isfinite(value) and value > 0)):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
            object.__setattr__(self, name, value)

    def rank_cutoff(self, dimension: int, sigma_max: float) -> float:
        if self.rank_threshold is not None:
            return self.rank_threshold
        return max(dimension, 1) * _EPS * sigma_max


DEFAULT_TOL = Tolerance()
