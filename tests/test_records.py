"""The frozen records: what they kept of the dataclasses they were.

Records that check or derive a field subclass ``records.FrozenRecord``;
the others are ``typing.NamedTuple``.  Both keep the constructor, ``repr``
and refusal of assignment of the frozen dataclasses; a ``FrozenRecord`` is
equal only to a record of its own class, as a dataclass was.
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from hcspec.complexes import BlockSlot, FiniteComplex
from hcspec.dbar import CompactnessReport, Verdict, builtin_models
from hcspec.limits import Tolerance
from hcspec.spectra import AP, EMPTY, INFINITE, OperatorSpectrum, Point, SpectralSet


def test_fields_compare_and_hash_within_one_class():
    assert Point("1/2", 3) == Point(Fraction(1, 2), 3)
    assert hash(Point("1/2", 3)) == hash(Point(Fraction(1, 2), 3))
    assert len({Point(1), Point(1), Point(2), AP(1, 1)}) == 3
    assert Point(1) != Point(1, 2)
    assert Point(1) != (Fraction(1), 1)  # a record is no tuple
    assert AP(0, 1) != Point(0)
    assert OperatorSpectrum(SpectralSet.of(AP(0, 1, INFINITE))).essential == SpectralSet.of(AP(0, 1, INFINITE))


def test_repr_names_the_fields_in_order():
    assert repr(Point("1/2", 3)) == "Point(value=Fraction(1, 2), mult=3)"
    assert repr(AP(1, 2)) == "AP(base=Fraction(1, 1), step=Fraction(2, 1), mult=1)"
    assert repr(Tolerance()) == "Tolerance(eigen_residual=1e-09, identity_check=1e-08, rank_threshold=None)"
    assert repr(BlockSlot(0, 1, 2, 3)) == "BlockSlot(j=0, k=1, offset=2, size=3)"
    complex_ = FiniteComplex(0, (1,))
    assert repr(complex_) == "FiniteComplex(lo=0, dims=(1,), differentials={}, layout=None)"


def test_assignment_is_refused():
    point = Point(1)
    with pytest.raises(AttributeError, match="cannot assign to field 'mult'"):
        point.mult = 2
    with pytest.raises(AttributeError, match="cannot delete field 'value'"):
        del point.value
    with pytest.raises(AttributeError):
        BlockSlot(0, 1, 2, 3).size = 4
    assert point == Point(1)


def test_a_complex_is_equal_only_to_itself():
    left, right = FiniteComplex(0, (1, 1), {0: np.ones((1, 1))}), FiniteComplex(0, (1, 1), {0: np.ones((1, 1))})
    assert left == left and left != right
    assert len({left, right, left}) == 2


def test_constructors_check_as_before():
    with pytest.raises(ValueError, match="identity_check must be finite and strictly positive, got nan"):
        Tolerance(identity_check=float("nan"))
    with pytest.raises(ValueError, match="spectral values must be nonnegative"):
        Point(-1)
    with pytest.raises(ValueError, match="a non-compact verdict requires witnesses"):
        CompactnessReport(Verdict.NONCOMPACT, "rule", (), EMPTY)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_copies_rebuild_through_the_constructor(clone):
    model = builtin_models()["infinite-bergman-factor"]
    for record in (Point("1/2", INFINITE), AP(1, 2, 3), Tolerance(rank_threshold=1e-3), model):
        assert clone(record) == record
    complex_ = FiniteComplex(0, (2, 1), {0: np.ones((1, 2))})
    copied = clone(complex_)
    assert copied.dims == (2, 1) and np.array_equal(copied.differential(0), complex_.differential(0))
