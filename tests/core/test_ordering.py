"""Tests for repro.core.ordering."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import LinearOrder, order_by_values
from repro.errors import InvalidParameterError


def test_permutation_and_ranks_are_inverse():
    order = LinearOrder([2, 0, 1])
    assert list(order.permutation) == [2, 0, 1]
    assert list(order.ranks) == [1, 2, 0]
    assert order.item_at(0) == 2
    assert order.rank_of(2) == 0


def test_from_ranks():
    order = LinearOrder.from_ranks([1, 2, 0])
    assert list(order.permutation) == [2, 0, 1]


def test_identity():
    order = LinearOrder.identity(4)
    assert list(order.permutation) == [0, 1, 2, 3]


def test_empty_order():
    order = LinearOrder([])
    assert order.n == 0
    assert len(order) == 0


def test_invalid_permutations_rejected():
    with pytest.raises(InvalidParameterError):
        LinearOrder([0, 0, 1])
    with pytest.raises(InvalidParameterError):
        LinearOrder([0, 3])
    with pytest.raises(InvalidParameterError):
        LinearOrder([[0, 1]])
    with pytest.raises(InvalidParameterError):
        LinearOrder([-1, 0])


def test_invalid_ranks_rejected():
    with pytest.raises(InvalidParameterError):
        LinearOrder.from_ranks([0, 0])
    with pytest.raises(InvalidParameterError):
        LinearOrder.from_ranks([0, 5])
    with pytest.raises(InvalidParameterError):
        LinearOrder.from_ranks(np.zeros((2, 2)))


def test_arrays_are_readonly():
    order = LinearOrder([1, 0])
    with pytest.raises(ValueError):
        order.permutation[0] = 5
    with pytest.raises(ValueError):
        order.ranks[0] = 5


def test_reversed():
    order = LinearOrder([0, 1, 2])
    assert list(order.reversed().permutation) == [2, 1, 0]
    assert order.reversed().reversed() == order


def test_equality_and_hash():
    assert LinearOrder([1, 0]) == LinearOrder([1, 0])
    assert LinearOrder([1, 0]) != LinearOrder([0, 1])
    assert hash(LinearOrder([1, 0])) == hash(LinearOrder([1, 0]))
    assert LinearOrder([1, 0]) != "something"


def test_footrule_distance():
    a = LinearOrder([0, 1, 2, 3])
    b = LinearOrder([3, 2, 1, 0])
    assert a.footrule_distance(a) == 0
    assert a.footrule_distance(b) == 3 + 1 + 1 + 3
    with pytest.raises(InvalidParameterError):
        a.footrule_distance(LinearOrder([0, 1]))


def test_displacement():
    a = LinearOrder([0, 1, 2])
    b = LinearOrder([2, 1, 0])
    assert list(a.displacement(b)) == [2, 0, -2]


def test_agrees_up_to_reversal():
    a = LinearOrder([0, 1, 2])
    assert a.agrees_up_to_reversal(LinearOrder([2, 1, 0]))
    assert a.agrees_up_to_reversal(a)
    assert not a.agrees_up_to_reversal(LinearOrder([1, 0, 2]))


def test_repr_small_and_large():
    assert "LinearOrder([1, 0])" == repr(LinearOrder([1, 0]))
    big = LinearOrder(np.arange(100))
    assert "n=100" in repr(big)


# ----------------------------------------------------------------------
# order_by_values
# ----------------------------------------------------------------------
def test_order_by_values_sorts_ascending():
    order = order_by_values([0.3, 0.1, 0.2])
    assert list(order.permutation) == [1, 2, 0]


def test_order_by_values_ties_break_by_index():
    order = order_by_values([0.5, 0.5, 0.1])
    assert list(order.permutation) == [2, 0, 1]


def test_order_by_values_validation():
    with pytest.raises(InvalidParameterError):
        order_by_values(np.zeros((2, 2)))


@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_order_by_values_is_sorted_property(values):
    order = order_by_values(values)
    sorted_values = [values[i] for i in order.permutation]
    assert sorted_values == sorted(values)


@given(perm=st.permutations(list(range(8))))
def test_roundtrip_property(perm):
    order = LinearOrder(perm)
    assert LinearOrder.from_ranks(order.ranks) == order
    for rank, item in enumerate(perm):
        assert order.rank_of(item) == rank
