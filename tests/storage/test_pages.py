"""Tests for repro.storage.pages."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import LinearOrder
from repro.errors import InvalidParameterError
from repro.storage import PageLayout


def test_page_of_follows_ranks():
    order = LinearOrder([3, 1, 0, 2])  # ranks: item0->2,1->1,2->3,3->0
    layout = PageLayout(order, page_size=2)
    assert list(layout.page_of) == [1, 0, 1, 0]
    assert layout.num_pages == 2
    assert layout.num_items == 4
    assert layout.page_size == 2


def test_last_page_may_be_partial():
    layout = PageLayout(LinearOrder.identity(5), page_size=2)
    assert layout.num_pages == 3
    assert list(layout.items_on_page(2)) == [4]


def test_items_on_page_partition():
    order = LinearOrder(np.random.default_rng(0).permutation(20))
    layout = PageLayout(order, page_size=4)
    seen = []
    for page in range(layout.num_pages):
        seen.extend(int(v) for v in layout.items_on_page(page))
    assert sorted(seen) == list(range(20))


def test_items_on_page_in_rank_order():
    order = LinearOrder([2, 0, 3, 1])
    layout = PageLayout(order, page_size=2)
    assert list(layout.items_on_page(0)) == [2, 0]
    assert list(layout.items_on_page(1)) == [3, 1]


def test_items_on_page_validation():
    layout = PageLayout(LinearOrder.identity(4), page_size=2)
    with pytest.raises(InvalidParameterError):
        layout.items_on_page(2)
    with pytest.raises(InvalidParameterError):
        PageLayout(LinearOrder.identity(4), page_size=0)


def test_pages_for_items_sorted_unique():
    layout = PageLayout(LinearOrder.identity(12), page_size=3)
    pages = layout.pages_for_items([0, 1, 2, 5, 11, 11])
    assert list(pages) == [0, 1, 3]
    assert list(layout.pages_for_items([])) == []


def test_page_run_lengths():
    layout = PageLayout(LinearOrder.identity(20), page_size=1)
    assert layout.page_run_lengths(np.array([0, 1, 2, 5, 6, 9])) == \
        [3, 2, 1]
    assert layout.page_run_lengths(np.array([])) == []
    assert layout.page_run_lengths(np.array([4])) == [1]


def test_empty_layout():
    layout = PageLayout(LinearOrder([]), page_size=4)
    assert layout.num_pages == 0
    assert layout.num_items == 0


def test_repr():
    layout = PageLayout(LinearOrder.identity(10), page_size=4)
    assert "pages=3" in repr(layout)


@given(page_size=st.integers(1, 8), data=st.data())
def test_pages_for_items_match_unique_page_ids(page_size, data):
    """The page bitmap returns exactly ``np.unique(page_of[items])``:
    values and dtype, with repeated items and the empty list."""
    n = data.draw(st.integers(0, 60))
    layout = PageLayout(LinearOrder(data.draw(st.permutations(range(n)))),
                        page_size)
    items = (data.draw(st.lists(st.integers(0, n - 1), max_size=40))
             if n else [])
    got = layout.pages_for_items(items)
    want = np.unique(layout.page_of[np.asarray(items, dtype=np.int64)])
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
