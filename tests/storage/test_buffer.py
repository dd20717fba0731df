"""Tests for repro.storage.buffer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.storage import LRUBufferPool, replay_query_stream


def test_cold_misses_then_hits():
    pool = LRUBufferPool(capacity=2)
    assert pool.access(1) is False
    assert pool.access(1) is True
    assert pool.access(2) is False
    assert pool.access(2) is True
    stats = pool.stats()
    assert stats.accesses == 4
    assert stats.hits == 2
    assert stats.misses == 2
    assert stats.evictions == 0
    assert stats.hit_rate == 0.5


def test_lru_eviction_order():
    pool = LRUBufferPool(capacity=2)
    pool.access(1)
    pool.access(2)
    pool.access(3)          # evicts 1 (least recently used)
    assert pool.contains(2) and pool.contains(3)
    assert not pool.contains(1)
    assert pool.stats().evictions == 1


def test_touch_refreshes_recency():
    pool = LRUBufferPool(capacity=2)
    pool.access(1)
    pool.access(2)
    pool.access(1)          # 1 becomes most recent
    pool.access(3)          # evicts 2, not 1
    assert pool.contains(1)
    assert not pool.contains(2)


def test_contains_does_not_touch():
    pool = LRUBufferPool(capacity=2)
    pool.access(1)
    pool.access(2)
    pool.contains(1)        # must NOT refresh 1
    pool.access(3)          # evicts 1
    assert not pool.contains(1)


def test_access_many_counts_hits():
    pool = LRUBufferPool(capacity=4)
    assert pool.access_many([1, 2, 1, 2]) == 2


def test_reset():
    pool = LRUBufferPool(capacity=2)
    pool.access(1)
    pool.reset()
    assert pool.resident == 0
    assert pool.stats().accesses == 0


def test_capacity_validation():
    with pytest.raises(InvalidParameterError):
        LRUBufferPool(0)


def test_empty_stats_hit_rate():
    assert LRUBufferPool(1).stats().hit_rate == 0.0


def test_replay_query_stream():
    stats = replay_query_stream(2, [[1, 2], [1, 2], [3], [1]])
    # [1,2] cold; [1,2] both hit; [3] evicts 1; [1] misses.
    assert stats.hits == 2
    assert stats.misses == 4


def test_access_many_matches_single_accesses():
    """A batch is the same LRU walk as one access() per page: same
    hits, misses, evictions and final residency, repeats included."""
    rng = np.random.default_rng(2024)
    batched = LRUBufferPool(capacity=6)
    single = LRUBufferPool(capacity=6)
    for _ in range(300):
        pages = rng.integers(0, 14, size=int(rng.integers(0, 12)))
        expected = sum(single.access(int(p)) for p in pages)
        assert batched.access_many(pages) == expected
        assert batched.stats() == single.stats()
    assert [p for p in range(14) if batched.contains(p)] == \
        [p for p in range(14) if single.contains(p)]
    # Recency order too: the next evictions hit the same pages.
    for page in range(100, 106):
        batched.access(page)
        single.access(page)
        assert [p for p in range(14) if batched.contains(p)] == \
            [p for p in range(14) if single.contains(p)]


@pytest.mark.parametrize("make", [
    list, tuple, iter, np.array,
    lambda pages: (int(p) for p in pages),
    lambda pages: range(pages[0], pages[-1] + 1),
])
def test_access_many_accepts_any_iterable(make):
    pool = LRUBufferPool(capacity=4)
    assert pool.access_many(make([3, 4, 5])) == 0
    assert pool.access_many(make([3, 4, 5])) == 3
    assert pool.stats().accesses == 6


@given(capacity=st.integers(1, 8),
       batches=st.lists(st.lists(st.integers(0, 11), max_size=20),
                        max_size=12))
def test_access_many_is_one_lru_step_per_page(capacity, batches):
    """Against access() page by page on a twin pool, and against the
    textbook LRU step on a list (least recent first): the same hits,
    stats and residency after every batch, with repeated pages and
    batches longer than the capacity."""
    batched = LRUBufferPool(capacity)
    single = LRUBufferPool(capacity)
    model = []
    evictions = 0
    for batch in batches:
        model_hits = 0
        for page in batch:
            if page in model:
                model.remove(page)
                model_hits += 1
            elif len(model) == capacity:
                model.pop(0)
                evictions += 1
            model.append(page)
        hits = batched.access_many(batch)
        assert hits == sum(single.access(page) for page in batch)
        assert hits == model_hits
        assert batched.stats() == single.stats()
        assert batched.stats().evictions == evictions
        resident = [batched.contains(page) for page in range(12)]
        assert resident == [single.contains(page) for page in range(12)]
        assert resident == [page in model for page in range(12)]
