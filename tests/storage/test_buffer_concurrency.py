"""Shared-state safety of the storage/caching counters under threads.

The serving front (``query_many(parallelism=...)``, the asyncio facade)
executes queries concurrently against shared stores, so the buffer
pool's accounting must obey its conservation law — ``hits + misses ==
accesses`` — under any interleaving, and the generic LRU cache behind
the service tiers (which always locks) must keep exact hit/miss
counters.  Before the locks landed, N threads hammering one pool
corrupted the recency ``OrderedDict`` and under/over-counted hits;
these tests are the regression net.
"""

import threading

import pytest

from repro.caching import LRUCache
from repro.errors import InvalidParameterError
from repro.storage.buffer import LRUBufferPool


def _run_threads(n, target):
    barrier = threading.Barrier(n)
    errors = []

    def wrapped(i):
        try:
            barrier.wait()
            target(i)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


THREADS = 8
ACCESSES_PER_THREAD = 2000


def test_buffer_pool_conserves_stats_under_threads():
    pool = LRUBufferPool(capacity=16)
    hits_seen = [0] * THREADS

    def hammer(i):
        # Overlapping, per-thread-skewed page ranges: plenty of both
        # hits and capacity evictions.
        count = 0
        for j in range(ACCESSES_PER_THREAD):
            page = (i * 7 + j) % 64
            if pool.access(page):
                count += 1
        hits_seen[i] = count

    _run_threads(THREADS, hammer)

    stats = pool.stats()
    total = THREADS * ACCESSES_PER_THREAD
    assert stats.accesses == total
    assert stats.hits + stats.misses == stats.accesses
    # Every hit the callers observed is a hit the pool counted: the
    # access is atomic, so the two tallies cannot drift apart.
    assert stats.hits == sum(hits_seen)
    assert stats.evictions <= stats.misses
    assert pool.resident <= pool.capacity


def test_buffer_pool_access_many_conserves_under_threads():
    pool = LRUBufferPool(capacity=8)
    returned = [0] * THREADS

    def hammer(i):
        total = 0
        for j in range(200):
            total += pool.access_many(range(j % 16, j % 16 + 6))
        returned[i] = total

    _run_threads(THREADS, hammer)
    stats = pool.stats()
    assert stats.accesses == THREADS * 200 * 6
    assert stats.hits + stats.misses == stats.accesses
    assert stats.hits == sum(returned)


def test_buffer_pool_reset_and_contains_are_safe():
    pool = LRUBufferPool(capacity=4)
    pool.access_many([1, 2, 3])
    assert pool.contains(2)
    pool.reset()
    assert pool.stats().accesses == 0
    assert not pool.contains(2)


def test_lru_cache_lock_keeps_counters_exact_under_threads():
    cache: LRUCache[int, int] = LRUCache(32)
    gets_per_thread = 3000

    def hammer(i):
        for j in range(gets_per_thread):
            key = (i + j) % 48
            if cache.get(key) is None:
                cache.put(key, key)

    _run_threads(THREADS, hammer)
    assert cache.hits + cache.misses == THREADS * gets_per_thread
    assert len(cache) <= cache.capacity


def test_lru_cache_get_after_put_counts_a_hit():
    cache: LRUCache[str, int] = LRUCache(4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.hits == 1


def test_lru_cache_capacity_still_validated():
    with pytest.raises(InvalidParameterError):
        LRUCache(0)
