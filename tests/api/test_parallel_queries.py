"""The serving front under threads: ``query_many``, asyncio facade.

Contracts pinned here:

* ``query_many`` runs a batch on the caller's thread: a cold batch
  builds every view there (curves, non-cacheable and cacheable
  spectral mappings) and executes its queries there, in input order;
* threads sharing one index and calling ``query_many`` at once each
  get **bit-identical** results to a sequential run — for range, nn,
  and join queries, over grid and point-set domains, including
  per-query mapping overrides;
* N threads hammering one index pay **exactly** the right number of
  eigensolves (the index's single-flight views compose with the
  service's request coalescing), asserted against the process-wide
  ``solver_invocations`` counter — including for *non-cacheable*
  mappings the service cannot coalesce;
* buffer accounting stays conservation-exact when threads share one
  index, and a batch's per-query buffer hits match a sequential twin;
* ``AsyncSpectralIndex`` serves the same answers through an event loop,
  every call on one executor thread.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.api import (
    AsyncSpectralIndex,
    JoinQuery,
    NNQuery,
    PointSet,
    RangeQuery,
    SpectralConfig,
    SpectralIndex,
    make_mapping,
)
from repro.errors import DomainError, InvalidParameterError
from repro.geometry import Grid
from repro.linalg.backends import solver_invocations
from repro.query.engine import LinearStore, QueryExecution
from repro.query.join import JoinReport
from repro.service import OrderingService


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


def _run_batch_in_threads(index, batch, n=4):
    """``index.query_many(batch)`` from ``n`` threads at once."""
    results = [None] * n
    _run_threads(n, lambda i: results.__setitem__(
        i, index.query_many(batch)))
    return results


def _assert_identical(sequential, parallel):
    assert len(sequential) == len(parallel)
    for a, b in zip(sequential, parallel):
        assert type(a) is type(b)
        if isinstance(a, QueryExecution):
            assert np.array_equal(a.results, b.results)
            assert a.plan == b.plan
            assert a.index_node_accesses == b.index_node_accesses
            assert a.pages_fetched == b.pages_fetched
            assert a.seeks == b.seeks
            assert a.buffer_hits == b.buffer_hits
            assert a.cost == b.cost
        elif isinstance(a, JoinReport):
            assert a == b
        else:  # NNResult
            assert np.array_equal(a.neighbors, b.neighbors)
            assert a.window == b.window
            assert a.candidates == b.candidates


def _grid_batch():
    return [
        RangeQuery(((1, 1), (6, 6))),
        RangeQuery(((0, 3), (9, 9)), plan="page-fetch"),
        NNQuery((4, 4), k=6),
        NNQuery(17, k=4, window=12),
        JoinQuery([0, 1, 2, 12, 13], [50, 51, 62, 73], epsilon=2,
                  window=24),
        NNQuery((7, 2), k=3, mapping="hilbert"),
        NNQuery((2, 7), k=3, mapping=SpectralConfig(weight="gaussian")),
        RangeQuery(((2, 2), (5, 8)), mapping="sweep"),
    ]


# ----------------------------------------------------------------------
# Bit-identical results, grid domain
# ----------------------------------------------------------------------
def test_parallel_query_many_bit_identical_on_grid():
    """Threads sharing one warm index each get the sequential answers."""
    index = SpectralIndex.build((12, 12))
    sequential = index.query_many(_grid_batch())
    for results in _run_batch_in_threads(index, _grid_batch()):
        _assert_identical(sequential, results)


def test_parallel_query_many_bit_identical_on_fresh_index():
    """Threads racing on a *cold* index (views + stores not yet
    materialized) each match a sequential run on an identical twin."""
    sequential = SpectralIndex.build((11, 11)).query_many(_grid_batch())
    index = SpectralIndex.build((11, 11))
    for results in _run_batch_in_threads(index, _grid_batch()):
        _assert_identical(sequential, results)


@pytest.mark.parametrize("callers", [1, 2, 4])
def test_query_many_runs_every_query_on_the_callers_thread(monkeypatch,
                                                            callers):
    """A cold batch builds its views and runs its queries on the
    caller's thread, whether one thread calls or several share the
    index: a curve, a non-cacheable (callable-weight) spectral mapping
    and the cacheable default each build once, on a caller's thread,
    and every caller runs its whole batch itself."""
    seen = []

    def recording(op, real):
        def wrapper(self, *args, **kwargs):
            seen.append((op, threading.get_ident()))
            return real(self, *args, **kwargs)
        return wrapper

    # Each view is published once, by the flight leader that built it.
    # A caller that checked the views just before that flight landed
    # leads a flight of its own, whose _build_view finds the published
    # view and returns it, so only one caller counts every build.
    for owner, name, op in ((LinearStore, "range_query", "range"),
                            (SpectralIndex, "_nn_impl", "nn"),
                            (SpectralIndex, "_join_impl", "join"),
                            (SpectralIndex, "_build_view", "view"),
                            (SpectralIndex, "_publish_view", "publish")):
        monkeypatch.setattr(owner, name,
                            recording(op, getattr(owner, name)))
    callable_weight = make_mapping("spectral", weight=lambda d: 1.0)
    batch = [
        RangeQuery(((1, 1), (6, 6))),
        NNQuery((7, 2), k=3, mapping="hilbert"),
        NNQuery(17, k=4, mapping=callable_weight),
        JoinQuery([0, 1, 2, 12, 13], [50, 51, 62, 73], epsilon=2,
                  window=24),
    ]
    index = SpectralIndex.build((12, 12))
    idents = [None] * callers

    def call(i):
        idents[i] = threading.get_ident()
        index.query_many(batch)

    _run_threads(callers, call)
    assert len(set(idents)) == callers
    ops = [op for op, _ in seen]
    assert ops.count("publish") == 3
    assert ops.count("view") >= 3
    if callers == 1:
        assert ops.count("view") == 3
    assert set(ops) == {"range", "nn", "join", "view", "publish"}
    assert {ident for _, ident in seen} <= set(idents)
    for ident in idents:
        mine = [op for op, who in seen
                if who == ident and op not in ("view", "publish")]
        assert len(mine) == len(batch)
        assert set(mine) == {"range", "nn", "join"}


# ----------------------------------------------------------------------
# Bit-identical results, point-set domain
# ----------------------------------------------------------------------
def test_parallel_query_many_bit_identical_on_point_set():
    grid = Grid((10, 10))
    cells = list(range(0, 100, 3))
    index = SpectralIndex.build(PointSet(grid, cells))
    batch = (
        [NNQuery(cell, k=4) for cell in cells[:8]]
        + [JoinQuery(cells[:6], cells[10:16], epsilon=3, window=12)]
        + [NNQuery(cells[5], k=3, window=9)]
    )
    sequential = index.query_many(batch)
    for results in _run_batch_in_threads(index, batch):
        _assert_identical(sequential, results)
    # Neighbours come back as flat *grid* indices of occupied cells.
    for result in sequential[:8]:
        assert all(int(c) in set(cells) for c in result.neighbors)


def test_point_set_range_queries_still_rejected():
    index = SpectralIndex.build(PointSet(Grid((6, 6)), range(12)))
    with pytest.raises(DomainError):
        index.query_many([RangeQuery(((0, 0), (2, 2)))])


# ----------------------------------------------------------------------
# Exact solve accounting under threads
# ----------------------------------------------------------------------
def test_n_thread_query_many_runs_exactly_one_solve_per_config():
    service = OrderingService()
    index = SpectralIndex.build((10, 10), service=service)
    weights = ("unit", "inverse_manhattan", "gaussian")
    batch = [NNQuery(17, k=4, mapping=SpectralConfig(weight=w))
             for w in weights]
    before = solver_invocations()
    results = [None] * 6

    def hit(i):
        results[i] = index.query_many(batch)

    _run_threads(6, hit)

    # 6 threads x 3 configs, but one solve per distinct config: the
    # index's view flights and the service's single-flight compose.
    assert solver_invocations() - before == len(weights)
    reference = results[0]
    for other in results[1:]:
        _assert_identical(reference, other)


def test_concurrent_non_cacheable_mapping_materializes_once():
    """The service cannot coalesce callable-weight mappings; the
    index-level single-flight is what keeps them at one solve."""
    mapping = make_mapping("spectral", weight=lambda d: 1.0)
    index = SpectralIndex.build((9, 9))
    orders = [None] * 8
    before = solver_invocations()

    _run_threads(8, lambda i: orders.__setitem__(
        i, index.order_for(mapping)))

    assert solver_invocations() - before == 1
    assert index.stats.computed == 0
    for order in orders[1:]:
        assert order == orders[0]


def test_failed_view_leader_does_not_wedge_the_index(monkeypatch):
    index = SpectralIndex.build((6, 6))
    calls = {"n": 0}
    real = SpectralIndex._build_view

    def flaky(self, mapping):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected materialization failure")
        return real(self, mapping)

    monkeypatch.setattr(SpectralIndex, "_build_view", flaky)
    with pytest.raises(RuntimeError):
        index.nn(3, k=2)
    # The view key is not wedged: the next request materializes.
    assert len(index.nn(3, k=2).neighbors) == 2


# ----------------------------------------------------------------------
# Buffer accounting under concurrent execution
# ----------------------------------------------------------------------
def test_buffer_stats_is_a_pure_observer():
    """buffer_stats never materializes a view (and so never solves)."""
    index = SpectralIndex.build((12, 12), buffer_capacity=4)
    before = solver_invocations()
    assert index.buffer_stats() is None
    assert index.buffer_stats("hilbert") is None
    assert solver_invocations() - before == 0


def test_buffer_accounting_exact_under_parallel_query_many():
    index = SpectralIndex.build((16, 16), buffer_capacity=8)
    batch = [RangeQuery(((i % 8, i % 8), (i % 8 + 5, i % 8 + 5)))
             for i in range(24)]
    results = index.query_many(batch)
    stats = index.buffer_stats()
    assert stats is not None
    assert stats.hits + stats.misses == stats.accesses
    pages = sum(e.pages_fetched for e in results)
    assert stats.accesses == pages
    # The batch runs in input order on one thread, so a buffered twin
    # agrees on every field, buffer hits included.
    twin = SpectralIndex.build((16, 16), buffer_capacity=8)
    _assert_identical(twin.query_many(batch), results)
    assert twin.buffer_stats() == stats
    # Threads sharing the pool interleave their hits, but no access is
    # lost or counted twice.
    _run_batch_in_threads(index, batch)
    stats = index.buffer_stats()
    assert stats.hits + stats.misses == stats.accesses == 5 * pages


def test_workload_conserves_accounting():
    index = SpectralIndex.build((16, 16), buffer_capacity=8)
    boxes = [((i % 6, i % 6), (i % 6 + 7, i % 6 + 7)) for i in range(20)]
    report = index.workload(boxes)
    stats = index.buffer_stats()
    assert report.queries == len(boxes)
    assert stats.accesses == report.pages_fetched
    assert stats.hits == report.buffer_hits
    assert stats.hits + stats.misses == stats.accesses
    # The whole report matches a sequential twin, field for field.
    twin = SpectralIndex.build((16, 16), buffer_capacity=8)
    assert twin.workload(boxes) == report


# ----------------------------------------------------------------------
# Asyncio facade
# ----------------------------------------------------------------------
def test_async_index_smoke():
    sync_index = SpectralIndex.build((10, 10))
    expected = sync_index.query_many(_grid_batch())

    async def main():
        async with AsyncSpectralIndex.build((10, 10)) as index:
            ranks = await index.ranks()
            single = await index.nn((4, 4), k=6)
            batches = await asyncio.gather(
                index.query_many(_grid_batch()),
                index.query_many(_grid_batch()),
            )
            return ranks, single, batches

    ranks, single, batches = asyncio.run(main())
    assert np.array_equal(ranks, sync_index.ranks)
    assert np.array_equal(single.neighbors, expected[2].neighbors)
    for batch in batches:
        _assert_identical(expected, batch)


def test_async_query_many_matches_sync_on_buffered_twins():
    batch = _grid_batch() + [RangeQuery(((i, i), (i + 4, i + 4)))
                             for i in range(6)]
    sync_index = SpectralIndex.build((12, 12), buffer_capacity=4)
    expected = sync_index.query_many(batch)

    async def main():
        async with AsyncSpectralIndex.build(
                (12, 12), buffer_capacity=4) as index:
            results = await index.query_many(batch)
            return results, index.index.buffer_stats()

    results, stats = asyncio.run(main())
    _assert_identical(expected, results)
    assert stats == sync_index.buffer_stats()


def test_async_index_shares_a_sync_index_and_service():
    service = OrderingService()
    sync_index = SpectralIndex.build((9, 9), service=service)
    before = solver_invocations()

    async def main():
        index = AsyncSpectralIndex(sync_index)
        try:
            return await asyncio.gather(
                index.range(((0, 0), (4, 4))),
                index.nn(10, k=3),
                index.order_for("hilbert"),
            )
        finally:
            await index.aclose()

    execution, nn_result, hilbert = asyncio.run(main())
    # One spectral solve total, shared with the sync facade's state.
    assert solver_invocations() - before == 1
    assert np.array_equal(
        execution.results,
        sync_index.range(((0, 0), (4, 4))).results)
    assert np.array_equal(nn_result.neighbors,
                          sync_index.nn(10, k=3).neighbors)
    assert hilbert == sync_index.order_for("hilbert")


def test_async_index_runs_every_call_on_one_thread(monkeypatch):
    """Gathered calls queue on one executor thread, off the loop's."""
    seen = set()
    real = SpectralIndex._execute_query

    def recording(self, view, query):
        seen.add(threading.get_ident())
        return real(self, view, query)

    monkeypatch.setattr(SpectralIndex, "_execute_query", recording)

    async def main():
        async with AsyncSpectralIndex.build((10, 10)) as index:
            await asyncio.gather(*(index.query_many(_grid_batch())
                                   for _ in range(4)))

    asyncio.run(main())
    assert len(seen) == 1
    assert threading.get_ident() not in seen


def test_async_index_rejects_non_index():
    with pytest.raises(InvalidParameterError):
        AsyncSpectralIndex("not an index")
