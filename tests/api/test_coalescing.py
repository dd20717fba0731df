"""Request coalescing: concurrent identical misses run one eigensolve.

The serving-layer contract from the ROADMAP: two (or N) concurrent
misses on one (config, domain) fingerprint must trigger exactly one
solver invocation, asserted against the process-wide
``solver_invocations`` counter; and a ``query_many`` batch over K
same-topology mappings must pay at most one graph build, asserted
against the service's topology counter (and the coarsening matching
counter staying flat).
"""

import threading
import time

import numpy as np
import pytest

from repro.api import NNQuery, SpectralIndex
from repro.core.spectral import SpectralConfig
from repro.geometry import Grid, PointSet
from repro.graph.coarsening import matching_invocations
from repro.linalg.backends import solver_invocations
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


@pytest.fixture
def slow_compute(monkeypatch):
    """Stretch the leader's solve so waiters reliably overlap it.

    The coalescing assertions are about *concurrent* misses; without
    this, a fast dense solve can finish before the OS even schedules
    the other threads, turning would-be waiters into memory hits and
    the test into a coin flip.
    """
    real = OrderingService._compute_grid

    def slowed(self, key, grid, config, graph):
        time.sleep(0.15)
        return real(self, key, grid, config, graph)

    monkeypatch.setattr(OrderingService, "_compute_grid", slowed)


def test_concurrent_cold_misses_run_exactly_one_solve(slow_compute):
    service = OrderingService()
    grid = Grid((13, 13))
    results = [None] * 8

    before = solver_invocations()

    def hit(i):
        results[i] = service.order_grid(grid)

    _run_threads(8, hit)

    assert solver_invocations() - before == 1
    stats = service.stats
    assert stats.computed == 1
    assert stats.coalesced + stats.memory_hits == 7
    assert stats.coalesced >= 1  # overlap forced by slow_compute
    reference = results[0]
    for order in results[1:]:
        assert order == reference


def test_coalesced_artifacts_carry_the_coalesced_source(slow_compute):
    service = OrderingService()
    grid = Grid((16, 16))
    sources = []
    lock = threading.Lock()

    def hit(_):
        artifact = service.grid_artifact(grid)
        with lock:
            sources.append(artifact.source)

    _run_threads(6, hit)
    assert sorted(set(sources)) <= ["coalesced", "computed", "memory"]
    assert sources.count("computed") == 1
    assert "coalesced" in sources


def test_concurrent_distinct_domains_do_not_serialize_to_one():
    """Different keys each solve (single-flight is per key, not global)."""
    service = OrderingService()
    grids = [Grid((7, 7)), Grid((8, 8)), Grid((9, 9)), Grid((10, 10))]

    before = solver_invocations()
    _run_threads(4, lambda i: service.order_grid(grids[i]))
    assert solver_invocations() - before == len(grids)
    assert service.stats.computed == len(grids)


def test_concurrent_solves_attribute_solver_calls_per_artifact():
    """Provenance counts only the owning thread's invocations, even
    while other threads solve other keys (thread-local tally)."""
    service = OrderingService()
    grids = [Grid((7, 7)), Grid((8, 8)), Grid((9, 9)), Grid((10, 10))]
    artifacts = [None] * len(grids)

    before = solver_invocations()
    _run_threads(len(grids),
                 lambda i: artifacts.__setitem__(
                     i, service.grid_artifact(grids[i])))
    total = solver_invocations() - before
    # Each artifact records exactly one solve (connected grid, dense
    # backend) and the stats sum matches reality — no cross-counting.
    assert [a.solver_calls for a in artifacts] == [1] * len(grids)
    assert service.stats.solver_calls == total == len(grids)


def test_concurrent_graph_and_point_requests_coalesce():
    service = OrderingService()
    grid = Grid((11, 11))
    points = PointSet(grid, np.arange(0, 60))  # a connected block of rows

    before = solver_invocations()
    _run_threads(6, lambda i: service.points_artifact(points))
    assert solver_invocations() - before == 1


def test_failed_leader_does_not_wedge_the_key(monkeypatch):
    """Waiters retry when the leading computation raises."""
    service = OrderingService()
    grid = Grid((6, 6))
    calls = {"n": 0}
    real = OrderingService._compute_grid

    def flaky(self, key, g, config, graph):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected solve failure")
        return real(self, key, g, config, graph)

    monkeypatch.setattr(OrderingService, "_compute_grid", flaky)
    with pytest.raises(RuntimeError):
        service.order_grid(grid)
    # The key is not wedged: the next request computes normally.
    order = service.order_grid(grid)
    assert order.n == grid.size


def test_query_many_same_topology_batch_builds_one_graph():
    """K spectral configs over one grid: <= 1 topology build, and the
    coarsening matcher is never re-invoked by the batch."""
    service = OrderingService()
    grid = Grid((10, 10))
    index = SpectralIndex.build(grid, service=service)
    topology_before = service.stats.topology_builds
    matching_before = matching_invocations()
    solves_before = solver_invocations()

    weights = ("inverse_manhattan", "gaussian", "inverse_euclidean")
    results = index.query_many([
        NNQuery(17, k=4, mapping=SpectralConfig(weight=w))
        for w in weights
    ])

    assert len(results) == len(weights)
    assert service.stats.topology_builds - topology_before == 1
    assert matching_invocations() - matching_before == 0
    # Each distinct weight config still needs its own eigensolve; the
    # amortized quantity is the graph build, not the solve.
    assert solver_invocations() - solves_before == len(weights)

    # Re-running the same batch is fully warm: no new topology builds.
    index.query_many([
        NNQuery(17, k=4, mapping=SpectralConfig(weight=w))
        for w in weights
    ])
    assert service.stats.topology_builds - topology_before == 1


def test_query_many_order_acquisition_goes_through_order_many():
    """The batch path materializes via order_many, not one-by-one."""
    service = OrderingService()
    grid = Grid((9, 9))
    index = SpectralIndex.build(grid, service=service)
    seen = {}
    real = OrderingService.order_many

    def spy(self, requests):
        seen["count"] = len(list(requests))
        return real(self, requests)

    OrderingService.order_many = spy
    try:
        index.query_many([
            NNQuery(3, k=2, mapping=SpectralConfig(weight=w))
            for w in ("inverse_manhattan", "gaussian")
        ])
    finally:
        OrderingService.order_many = real
    assert seen["count"] == 2
