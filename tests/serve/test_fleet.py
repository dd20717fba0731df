"""The multi-process fleet: spawn, bit-identity, warm restarts, crashes.

The acceptance contracts of the serving harness:

* a 4-shard fleet answers ``order_many`` / ``query_many`` /
  ``range`` / ``nn`` / ``join`` **bit-identically** to the in-process
  :class:`~repro.service.ShardedIndexFrontend`;
* a full fleet kill-and-restart over warm per-shard stores performs
  **zero eigensolves** (pinned through the workers' ``solver_calls``
  counters, which accumulate the worker-side
  ``solver_invocations`` deltas, and through ``disk_hits``);
* a crashed worker is detected at the next dispatch, restarted, and
  rehydrates from its shard stores.

Everything here spawns real processes, so the module carries the
``multiproc`` mark and keeps domains small.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    JoinQuery,
    NNQuery,
    ProcessPoolFrontend,
    RangeQuery,
)
from repro.core.spectral import SpectralConfig
from repro.errors import (
    FleetShutdownError,
    InvalidParameterError,
)
from repro.geometry import Grid
from repro.graph.adjacency import Graph
from repro.graph.builders import grid_graph
from repro.linalg.backends import solver_invocations
from repro.service import OrderRequest, ShardedIndexFrontend
from repro.serve import ProcessFleet

pytestmark = pytest.mark.multiproc

GRIDS = [Grid((6, 6)), Grid((7, 7)), Grid((8, 8)), Grid((9, 9))]


@pytest.fixture(scope="module")
def front():
    """One 4-shard / 4-worker frontend shared by the read-only tests."""
    with ProcessPoolFrontend(shards=4) as front:
        yield front


def _query_batch():
    return [
        NNQuery(10, k=4),
        RangeQuery(((1, 1), (4, 4))),
        JoinQuery([0, 1, 2], [9, 17, 33], epsilon=2, window=12),
        NNQuery((3, 3), k=5),
    ]


def test_routing_agrees_with_in_process_frontend(front):
    sharded = ShardedIndexFrontend(shards=4)
    for domain in GRIDS + [grid_graph(Grid((5, 5)))]:
        assert front.shard_of(domain) == sharded.shard_of(domain)


def test_orders_bit_identical_to_sharded_frontend(front):
    sharded = ShardedIndexFrontend(shards=4)
    grid = Grid((9, 9))
    graph = grid_graph(Grid((5, 5)))
    assert front.order_grid(grid) == sharded.order_grid(grid)
    assert front.order_graph(graph) == sharded.order_graph(graph)
    assert (front.grid_artifact(grid).key
            == sharded.grid_artifact(grid).key)
    assert (front.graph_artifact(graph).key
            == sharded.graph_artifact(graph).key)


@pytest.mark.parametrize("parallelism", [None, 4])
def test_order_many_bit_identical_and_aligned(front, parallelism):
    requests = [
        OrderRequest(Grid((7, 7))),
        OrderRequest(Grid((8, 8)), SpectralConfig(weight="gaussian")),
        OrderRequest(Grid((7, 7)), SpectralConfig(weight="gaussian")),
        OrderRequest(Grid((9, 9))),
    ]
    fleet_orders = front.order_many(requests, parallelism=parallelism)
    sharded_orders = ShardedIndexFrontend(shards=4).order_many(requests)
    assert fleet_orders == sharded_orders


def test_query_many_bit_identical_to_sharded_frontend(front):
    grid = Grid((8, 8))
    batch = _query_batch()
    remote = front.query_many(grid, batch)
    local = ShardedIndexFrontend(shards=4).query_many(grid, batch)
    for ours, theirs in zip(remote, local):
        if hasattr(theirs, "results"):
            assert np.array_equal(ours.results, theirs.results)
        elif hasattr(theirs, "neighbors"):
            assert np.array_equal(ours.neighbors, theirs.neighbors)
        else:
            assert ours == theirs


def test_single_queries_bit_identical(front):
    grid = Grid((8, 8))
    sharded = ShardedIndexFrontend(shards=4)
    assert np.array_equal(front.nn(grid, 10, 3).neighbors,
                          sharded.nn(grid, 10, 3).neighbors)
    assert np.array_equal(
        front.range(grid, ((1, 1), (4, 4))).results,
        sharded.range(grid, ((1, 1), (4, 4))).results)
    assert (front.join(grid, [0, 1], [9, 17], epsilon=2, window=12)
            == sharded.join(grid, [0, 1], [9, 17], epsilon=2,
                            window=12))


def test_order_entry_points_fix_the_domain_kind(front):
    """order_grid/order_graph reject the other family loudly, like the
    in-process fronts — the worker dispatches on the value's type, so
    silent acceptance here would serve the wrong order family."""
    with pytest.raises(InvalidParameterError):
        front.order_graph(Grid((6, 6)))
    with pytest.raises(InvalidParameterError):
        front.order_grid(grid_graph(Grid((4, 4))))


def test_order_many_amortizes_topology_inside_workers(front):
    grid = Grid((11, 11))  # unseen by the other tests on this fleet
    weights = ("unit", "inverse_manhattan", "gaussian")
    before = front.stats()[front.shard_of(grid)]
    front.order_many([OrderRequest(grid, SpectralConfig(weight=w))
                      for w in weights])
    after = front.stats()[front.shard_of(grid)]
    assert after.topology_builds - before.topology_builds == 1
    assert after.computed - before.computed == len(weights)


def test_worker_errors_reraise_locally(front):
    with pytest.raises(InvalidParameterError):
        front.order_graph(Graph.from_edges(4, [(0, 1), (2, 3)]),
                          SpectralConfig(backend="magma"))
    # The worker survives the failure and keeps serving.
    assert front.order_grid(Grid((6, 6))).n == 36


def test_fleet_restart_over_warm_stores_pays_zero_eigensolves(tmp_path):
    """The acceptance pin: kill the whole fleet, restart, no solves."""
    with ProcessPoolFrontend(shards=4,
                             cache_dir=tmp_path / "fleet") as front:
        cold = [front.order_grid(g) for g in GRIDS]
        assert front.combined_stats().computed == len(GRIDS)

    with ProcessPoolFrontend(shards=4,
                             cache_dir=tmp_path / "fleet") as front:
        before = solver_invocations()  # dispatcher-side: must not move
        warm = [front.order_grid(g) for g in GRIDS]
        stats = front.combined_stats()
        assert solver_invocations() - before == 0
        assert stats.solver_calls == 0       # worker-side eigensolves
        assert stats.computed == 0
        assert stats.disk_hits == len(GRIDS)
        assert warm == cold


def test_crashed_worker_restarts_and_rehydrates(tmp_path):
    with ProcessPoolFrontend(shards=2,
                             cache_dir=tmp_path / "fleet") as front:
        grid = Grid((8, 8))
        first = front.order_grid(grid)
        worker_id = front.worker_of(grid)

        handle = front.fleet._handles[worker_id]
        handle.process.kill()
        handle.process.join()

        # Next dispatch detects the corpse, restarts, retries, and the
        # replacement answers from its warmed shard store.
        again = front.order_grid(grid)
        assert again == first
        assert front.fleet.stats.worker_restarts == 1
        assert front.fleet.stats.retried_requests == 1
        stats = front.combined_stats()
        assert stats.solver_calls == 0   # rehydrated, not recomputed
        assert stats.disk_hits == 1


def test_check_workers_restarts_every_corpse(tmp_path):
    with ProcessPoolFrontend(shards=2,
                             cache_dir=tmp_path / "fleet") as front:
        grid = Grid((8, 8))
        front.order_grid(grid)
        for handle in front.fleet._handles:
            handle.process.kill()
            handle.process.join()
        assert sorted(front.fleet.check_workers()) == [0, 1]
        assert front.order_grid(grid).n == 64
        assert front.combined_stats().solver_calls == 0


def test_fewer_workers_than_shards(tmp_path):
    with ProcessPoolFrontend(shards=4, workers=2,
                             cache_dir=tmp_path / "fleet") as front:
        assert front.num_workers == 2
        hellos = front.fleet.hellos()
        assert [h.shard_ids for h in hellos] == [(0, 2), (1, 3)]
        plain = ShardedIndexFrontend(shards=4)
        orders = front.order_many([OrderRequest(g) for g in GRIDS])
        assert orders == plain.order_many([OrderRequest(g)
                                           for g in GRIDS])


def test_lifecycle_validation_and_shutdown(tmp_path):
    with pytest.raises(InvalidParameterError):
        ProcessFleet(shards=0)
    with pytest.raises(InvalidParameterError):
        ProcessFleet(shards=2, workers=3)
    with pytest.raises(InvalidParameterError):
        ProcessPoolFrontend(fleet="not a fleet")

    front = ProcessPoolFrontend(shards=1)
    pids = [h.pid for h in front.fleet.hellos()]
    front.close()
    front.close()  # idempotent
    with pytest.raises(FleetShutdownError):
        front.order_grid(Grid((5, 5)))
    # A crash-retry racing close() must refuse to respawn a worker
    # into the closed fleet, not leak a fresh process.
    with pytest.raises(FleetShutdownError):
        front.fleet.restart_worker(0)
    # The worker really exited (not just abandoned).
    import os
    for pid in pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)
