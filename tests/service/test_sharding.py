"""ShardedIndexFrontend: keyspace routing over per-shard services.

The contracts: routing is a pure, process-stable function of the
domain's content-hash fingerprint; every answer is bit-identical to an
unsharded service; batches route per shard without losing alignment;
per-shard disk stores give a restarted frontend zero-solve warm-up; and
the shard partition actually spreads a workload (no degenerate
all-on-one-shard routing for a mixed domain population).
"""

import numpy as np
import pytest

from repro.api import NNQuery, SpectralIndex
from repro.core.spectral import SpectralConfig
from repro.errors import InvalidParameterError
from repro.geometry import Grid
from repro.geometry.pointset import PointSet
from repro.graph.builders import grid_graph
from repro.linalg.backends import solver_invocations
from repro.service import (
    OrderingService,
    OrderRequest,
    ShardedIndexFrontend,
)


def test_routing_is_deterministic_and_in_range():
    front_a = ShardedIndexFrontend(shards=4)
    front_b = ShardedIndexFrontend(shards=4)
    domains = [Grid((8, 8)), Grid((9, 9)), (10, 10),
               PointSet(Grid((6, 6)), range(9)),
               grid_graph(Grid((5, 5)))]
    for domain in domains:
        shard = front_a.shard_of(domain)
        assert 0 <= shard < 4
        assert shard == front_b.shard_of(domain)
        assert front_a.service_for(domain) is front_a.services[shard]


def test_mixed_domains_spread_across_shards():
    front = ShardedIndexFrontend(shards=4)
    shards = {front.shard_of(Grid((side, side)))
              for side in range(4, 40)}
    assert len(shards) > 1  # the keyspace partition is non-degenerate


def test_sharded_orders_match_unsharded_service():
    front = ShardedIndexFrontend(shards=3)
    plain = OrderingService()
    grid = Grid((9, 9))
    graph = grid_graph(Grid((5, 5)))
    assert front.order_grid(grid) == plain.order_grid(grid)
    assert front.order_graph(graph) == plain.order_graph(graph)
    assert (front.grid_artifact(grid).key
            == plain.grid_artifact(grid).key)
    assert (front.graph_artifact(graph).key
            == plain.graph_artifact(graph).key)


@pytest.mark.parametrize("parallelism", [None, 4])
def test_order_many_routes_and_aligns(parallelism):
    front = ShardedIndexFrontend(shards=3)
    requests = [
        OrderRequest(Grid((7, 7))),
        OrderRequest(Grid((8, 8)), SpectralConfig(weight="gaussian")),
        OrderRequest(Grid((7, 7)), SpectralConfig(weight="gaussian")),
        OrderRequest(Grid((9, 9))),
    ]
    orders = front.order_many(requests, parallelism=parallelism)
    plain = OrderingService()
    for request, order in zip(requests, orders):
        assert order == plain.order_grid(request.domain, request.config)
    # Each (domain, config) solved exactly once, on its owning shard.
    assert front.combined_stats().computed == len(requests)


def test_order_many_keeps_topology_amortization_per_shard():
    front = ShardedIndexFrontend(shards=2)
    grid = Grid((10, 10))
    weights = ("unit", "inverse_manhattan", "gaussian")
    front.order_many([OrderRequest(grid, SpectralConfig(weight=w))
                      for w in weights])
    shard = front.service_for(grid)
    # All three configs landed on one shard and shared one topology.
    assert shard.stats.topology_builds == 1
    assert shard.stats.computed == len(weights)


def test_per_shard_disk_stores_survive_restart(tmp_path):
    stores = [str(tmp_path / f"shard-{i}") for i in range(3)]
    front = ShardedIndexFrontend(shards=3, stores=stores)
    grids = [Grid((6, 6)), Grid((7, 7)), Grid((8, 8)), Grid((9, 9))]
    first = [front.order_grid(g) for g in grids]

    restarted = ShardedIndexFrontend(shards=3, stores=stores)
    before = solver_invocations()
    second = [restarted.order_grid(g) for g in grids]
    assert solver_invocations() - before == 0  # all from disk
    assert restarted.combined_stats().disk_hits == len(grids)
    for a, b in zip(first, second):
        assert a == b


def test_index_for_caches_and_routes_queries():
    front = ShardedIndexFrontend(shards=2)
    index = front.index_for((8, 8))
    assert index is front.index_for((8, 8))
    assert index is front.index_for(Grid((8, 8)))
    assert index.service is front.service_for(Grid((8, 8)))
    # Distinct build kwargs get distinct indexes.
    buffered = front.index_for((8, 8), buffer_capacity=4)
    assert buffered is not index

    direct = SpectralIndex.build((8, 8))
    result = front.nn((8, 8), 10, 3)
    assert np.array_equal(result.neighbors,
                          direct.nn(10, 3).neighbors)
    many = front.query_many((8, 8), [NNQuery(5, k=4)])
    assert np.array_equal(many[0].neighbors,
                          direct.nn(5, 4).neighbors)
    execution = front.range((8, 8), ((1, 1), (4, 4)))
    assert np.array_equal(execution.results,
                          direct.range(((1, 1), (4, 4))).results)
    report = front.join((8, 8), [0, 1], [9, 17], epsilon=2, window=12)
    assert report == direct.join([0, 1], [9, 17], epsilon=2, window=12)


def test_index_for_shares_one_index_across_config_spellings():
    front = ShardedIndexFrontend(shards=2)
    index = front.index_for((12, 12), "spectral")
    assert front.index_for((12, 12), SpectralConfig()) is index
    assert front.index_for((12, 12),
                           SpectralConfig(connectivity=4)) is index
    # The build keyword spells the same default order three more ways.
    assert front.index_for((12, 12)) is index
    assert front.index_for((12, 12), config=None) is index
    assert front.index_for((12, 12), config=SpectralConfig()) is index
    assert front.index_for((12, 12),
                           config=SpectralConfig(connectivity=4)) is index
    index.range(((0, 0), (3, 3)))
    assert front.combined_stats().computed == 1
    assert front.combined_stats().memory_hits == 0


def test_stats_are_per_shard_and_combined():
    front = ShardedIndexFrontend(shards=2)
    front.order_grid(Grid((6, 6)))
    front.order_grid(Grid((6, 6)))  # memory hit on the same shard
    per_shard = front.stats()
    assert len(per_shard) == 2
    combined = front.combined_stats()
    assert combined.computed == sum(s.computed for s in per_shard) == 1
    assert combined.memory_hits == 1


def test_prebuilt_services_are_used_verbatim():
    services = [OrderingService(), OrderingService()]
    front = ShardedIndexFrontend(services=services)
    assert front.num_shards == 2
    grid = Grid((7, 7))
    front.order_grid(grid)
    assert services[front.shard_of(grid)].stats.computed == 1


def test_constructor_validation():
    with pytest.raises(InvalidParameterError):
        ShardedIndexFrontend(shards=0)
    with pytest.raises(InvalidParameterError):
        ShardedIndexFrontend(shards=2, stores=["only-one"])
    with pytest.raises(InvalidParameterError):
        ShardedIndexFrontend(services=[])
    with pytest.raises(InvalidParameterError):
        ShardedIndexFrontend(services=["not a service"])
    with pytest.raises(InvalidParameterError):
        ShardedIndexFrontend(services=[OrderingService()],
                             stores=["dir"])
    front = ShardedIndexFrontend(shards=2)
    with pytest.raises(InvalidParameterError):
        front.shard_of("not a domain")
    with pytest.raises(InvalidParameterError):
        front.order_many([OrderRequest(Grid((5, 5)))], parallelism=0)
