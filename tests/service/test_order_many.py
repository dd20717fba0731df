"""Tests for OrderingService.order_many (batched, topology-grouped)."""

import numpy as np
import pytest

from repro.core import SpectralConfig, SpectralLPM
from repro.errors import InvalidParameterError
from repro.geometry import Grid
from repro.graph import path_graph
from repro.linalg import solver_invocations
from repro.service import OrderingService, OrderRequest

WEIGHTS = ("unit", "inverse_manhattan", "inverse_euclidean", "gaussian")


def test_order_many_matches_individual_orders():
    grid = Grid((9, 9))
    requests = [OrderRequest(grid, SpectralConfig(weight=w))
                for w in WEIGHTS]
    batch = OrderingService().order_many(requests)
    for w, order in zip(WEIGHTS, batch):
        direct = SpectralLPM(weight=w).order_grid(grid)
        assert order == direct, w


def test_same_topology_builds_graph_once():
    grid = Grid((12, 12))
    service = OrderingService()
    requests = [(grid, SpectralConfig(weight=w)) for w in WEIGHTS]
    service.order_many(requests)
    assert service.stats.topology_builds == 1
    assert service.stats.computed == len(WEIGHTS)


def test_fully_warm_batch_builds_nothing():
    grid = Grid((8, 8))
    service = OrderingService()
    requests = [OrderRequest(grid, SpectralConfig(weight=w))
                for w in WEIGHTS]
    service.order_many(requests)
    builds = service.stats.topology_builds
    before = solver_invocations()
    again = service.order_many(requests)
    assert solver_invocations() == before
    assert service.stats.topology_builds == builds, \
        "a fully-warm group must not rebuild its topology"
    assert len(again) == len(WEIGHTS)


def test_distinct_topologies_group_separately():
    service = OrderingService()
    requests = [
        OrderRequest(Grid((8, 8)), SpectralConfig()),
        OrderRequest(Grid((8, 8)), SpectralConfig(weight="gaussian")),
        OrderRequest(Grid((8, 8)), SpectralConfig(connectivity="moore")),
        OrderRequest(Grid((6, 6)), SpectralConfig()),
    ]
    service.order_many(requests)
    # (8x8, orthogonal), (8x8, moore), (6x6, orthogonal).
    assert service.stats.topology_builds == 3


def test_mixed_domains_and_result_alignment():
    grid = Grid((7, 7))
    graph = path_graph(12)
    requests = [
        OrderRequest(graph),
        OrderRequest(grid, SpectralConfig(weight="inverse_manhattan")),
        OrderRequest(grid),
        (graph, SpectralConfig()),  # bare tuples are accepted too
    ]
    service = OrderingService()
    results = service.order_many(requests)
    assert len(results) == 4
    assert results[0].n == 12 and results[3].n == 12
    assert results[0] == results[3]
    assert results[1].n == grid.size and results[2].n == grid.size
    assert results[1] == SpectralLPM(
        weight="inverse_manhattan").order_grid(grid)
    assert results[2] == SpectralLPM().order_grid(grid)


def test_batch_cache_interoperates_with_single_calls():
    grid = Grid((9, 9))
    service = OrderingService()
    single = service.order_grid(grid, SpectralConfig(weight="gaussian"))
    before = solver_invocations()
    [from_batch] = service.order_many(
        [OrderRequest(grid, SpectralConfig(weight="gaussian"))])
    assert solver_invocations() == before
    assert np.array_equal(single.permutation, from_batch.permutation)


def test_invalid_requests_rejected():
    with pytest.raises(InvalidParameterError):
        OrderRequest("not a domain")
    with pytest.raises(InvalidParameterError):
        OrderRequest(Grid((3, 3)), config="unit")
