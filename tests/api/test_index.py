"""SpectralIndex: the facade composes ordering, layout, and queries."""

import threading

import numpy as np
import pytest

from repro.api import (
    JoinQuery,
    NNQuery,
    NNResult,
    PointSet,
    RangeQuery,
    SpectralIndex,
    make_mapping,
)
from repro.core.spectral import SpectralConfig
from repro.errors import DomainError, InvalidParameterError
from repro.geometry import Box, Grid
from repro.graph import grid_graph
from repro.query import QueryExecution
from repro.query.nn import true_knn
from repro.service import OrderingService


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_build_from_shape_tuple():
    index = SpectralIndex.build((6, 6))
    assert isinstance(index.domain, Grid)
    assert index.domain.shape == (6, 6)
    assert index.mapping.name == "spectral"
    assert sorted(index.order.permutation) == list(range(36))


def test_build_is_lazy_and_shares_one_solve_per_domain(grid8):
    service = OrderingService()
    first = SpectralIndex.build(grid8, service=service)
    second = SpectralIndex.build(grid8, service=service)
    # build() itself never solves — only first use does.
    assert service.stats.computed == 0
    assert first.order == second.order
    assert service.stats.computed == 1
    assert service.stats.memory_hits >= 1


def test_build_with_curve_default():
    index = SpectralIndex.build((8, 8), mapping="hilbert")
    assert index.mapping.name == "hilbert"
    assert index.provenance is None  # curves have no solve provenance


def test_build_applies_config_to_named_spectral_mappings(grid8):
    config = SpectralConfig(backend="dense", weight="inverse_manhattan")
    index = SpectralIndex.build(grid8, config=config)
    assert index.mapping.algorithm.config.weight == "inverse_manhattan"
    # names resolved later inherit the same config
    order_a = index.order_for("spectral")
    assert order_a == index.order


def test_provenance_for_spectral(grid8):
    index = SpectralIndex.build(grid8)
    art = index.provenance
    assert art is not None
    assert art.backend is not None
    assert art.lambda2 is not None
    assert art.order == index.order


def test_config_built_index_accepts_spectral_config_specs(grid8):
    """A SpectralConfig spec must not collide with the index's config."""
    index = SpectralIndex.build(grid8,
                                config=SpectralConfig(backend="dense"))
    order = index.order_for(SpectralConfig(weight="gaussian",
                                           backend="dense"))
    expected = make_mapping("spectral", weight="gaussian",
                            backend="dense").order_for_grid(grid8)
    assert order == expected


def test_rb_and_ml_views_are_cached_per_index(grid8):
    from repro.linalg.backends import solver_invocations
    index = SpectralIndex.build(grid8, mapping="hilbert")
    for name in ("spectral-rb", "spectral-ml"):
        first = index.ranks_for(name)
        before = solver_invocations()
        second = index.ranks_for(name)
        assert solver_invocations() - before == 0, name
        assert np.array_equal(first, second)


def test_ranks_for_matches_direct_mappings(grid8):
    index = SpectralIndex.build(grid8)
    for name in ("sweep", "peano", "gray", "hilbert"):
        expected = make_mapping(name).ranks_for_grid(grid8)
        assert np.array_equal(index.ranks_for(name), expected)


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def test_range_accepts_box_and_corner_pair(grid8):
    index = SpectralIndex.build(grid8)
    via_box = index.range(Box((1, 1), (4, 4)))
    via_pair = index.range(((1, 1), (4, 4)))
    assert isinstance(via_box, QueryExecution)
    assert np.array_equal(via_box.results, via_pair.results)
    expected = Box((1, 1), (4, 4)).cell_indices(grid8)
    assert np.array_equal(via_box.results, np.sort(expected))


def test_range_rejects_junk_boxes(grid8):
    index = SpectralIndex.build(grid8)
    with pytest.raises(InvalidParameterError):
        index.range("not a box")


def test_range_per_mapping_and_plan(grid8):
    index = SpectralIndex.build(grid8)
    box = Box((2, 2), (5, 5))
    for mapping in (None, "hilbert"):
        scan = index.range(box, plan="span-scan", mapping=mapping)
        fetch = index.range(box, plan="page-fetch", mapping=mapping)
        assert np.array_equal(scan.results, fetch.results)


def test_nn_returns_true_neighbours_when_window_covers_them(grid8):
    index = SpectralIndex.build(grid8)
    result = index.nn((3, 3), k=4)
    assert isinstance(result, NNResult)
    assert len(result.neighbors) == 4
    assert result.candidates >= 4
    # the adaptive window re-ranks by Manhattan distance: all returned
    # neighbours must be at distance <= the true 4th neighbour distance
    cell = grid8.index_of((3, 3))
    truth = true_knn(grid8, cell, 4)
    coords = grid8.coordinates()
    max_true = np.abs(coords[truth] - coords[cell]).sum(axis=1).max()
    dist = np.abs(coords[result.neighbors] - coords[cell]).sum(axis=1)
    assert (dist >= 1).all()
    assert dist.max() <= max_true + 2  # window approximation slack


def test_nn_accepts_flat_index_and_fixed_window(grid8):
    index = SpectralIndex.build(grid8)
    res = index.nn(27, k=3, window=10)
    assert res.window == 10
    assert len(res.neighbors) <= 3


def test_nn_validates_inputs(grid8):
    index = SpectralIndex.build(grid8)
    with pytest.raises(InvalidParameterError):
        index.nn(0, k=0)
    with pytest.raises(DomainError):
        index.nn(9999, k=2)


def test_join_matches_query_module(grid8):
    from repro.query import window_join_report
    index = SpectralIndex.build(grid8)
    a = [0, 1, 2, 10, 11]
    b = [8, 9, 17, 40]
    got = index.join(a, b, epsilon=2, window=12)
    expected = window_join_report(grid8, index.ranks, a, b,
                                  epsilon=2, window=12)
    assert got == expected


@pytest.mark.parametrize("bad", [-1, 64])
def test_join_rejects_cells_outside_the_grid(grid8, bad):
    index = SpectralIndex.build(grid8)
    with pytest.raises(DomainError, match=rf"cells_a .*\[{bad}\]"):
        index.join([0, bad], [1], epsilon=1, window=2)
    with pytest.raises(DomainError, match=rf"cells_b .*\[{bad}\]"):
        index.join([0], [bad, 1], epsilon=1, window=2)


def test_workload_aggregates(grid8):
    from repro.query import random_boxes
    index = SpectralIndex.build(grid8, page_size=8)
    boxes = random_boxes(grid8, extent=(3, 3), count=12, seed=5)
    report = index.workload(boxes)
    assert report.queries == 12
    assert report.pages_fetched > 0


def test_query_many_results_align_with_input(grid8):
    index = SpectralIndex.build(grid8)
    queries = [
        NNQuery((1, 1), k=2),
        RangeQuery(((0, 0), (3, 3))),
        JoinQuery([0, 1], [8, 9], epsilon=1, window=6),
        RangeQuery(((2, 2), (4, 4)), mapping="hilbert"),
    ]
    results = index.query_many(queries)
    assert isinstance(results[0], NNResult)
    assert isinstance(results[1], QueryExecution)
    assert results[2].true_pairs >= 1
    assert isinstance(results[3], QueryExecution)
    # parity with the one-at-a-time methods
    single = index.range(((0, 0), (3, 3)))
    assert np.array_equal(results[1].results, single.results)


def test_query_many_rejects_unknown_query_types(grid8):
    index = SpectralIndex.build(grid8)
    with pytest.raises(InvalidParameterError):
        index.query_many(["select *"])


def test_query_many_keeps_a_view_published_during_its_batch(
        grid8, monkeypatch):
    """First publish wins: a view another thread materializes while a
    ``query_many`` batch is ordering stays in place, with its store."""
    index = SpectralIndex.build(grid8, buffer_capacity=4)
    first = SpectralConfig(weight="gaussian")
    second = SpectralConfig(weight="inverse_manhattan")
    real = OrderingService.order_many
    seen = {}

    def order_many(self, requests):
        def other():
            index.range(((0, 0), (2, 2)), mapping=first)
            seen["stats"] = index.buffer_stats(first)

        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "the batch blocked another thread"
        return real(self, requests)

    monkeypatch.setattr(OrderingService, "order_many", order_many)
    index.query_many([NNQuery(3, k=2, mapping=first),
                      NNQuery(3, k=2, mapping=second)])
    assert seen["stats"].accesses > 0
    # The batch published its own view of ``first`` after the other
    # thread's; the store built on the first view must survive it.
    assert index.buffer_stats(first) == seen["stats"]


# ----------------------------------------------------------------------
# Non-grid domains
# ----------------------------------------------------------------------
def test_point_set_domain_orders_positions():
    grid = Grid((6, 6))
    ps = PointSet(grid, np.arange(10))
    index = SpectralIndex.build(ps)
    assert sorted(index.order.permutation) == list(range(10))
    # Range queries need a page layout over a full grid; nn/join are
    # served directly from the point-set ranks.
    with pytest.raises(DomainError):
        index.range(((0, 0), (2, 2)))
    result = index.nn(0, k=2)
    assert len(result.neighbors) == 2
    assert all(int(c) in range(10) for c in result.neighbors)
    report = index.join([0], [1], epsilon=1, window=2)
    assert report.true_pairs == 1
    # Cells outside the occupied set are rejected, not mis-ranked.
    with pytest.raises(DomainError):
        index.nn(35, k=2)
    with pytest.raises(DomainError):
        index.join([0], [35], epsilon=1, window=2)


def test_graph_domain_orders_vertices():
    graph = grid_graph(Grid((4, 4)))
    service = OrderingService()
    index = SpectralIndex.build(graph, service=service)
    assert index.order.n == graph.num_vertices
    assert index.provenance is not None
    assert service.stats.computed == 1
    with pytest.raises(DomainError):
        index.range(((0, 0), (1, 1)))


def test_uncacheable_mapping_still_works(grid8):
    index = SpectralIndex.build(
        grid8, mapping=make_mapping("spectral", weight=lambda d: 1.0))
    assert sorted(index.order.permutation) == list(range(grid8.size))
    assert index.provenance is None
    assert index.stats.uncacheable >= 0  # served outside the cache tiers
