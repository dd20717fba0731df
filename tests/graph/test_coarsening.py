"""Tests for repro.graph.coarsening."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.geometry import Grid
from repro.graph import (
    Graph,
    coarsen,
    coarsen_hierarchy,
    contract,
    grid_graph,
    heavy_edge_matching,
    is_connected,
    path_graph,
)


def test_matching_is_symmetric_involution():
    g = grid_graph(Grid((6, 6)))
    match = heavy_edge_matching(g)
    for v in range(g.num_vertices):
        assert match[match[v]] == v


def test_matching_pairs_are_edges():
    g = grid_graph(Grid((5, 4)))
    match = heavy_edge_matching(g)
    for v in range(g.num_vertices):
        if match[v] != v:
            assert g.has_edge(v, int(match[v]))


def test_matching_prefers_heavy_edges():
    # A path with one heavy middle edge: 0 -1- 1 =9= 2 -1- 3.
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)],
                         weights=[1.0, 9.0, 1.0])
    match = heavy_edge_matching(g)
    # Vertex 0 is visited first and grabs its only neighbour 1 — after
    # which 2 and 3 pair.  Deterministic ascending-id processing.
    assert match[0] == 1
    assert match[2] == 3


def test_matching_deterministic():
    g = grid_graph(Grid((7, 7)))
    assert np.array_equal(heavy_edge_matching(g),
                          heavy_edge_matching(g))


def test_coarsen_halves_grid():
    g = grid_graph(Grid((8, 8)))
    coarse, projection = coarsen(g)
    assert coarse.num_vertices == 32  # perfect matching on even grids
    assert projection.shape == (64,)
    assert projection.max() == coarse.num_vertices - 1


def test_coarsen_preserves_total_crossing_weight():
    """Coarse edges carry the summed fine weights between clusters."""
    g = grid_graph(Grid((4, 4)))
    coarse, projection = coarsen(g)
    u, v, w = g.edge_arrays()
    crossing = w[projection[u] != projection[v]].sum()
    assert coarse.total_weight == pytest.approx(crossing)


def test_coarsen_preserves_connectivity():
    g = grid_graph(Grid((6, 6)))
    coarse, _ = coarsen(g)
    assert is_connected(coarse)


def test_coarsen_edgeless_graph():
    g = Graph.empty(4)
    coarse, projection = coarsen(g)
    assert coarse.num_vertices == 4  # nothing to contract
    assert list(projection) == [0, 1, 2, 3]


def test_hierarchy_reaches_min_size():
    g = grid_graph(Grid((16, 16)))
    levels = coarsen_hierarchy(g, min_size=32)
    assert levels
    assert levels[-1].graph.num_vertices <= 32
    sizes = [lvl.graph.num_vertices for lvl in levels]
    assert sizes == sorted(sizes, reverse=True)


def test_hierarchy_stops_on_no_progress():
    g = Graph.empty(10)  # cannot coarsen at all
    levels = coarsen_hierarchy(g, min_size=2)
    assert levels == []


def test_hierarchy_small_input_no_levels():
    g = path_graph(8)
    assert coarsen_hierarchy(g, min_size=16) == []


def test_hierarchy_validation():
    g = path_graph(8)
    with pytest.raises(InvalidParameterError):
        coarsen_hierarchy(g, min_size=1)
    with pytest.raises(InvalidParameterError):
        coarsen_hierarchy(g, max_levels=0)


def test_contract_validates_projection_shape():
    graph = grid_graph(Grid((3, 3)))
    with pytest.raises(InvalidParameterError):
        contract(graph, np.zeros(4, dtype=np.int64))
