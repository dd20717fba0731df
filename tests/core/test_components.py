"""Tests for repro.core.components."""

import numpy as np

from repro.core import LinearOrder, order_components
from repro.graph import Graph


def identity_order(graph):
    return LinearOrder(np.arange(graph.num_vertices))


def reversed_order(graph):
    return LinearOrder(np.arange(graph.num_vertices)[::-1])


def test_components_concatenated_by_min_vertex():
    g = Graph.from_edges(6, [(4, 5), (0, 1)])
    order = order_components(g, identity_order)
    # Components: {0,1}, {2}, {3}, {4,5} in min-vertex order.
    assert list(order.permutation) == [0, 1, 2, 3, 4, 5]


def test_inner_order_respected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    order = order_components(g, reversed_order)
    assert list(order.permutation) == [1, 0, 3, 2]


def test_empty_graph():
    order = order_components(Graph.from_edges(0, []), identity_order)
    assert order.n == 0


def test_single_component_passthrough():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    order = order_components(g, reversed_order)
    assert list(order.permutation) == [2, 1, 0]


def test_component_subgraphs_equal_graph_subgraph():
    # order_components cuts every component in one pass over the edges;
    # each piece must be the CSR Graph.subgraph builds, array for array.
    from repro.geometry import Grid
    from repro.graph import component_vertex_lists, connected_components
    from repro.graph import induced_grid_graph

    rng = np.random.default_rng(7)
    models = [("orthogonal", 1, "unit"), ("orthogonal", 2, "gaussian"),
              ("moore", 1, "inverse_euclidean"),
              ("orthogonal", 2, "inverse_manhattan")]
    for trial in range(40):
        connectivity, radius, weight = models[trial % len(models)]
        grid = Grid((int(rng.integers(3, 25)), int(rng.integers(3, 25))))
        cells = rng.choice(grid.size, int(rng.integers(1, grid.size + 1)),
                           replace=False)
        graph, _ = induced_grid_graph(grid, cells, connectivity=connectivity,
                                      radius=radius, weight=weight)
        seen = []

        def capture(sub):
            seen.append(sub)
            return identity_order(sub)

        order_components(graph, capture)
        labels, count = connected_components(graph)
        groups = component_vertex_lists(labels, count)
        assert len(seen) == count
        for sub, vertices in zip(seen, groups):
            expected, _ = graph.subgraph(vertices)
            assert sub.num_vertices == expected.num_vertices
            for got, want in zip(sub.csr_arrays(), expected.csr_arrays()):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
