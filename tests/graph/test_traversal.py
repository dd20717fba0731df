"""Tests for repro.graph.traversal."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    component_vertex_lists,
    connected_components,
    cycle_graph,
    grid_graph,
    is_connected,
    path_graph,
    star_graph,
)
from repro.geometry import Grid
from repro.graph.traversal import _compiled_components
from repro.linalg import scipy_available


def test_connected_components_labels():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    labels, count = connected_components(g)
    assert count == 3
    assert labels[0] == labels[1] == labels[2] == 0
    assert labels[3] == 1
    assert labels[4] == labels[5] == 2


def test_component_vertex_lists():
    g = Graph.from_edges(5, [(0, 4), (1, 2)])
    labels, count = connected_components(g)
    groups = component_vertex_lists(labels, count)
    assert [list(grp) for grp in groups] == [[0, 4], [1, 2], [3]]


def test_is_connected(request):
    cases = [(grid_graph(Grid((4, 4))), True), (cycle_graph(5), True),
             (star_graph(5), True), (path_graph(4), True),
             (Graph.from_edges(3, [(0, 1)]), False),
             (Graph.from_edges(5, [(0, 1), (2, 3)]), False),
             (Graph.empty(1), True), (Graph.from_edges(0, []), True),
             (Graph.empty(2), False)]
    graphs = [g for g, _ in cases]
    expected = [connected for _, connected in cases]
    assert [is_connected(g) for g in graphs] == expected
    # Again on the numpy-only leg, which counts the Python walk's
    # components.
    request.getfixturevalue("no_scipy")
    assert _compiled_components(graphs[0]) is None
    assert [is_connected(g) for g in graphs] == expected


def _random_graphs():
    """Graphs with many components, isolated vertices, n = 0 and 1."""
    rng = np.random.default_rng(20261018)
    graphs = [Graph.from_edges(0, []), Graph.empty(1), Graph.empty(5),
              Graph.from_edges(7, [(5, 6), (0, 6), (2, 3)])]
    for _ in range(60):
        n = int(rng.integers(2, 150))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, n + 1)), 2))
        graphs.append(Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]]))
    return graphs


def _walks(graphs):
    return [(connected_components(g), is_connected(g)) for g in graphs]


@pytest.mark.skipif(not scipy_available(), reason="needs scipy")
def test_compiled_and_python_walks_agree(request):
    # The same public calls, first through scipy's csgraph, then with
    # scipy hidden (the numpy-only leg's Python walk).
    graphs = _random_graphs()
    compiled = _walks(graphs)
    request.getfixturevalue("no_scipy")
    assert _compiled_components(graphs[-1]) is None
    python = _walks(graphs)
    for g, ((labels, count), connected), ((ref, ref_count), ref_conn) \
            in zip(graphs, compiled, python):
        assert labels.dtype == ref.dtype == np.int64
        assert np.array_equal(labels, ref), g
        assert count == ref_count
        assert connected == ref_conn == (ref_count <= 1)


def test_python_walk_labels_by_smallest_vertex(no_scipy):
    for g in _random_graphs():
        labels, count = connected_components(g)
        assert sorted(set(labels.tolist())) == list(range(count))
        # First occurrences appear in label order.
        _, first = np.unique(labels, return_index=True)
        assert np.all(np.diff(first) > 0)
        for u, v, _ in g.edges():
            assert labels[u] == labels[v]


def test_component_vertex_lists_match_masks():
    for g in _random_graphs():
        labels, count = connected_components(g)
        groups = component_vertex_lists(labels, count)
        assert len(groups) == count
        for c, group in enumerate(groups):
            assert np.array_equal(group, np.flatnonzero(labels == c))


@pytest.mark.skipif(not scipy_available(), reason="needs scipy")
def test_compiled_labels_are_renumbered_by_smallest_vertex(monkeypatch):
    # scipy does not document its label order; connected_components
    # promises ids in order of each component's smallest vertex.
    import scipy.sparse.csgraph as csgraph

    real = csgraph.connected_components

    def reversed_ids(matrix, directed):
        count, labels = real(matrix, directed=directed)
        return count, count - 1 - labels

    monkeypatch.setattr(csgraph, "connected_components", reversed_ids)
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    labels, count = connected_components(g)
    assert count == 3
    assert list(labels) == [0, 0, 0, 1, 2, 2]
