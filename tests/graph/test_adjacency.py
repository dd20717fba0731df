"""Tests for repro.graph.adjacency."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphStructureError, InvalidParameterError
from repro.graph import Graph

# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.num_vertices == 4
    assert g.num_edges == 3
    assert list(g.degrees()) == [1, 2, 2, 1]


def test_edges_canonicalized_to_u_lt_v():
    g = Graph.from_edges(3, [(2, 0), (1, 0)])
    edges = list(g.edges())
    assert edges == [(0, 1, 1.0), (0, 2, 1.0)]


def test_empty_graph():
    g = Graph.empty(5)
    assert g.num_vertices == 5
    assert g.num_edges == 0
    assert list(g.degrees()) == [0] * 5


def test_zero_vertex_graph():
    g = Graph.from_edges(0, [])
    assert g.num_vertices == 0
    assert g.num_edges == 0


def test_self_loop_rejected():
    with pytest.raises(GraphStructureError):
        Graph.from_edges(3, [(1, 1)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, [(-1, 0)])


def test_nonpositive_weight_rejected():
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, [(0, 1)], weights=[0.0])
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, [(0, 1)], weights=[-2.0])


def test_weight_count_mismatch_rejected():
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0])


def test_bad_edge_shape_rejected():
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, np.array([[0, 1, 2]]))


# ----------------------------------------------------------------------
# Duplicate policies
# ----------------------------------------------------------------------
def test_duplicates_max_policy_keeps_heaviest():
    g = Graph.from_edges(3, [(0, 1), (1, 0)], weights=[1.0, 5.0])
    assert g.num_edges == 1
    assert g.edge_weight(0, 1) == 5.0


def test_duplicates_sum_policy_adds():
    g = Graph.from_edges(3, [(0, 1), (1, 0)], weights=[1.0, 5.0],
                         duplicate_policy="sum")
    assert g.edge_weight(0, 1) == 6.0


def test_duplicates_error_policy_raises():
    with pytest.raises(GraphStructureError):
        Graph.from_edges(3, [(0, 1), (1, 0)], duplicate_policy="error")


def test_unknown_duplicate_policy_rejected():
    with pytest.raises(InvalidParameterError):
        Graph.from_edges(3, [(0, 1)], duplicate_policy="first")


# ----------------------------------------------------------------------
# Accessors
# ----------------------------------------------------------------------
def test_neighbors_sorted_and_weights_aligned():
    g = Graph.from_edges(4, [(2, 0), (2, 3), (2, 1)],
                         weights=[3.0, 4.0, 5.0])
    assert list(g.neighbors(2)) == [0, 1, 3]
    assert list(g.neighbor_weights(2)) == [3.0, 5.0, 4.0]


def test_has_edge_and_edge_weight():
    g = Graph.from_edges(4, [(0, 1)], weights=[2.5])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(1, 1)
    assert g.edge_weight(1, 0) == 2.5
    with pytest.raises(GraphStructureError):
        g.edge_weight(0, 2)


def test_vertex_range_checked():
    g = Graph.empty(3)
    with pytest.raises(InvalidParameterError):
        g.neighbors(3)
    with pytest.raises(InvalidParameterError):
        g.degree(-1)


def test_weighted_degrees():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
    assert list(g.weighted_degrees()) == [2.0, 5.0, 3.0]


def test_total_weight_and_num_edges():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
    assert g.total_weight == 5.0
    assert g.num_edges == 2


def test_edge_arrays_u_less_than_v():
    g = Graph.from_edges(5, [(4, 0), (3, 1), (2, 4)])
    u, v, w = g.edge_arrays()
    assert (u < v).all()
    assert len(u) == 3


# ----------------------------------------------------------------------
# Derived graphs
# ----------------------------------------------------------------------
def test_with_edges_added_layers_and_maxes():
    g = Graph.from_edges(4, [(0, 1)], weights=[1.0])
    g2 = g.with_edges_added([(0, 1), (2, 3)], [10.0, 4.0])
    assert g2.edge_weight(0, 1) == 10.0
    assert g2.edge_weight(2, 3) == 4.0
    # Original untouched (immutability).
    assert g.num_edges == 1


def test_with_edges_added_empty_noop():
    g = Graph.from_edges(4, [(0, 1)])
    g2 = g.with_edges_added([])
    assert g2.num_edges == 1


def test_subgraph_relabels_and_filters():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    sub, ids = g.subgraph([1, 2, 4])
    assert list(ids) == [1, 2, 4]
    assert sub.num_vertices == 3
    # Only the (1,2) edge survives; relabelled to (0,1).
    assert sub.num_edges == 1
    assert sub.has_edge(0, 1)


def test_subgraph_rejects_duplicates():
    g = Graph.empty(3)
    with pytest.raises(InvalidParameterError):
        g.subgraph([1, 1])


def test_row_positions_gather_rows_in_the_given_order():
    g = Graph.from_edges(5, [(0, 1), (0, 3), (1, 2), (3, 4)],
                         weights=[1.0, 2.0, 3.0, 4.0])
    indptr, indices, weights = g.csr_arrays()
    positions, lengths = g.row_positions(np.array([3, 2, 0, 3]))
    assert list(lengths) == [2, 1, 2, 2]
    assert list(indices[positions]) == [0, 4, 1, 1, 3, 0, 4]
    assert list(weights[positions]) == [2.0, 4.0, 3.0, 1.0, 2.0, 2.0, 4.0]
    empty, none = Graph.empty(3).row_positions(np.array([2, 0]))
    assert len(empty) == 0 and list(none) == [0, 0]
    positions, lengths = g.row_positions(np.empty(0, dtype=np.int64))
    assert len(positions) == 0 and len(lengths) == 0


def test_split_cuts_every_part_like_subgraph():
    g = Graph.from_edges(7, [(0, 5), (5, 6), (1, 3), (0, 6)],
                         weights=[1.0, 2.0, 3.0, 4.0])
    labels = np.array([0, 1, 2, 1, 3, 0, 0])
    parts = g.split(labels, 4)
    assert [list(ids) for _, ids in parts] == [[0, 5, 6], [1, 3], [2], [4]]
    for sub, ids in parts:
        expected, _ = g.subgraph(ids)
        for got, want in zip(sub.csr_arrays(), expected.csr_arrays()):
            assert np.array_equal(got, want)
    assert Graph.from_edges(0, []).split(np.empty(0, dtype=np.int64), 0) \
        == []


def test_split_rejects_bad_partitions():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(InvalidParameterError):
        g.split(np.array([0, 1, 1]), 2)     # edge (0, 1) crosses parts
    with pytest.raises(InvalidParameterError):
        g.split(np.array([0, 0, 2]), 2)     # label out of range
    with pytest.raises(InvalidParameterError):
        g.split(np.array([0, 0]), 1)        # wrong length


def test_to_dense_adjacency_symmetric():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
    dense = g.to_dense_adjacency()
    assert np.allclose(dense, dense.T)
    assert dense[0, 1] == 2.0 and dense[2, 1] == 3.0
    assert dense.diagonal().sum() == 0


def test_repr():
    assert repr(Graph.from_edges(3, [(0, 1)])) == "Graph(n=3, m=1)"


# ----------------------------------------------------------------------
# Property-based
# ----------------------------------------------------------------------
@given(
    n=st.integers(2, 12),
    data=st.data(),
)
def test_degree_sum_is_twice_edges(n, data):
    max_edges = n * (n - 1) // 2
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda t: t[0] != t[1]
    )
    edges = data.draw(st.lists(pairs, max_size=max_edges))
    g = Graph.from_edges(n, edges)
    assert g.degrees().sum() == 2 * g.num_edges


@given(n=st.integers(2, 10), data=st.data())
def test_neighbor_symmetry(n, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda t: t[0] != t[1]
    )
    edges = data.draw(st.lists(pairs, max_size=20))
    g = Graph.from_edges(n, edges)
    for u in range(n):
        for v in g.neighbors(u):
            assert u in g.neighbors(int(v))
