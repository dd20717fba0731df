"""Tests for repro.graph.builders."""

import numpy as np
import pytest

from repro.errors import DimensionError, InvalidParameterError
from repro.geometry import Grid
from repro.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    induced_grid_graph,
    knn_graph,
    path_graph,
    radius_graph,
    star_graph,
)

# ----------------------------------------------------------------------
# Grid graphs
# ----------------------------------------------------------------------
def test_grid_graph_edge_count_2d():
    # s x s orthogonal grid: 2 * s * (s-1) edges.
    for side in (2, 3, 5):
        g = grid_graph(Grid((side, side)))
        assert g.num_edges == 2 * side * (side - 1)


def test_grid_graph_edge_count_3d():
    grid = Grid((3, 3, 3))
    g = grid_graph(grid)
    assert g.num_edges == 3 * (3 * 3 * 2)  # 3 axes x 9 lines x 2 edges


def test_grid_graph_edges_are_manhattan_1():
    grid = Grid((4, 3))
    g = grid_graph(grid)
    for u, v, _ in g.edges():
        assert Grid.manhattan(grid.point_of(u), grid.point_of(v)) == 1


def test_grid_graph_moore_edges_are_chebyshev_1():
    grid = Grid((4, 4))
    g = grid_graph(grid, connectivity="moore")
    for u, v, _ in g.edges():
        assert Grid.chebyshev(grid.point_of(u), grid.point_of(v)) == 1
    # Moore adds the diagonals: 2*4*3 orthogonal + 2*3*3 diagonal pairs.
    assert g.num_edges == 24 + 18


def test_grid_graph_matches_neighbors_method():
    grid = Grid((3, 4))
    for connectivity in ("orthogonal", "moore"):
        g = grid_graph(grid, connectivity=connectivity)
        for index in range(grid.size):
            expected = sorted(
                grid.index_of(p)
                for p in grid.neighbors(grid.point_of(index), connectivity)
            )
            assert list(g.neighbors(index)) == expected


def test_grid_graph_radius2_weighted():
    grid = Grid((4, 4))
    g = grid_graph(grid, radius=2, weight="inverse_manhattan")
    # Distance-1 edges weigh 1, distance-2 edges weigh 1/2.
    a = grid.index_of((0, 0))
    assert g.edge_weight(a, grid.index_of((0, 1))) == 1.0
    assert g.edge_weight(a, grid.index_of((0, 2))) == 0.5
    assert g.edge_weight(a, grid.index_of((1, 1))) == 0.5
    assert not g.has_edge(a, grid.index_of((2, 2)))


def test_grid_graph_custom_weight_callable():
    grid = Grid((3, 3))
    g = grid_graph(grid, weight=lambda off: 7.0)
    assert g.edge_weight(0, 1) == 7.0


def test_grid_graph_radius_validation():
    with pytest.raises(InvalidParameterError):
        grid_graph(Grid((3, 3)), radius=0)


def test_grid_graph_rejects_non_positive_weights():
    # The direct-CSR fast path must enforce the same positive-weight
    # invariant Graph.from_edges does (PSD Laplacian assumption).
    with pytest.raises(InvalidParameterError):
        grid_graph(Grid((4, 4)), weight=lambda off: 0.0)
    with pytest.raises(InvalidParameterError):
        grid_graph(Grid((4, 4)), weight=lambda off: -1.0)


def test_grid_graph_1d_is_path():
    g = grid_graph(Grid((5,)))
    p = path_graph(5)
    assert g.num_edges == p.num_edges
    for u, v, _ in p.edges():
        assert g.has_edge(u, v)


def test_single_cell_grid_graph():
    g = grid_graph(Grid((1, 1)))
    assert g.num_vertices == 1
    assert g.num_edges == 0


# ----------------------------------------------------------------------
# Induced grid graphs
# ----------------------------------------------------------------------
def test_induced_grid_graph_subset():
    grid = Grid((3, 3))
    # An L-shape: (0,0),(1,0),(2,0),(2,1)
    cells = [grid.index_of(p) for p in [(0, 0), (1, 0), (2, 0), (2, 1)]]
    sub, ids = induced_grid_graph(grid, cells)
    assert list(ids) == sorted(cells)
    assert sub.num_vertices == 4
    assert sub.num_edges == 3  # the chain along the L


def test_induced_grid_graph_dedupes_cells():
    grid = Grid((3, 3))
    sub, ids = induced_grid_graph(grid, [0, 0, 1])
    assert sub.num_vertices == 2
    assert list(ids) == [0, 1]


@pytest.mark.parametrize("connectivity,radius,weight", [
    ("orthogonal", 1, "unit"), ("moore", 2, "gaussian"),
    ("orthogonal", 2, "inverse_manhattan"),
])
def test_induced_grid_graph_is_the_full_graphs_subgraph(connectivity, radius,
                                                        weight):
    # The induced graph is cut from the full grid's CSR arrays; it must
    # be the CSR Graph.subgraph builds, array for array and bit for bit.
    rng = np.random.default_rng(5)
    for trial in range(20):
        shape = tuple(int(side) for side in
                      rng.integers(1, 16, size=2 + trial % 2))
        grid = Grid(shape)
        cells = rng.choice(grid.size, int(rng.integers(1, grid.size + 1)),
                           replace=False)
        graph, ids = induced_grid_graph(grid, cells, connectivity=connectivity,
                                        radius=radius, weight=weight)
        expected, _ = grid_graph(grid, connectivity, radius, weight) \
            .subgraph(np.unique(cells))
        assert list(ids) == sorted(cells.tolist())
        assert graph.num_vertices == expected.num_vertices
        for got, want in zip(graph.csr_arrays(), expected.csr_arrays()):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_induced_grid_graph_validation():
    grid = Grid((3, 3))
    with pytest.raises(InvalidParameterError):
        induced_grid_graph(grid, [9])


# ----------------------------------------------------------------------
# Classic families
# ----------------------------------------------------------------------
def test_path_graph():
    g = path_graph(5)
    assert g.num_edges == 4
    assert list(g.degrees()) == [1, 2, 2, 2, 1]
    with pytest.raises(InvalidParameterError):
        path_graph(0)


def test_cycle_graph():
    g = cycle_graph(5)
    assert g.num_edges == 5
    assert all(d == 2 for d in g.degrees())
    with pytest.raises(InvalidParameterError):
        cycle_graph(2)


def test_complete_graph():
    g = complete_graph(5)
    assert g.num_edges == 10
    assert all(d == 4 for d in g.degrees())


def test_star_graph():
    g = star_graph(5)
    assert g.num_edges == 4
    assert g.degree(0) == 4
    assert all(g.degree(i) == 1 for i in range(1, 5))
    with pytest.raises(InvalidParameterError):
        star_graph(1)


# ----------------------------------------------------------------------
# Point-cloud graphs
# ----------------------------------------------------------------------
def test_knn_graph_symmetrized():
    points = np.array([[0, 0], [0, 1], [0, 2], [5, 5]])
    g = knn_graph(points, k=1)
    # 0<->1 and 1<->2 from their nearest choices; 3's nearest is 2.
    assert g.has_edge(0, 1)
    assert g.has_edge(2, 3)
    for u in range(4):
        for v in g.neighbors(u):
            assert u in g.neighbors(int(v))


def test_knn_graph_validation():
    points = np.array([[0, 0], [1, 1]])
    with pytest.raises(InvalidParameterError):
        knn_graph(points, k=2)
    with pytest.raises(DimensionError):
        knn_graph(np.array([1, 2, 3]), k=1)


def test_radius_graph_edges_and_weights():
    points = np.array([[0, 0], [0, 1], [0, 3]])
    g = radius_graph(points, radius=2, weight="inverse_manhattan")
    assert g.has_edge(0, 1)
    assert g.has_edge(1, 2)
    assert not g.has_edge(0, 2)
    assert g.edge_weight(1, 2) == 0.5


def test_radius_graph_metrics():
    points = np.array([[0, 0], [1, 1]])
    assert radius_graph(points, 1, metric="chebyshev").num_edges == 1
    assert radius_graph(points, 1, metric="manhattan").num_edges == 0
    assert radius_graph(points, 1.5, metric="euclidean").num_edges == 1
    with pytest.raises(InvalidParameterError):
        radius_graph(points, 1, metric="cosine")
    with pytest.raises(InvalidParameterError):
        radius_graph(points, 0)


def test_full_grid_radius_graph_equals_grid_graph():
    grid = Grid((3, 3))
    by_radius = radius_graph(grid.coordinates(), radius=1)
    by_grid = grid_graph(grid)
    assert by_radius.num_edges == by_grid.num_edges
    for u, v, _ in by_grid.edges():
        assert by_radius.has_edge(u, v)


def test_grid_graph_fast_path_matches_from_edges():
    """The direct-CSR fast path must equal the generic from_edges route
    entry for entry (structure, neighbour order, and weights)."""
    cases = [
        (Grid((7, 5)), "orthogonal", 1, "unit"),
        (Grid((6, 6)), "moore", 1, "unit"),
        (Grid((5, 4, 3)), "orthogonal", 2, "inverse_manhattan"),
        (Grid((9,)), "orthogonal", 3, "inverse_manhattan"),
    ]
    from repro.graph.builders import _canonical_offsets
    from repro.graph.weights import weight_function

    for grid, connectivity, radius, weight in cases:
        fast = grid_graph(grid, connectivity, radius, weight)
        wfn = weight_function(weight)
        coords = grid.coordinates()
        strides = np.array(grid.strides)
        shape = np.array(grid.shape)
        edges, weights = [], []
        for off in _canonical_offsets(grid.ndim, connectivity, radius):
            valid = np.ones(grid.size, dtype=bool)
            for axis, delta in enumerate(off):
                if delta > 0:
                    valid &= coords[:, axis] + delta < shape[axis]
                elif delta < 0:
                    valid &= coords[:, axis] + delta >= 0
            src = np.flatnonzero(valid)
            if not len(src):
                continue
            dst = src + int(np.array(off) @ strides)
            edges.append(np.stack([src, dst], axis=1))
            weights.append(np.full(len(src), wfn(off)))
        reference = Graph.from_edges(grid.size, np.concatenate(edges),
                                     np.concatenate(weights))
        f_indptr, f_indices, f_weights = fast.csr_arrays()
        r_indptr, r_indices, r_weights = reference.csr_arrays()
        assert np.array_equal(f_indptr, r_indptr)
        assert np.array_equal(f_indices, r_indices)
        assert np.allclose(f_weights, r_weights)
