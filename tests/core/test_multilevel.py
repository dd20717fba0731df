"""Tests for repro.core.multilevel and the multilevel backend's orders."""

import numpy as np
import pytest

from repro.api import SpectralIndex
from repro.core import (
    SpectralConfig,
    SpectralLPM,
    fiedler_vector,
    multilevel_eigenspace,
)
from repro.core.multilevel import GROUP_RTOL
from repro.core.ordering import order_by_values
from repro.core.spectral import snap_ties
from repro.errors import GraphStructureError, InvalidParameterError
from repro.geometry import Grid, PointSet
from repro.graph import Graph, grid_graph, path_graph
from repro.linalg.operators import canonical_in_span
from repro.linalg.power import deterministic_start
from repro.metrics import two_sum

MULTILEVEL = SpectralLPM(backend="multilevel")


def test_rayleigh_close_to_lambda2():
    g = grid_graph(Grid((16, 16)))
    space = multilevel_eigenspace(g, min_size=32)
    exact = fiedler_vector(g, backend="dense").value
    assert space.values[0] <= 1.10 * exact
    assert space.values[0] >= exact - 1e-9  # lambda_2 is a lower bound


def test_order_is_valid_permutation():
    g = grid_graph(Grid((12, 12)))
    order = MULTILEVEL.order_graph(g)
    assert sorted(order.permutation) == list(range(144))


def test_quality_competitive_with_exact():
    grid = Grid((16, 16))
    g = grid_graph(grid)
    exact_cost = two_sum(g, SpectralLPM(backend="dense").order_grid(grid))
    ml_cost = two_sum(g, MULTILEVEL.order_graph(g))
    assert ml_cost <= 1.5 * exact_cost


def test_deterministic():
    g = grid_graph(Grid((10, 10)))
    a = multilevel_eigenspace(g)
    b = multilevel_eigenspace(g)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)
    assert MULTILEVEL.order_graph(g) == MULTILEVEL.order_graph(g)


def test_small_graph_skips_coarsening():
    g = path_graph(10)
    assert multilevel_eigenspace(g, min_size=64).levels == 0
    perm = list(MULTILEVEL.order_graph(g).permutation)
    assert perm == sorted(perm) or perm == sorted(perm, reverse=True)


def test_levels_reported():
    g = grid_graph(Grid((16, 16)))
    space = multilevel_eigenspace(g, min_size=32)
    assert space.levels >= 2
    assert space.coarsest_size <= 32


def test_smoothing_improves_quotient():
    g = grid_graph(Grid((16, 16)))
    rough = multilevel_eigenspace(g, min_size=32, smoothing_steps=0)
    smooth = multilevel_eigenspace(g, min_size=32, smoothing_steps=60)
    assert smooth.values[0] <= rough.values[0] + 1e-12


def test_disconnected_rejected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphStructureError):
        multilevel_eigenspace(g)


def test_validation():
    g = path_graph(6)
    with pytest.raises(InvalidParameterError):
        multilevel_eigenspace(Graph.empty(1))
    with pytest.raises(InvalidParameterError):
        multilevel_eigenspace(g, smoothing_steps=-1)


@pytest.mark.parametrize("kind", ["orthogonal", "moore", "random-weights"])
def test_backend_order_is_the_eigenspace_order(kind,
                                               random_weight_grid_graph):
    """The multilevel backend orders a connected graph by the bottom
    Ritz group of :func:`multilevel_eigenspace`, canonicalized by the
    default probe, snapped and sorted with the index tie-break."""
    graph = {
        "orthogonal": lambda: grid_graph(Grid((12, 12))),
        "moore": lambda: grid_graph(Grid((10, 14)), connectivity="moore"),
        "random-weights": lambda: random_weight_grid_graph(12, seed=3),
    }[kind]()
    n = graph.num_vertices
    space = multilevel_eigenspace(graph)
    theta0 = float(space.values[0])
    tol = max(GROUP_RTOL * max(abs(theta0), 1e-12), 1e-10)
    basis = space.vectors[:, space.values <= theta0 + tol]
    vector = canonical_in_span(basis, deterministic_start(n))
    expected = order_by_values(snap_ties(vector))
    assert MULTILEVEL.order_graph(graph) == expected


def test_multilevel_index_orders_each_component_of_a_point_set():
    points = PointSet(Grid((8, 8)), [0, 1, 2, 40, 41, 63])
    index = SpectralIndex.build(points,
                                config=SpectralConfig(backend="multilevel"))
    # Components by smallest cell: {0, 1, 2}, {40, 41}, {63}, each
    # contiguous in the order.
    positions = list(index.order.permutation)
    assert sorted(positions) == list(range(6))
    assert set(positions[:3]) == {0, 1, 2}
    assert set(positions[3:5]) == {3, 4}
    assert positions[5] == 5
