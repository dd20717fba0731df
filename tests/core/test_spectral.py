"""Tests for repro.core.spectral — the paper's algorithm end to end."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.core import (
    LinearOrder,
    SpectralConfig,
    SpectralLPM,
    fiedler_vector,
    spectral_order,
    symmetric_grid_probe,
)
from repro.errors import InvalidParameterError
from repro.geometry import Grid
from repro.graph import Graph, cycle_graph, path_graph, quadratic_form
from repro.linalg import scipy_available
from repro.metrics import two_sum

BACKENDS = ["dense", "lanczos"] + (["scipy"] if scipy_available() else [])


# ----------------------------------------------------------------------
# Classic graphs: known-correct orders
# ----------------------------------------------------------------------
def test_path_graph_recovers_path_order(dense_lpm):
    order = dense_lpm.order_graph(path_graph(11))
    assert (list(order.permutation) == list(range(11))
            or list(order.permutation) == list(range(10, -1, -1)))


def test_longer_path_still_exact(dense_lpm):
    order = dense_lpm.order_graph(path_graph(40))
    perm = list(order.permutation)
    assert perm == sorted(perm) or perm == sorted(perm, reverse=True)


def test_cycle_order_has_tiny_edge_bandwidth(dense_lpm):
    """A cycle's spectral order is the classic two-interleaved-arcs
    arrangement: every ring edge stretches at most 2 ranks (the known
    optimal linear arrangement of a cycle)."""
    from repro.metrics import bandwidth
    order = dense_lpm.order_graph(cycle_graph(12))
    assert bandwidth(cycle_graph(12), order) <= 3


def test_rectangular_grid_orders_along_long_axis(dense_lpm):
    grid = Grid((8, 3))
    order = dense_lpm.order_grid(grid)
    # lambda_2's mode varies along the long axis, so the first and last
    # ranked cells sit at opposite ends of axis 0.
    first = grid.point_of(order.item_at(0))
    last = grid.point_of(order.item_at(grid.size - 1))
    assert abs(first[0] - last[0]) == 7


# ----------------------------------------------------------------------
# Determinism and backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (6, 6), (4, 4, 4),
                                   (5, 3)])
def test_cross_backend_orders_identical(shape):
    orders = [SpectralLPM(backend=b).order_grid(Grid(shape))
              for b in BACKENDS]
    for other in orders[1:]:
        assert other == orders[0]


def test_repeated_runs_identical(dense_lpm, grid8):
    assert dense_lpm.order_grid(grid8) == dense_lpm.order_grid(grid8)


def test_order_is_permutation(dense_lpm, grid8):
    order = dense_lpm.order_grid(grid8)
    assert sorted(order.permutation) == list(range(grid8.size))


# ----------------------------------------------------------------------
# Optimality (Theorem 1 family)
# ----------------------------------------------------------------------
def test_spectral_beats_random_orders_on_two_sum(dense_lpm, grid8):
    graph = dense_lpm.build_grid_graph(grid8)
    spectral = dense_lpm.order_grid(grid8)
    spectral_cost = two_sum(graph, spectral)
    rng = np.random.default_rng(17)
    for _ in range(20):
        random_order = LinearOrder(rng.permutation(grid8.size))
        assert spectral_cost < two_sum(graph, random_order)


def test_continuous_objective_at_most_discrete(dense_lpm, grid4):
    """The Fiedler value lower-bounds any normalized discrete order."""
    graph = dense_lpm.build_grid_graph(grid4)
    fiedler = fiedler_vector(graph, backend="dense")
    order = dense_lpm.order_grid(grid4)
    ranks = order.ranks.astype(float)
    ranks -= ranks.mean()
    ranks /= np.linalg.norm(ranks)
    assert quadratic_form(graph, ranks) >= fiedler.value - 1e-9


# ----------------------------------------------------------------------
# Small and degenerate inputs
# ----------------------------------------------------------------------
def test_empty_graph(dense_lpm):
    order = dense_lpm.order_graph(Graph.from_edges(0, []))
    assert order.n == 0


def test_single_vertex(dense_lpm):
    order = dense_lpm.order_graph(Graph.empty(1))
    assert list(order.permutation) == [0]


def test_two_vertices(dense_lpm):
    order = dense_lpm.order_graph(Graph.from_edges(2, [(0, 1)]))
    assert list(order.permutation) == [0, 1]


def test_single_cell_grid(dense_lpm):
    order = dense_lpm.order_grid(Grid((1, 1)))
    assert order.n == 1


def test_1d_grid_is_path_order(dense_lpm):
    order = dense_lpm.order_grid(Grid((9,)))
    perm = list(order.permutation)
    assert perm == sorted(perm) or perm == sorted(perm, reverse=True)


# ----------------------------------------------------------------------
# Disconnected graphs
# ----------------------------------------------------------------------
def test_disconnected_per_component(dense_lpm):
    g = Graph.from_edges(7, [(0, 1), (1, 2), (4, 5), (5, 6)])
    order = dense_lpm.order_graph(g)
    ranks = order.ranks
    # Components occupy contiguous rank blocks, ordered by min vertex.
    assert sorted(int(ranks[v]) for v in (0, 1, 2)) == [0, 1, 2]
    assert int(ranks[3]) == 3
    assert sorted(int(ranks[v]) for v in (4, 5, 6)) == [4, 5, 6]


@pytest.mark.parametrize("backend", BACKENDS + ["multilevel"])
def test_disconnected_point_set_walks_the_graph_once(backend, monkeypatch):
    # One component labelling per order; no Fiedler solve re-checks the
    # connectivity of a component it was handed.
    import repro.core.fiedler as fiedler_module
    import repro.core.multilevel as multilevel_module
    import repro.core.spectral as spectral_module
    from repro.core import order_components
    from repro.graph import connected_components, induced_grid_graph

    calls = {"labelled": 0, "checked": 0}
    real_label = spectral_module.connected_components

    def counting_label(graph):
        calls["labelled"] += 1
        return real_label(graph)

    def counting_check(graph):
        calls["checked"] += 1
        return True

    grid = Grid((24, 20))
    cells = np.random.default_rng(3).choice(grid.size, 250, replace=False)
    lpm = SpectralLPM(backend=backend)
    graph, _ = induced_grid_graph(grid, cells)
    sizes = np.bincount(connected_components(graph)[0])
    assert (sizes >= 3).sum() >= 3
    # The reference: the public per-component path, which checks.
    expected = order_components(graph, lambda c: lpm.order_graph(c))
    monkeypatch.setattr(spectral_module, "connected_components",
                        counting_label)
    monkeypatch.setattr(fiedler_module, "is_connected", counting_check)
    monkeypatch.setattr(multilevel_module, "is_connected", counting_check)
    order = lpm.order_graph(graph)
    assert calls == {"labelled": 1, "checked": 0}
    assert order == expected


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def test_invalid_config_rejected():
    with pytest.raises(InvalidParameterError):
        SpectralLPM(backend="magma")
    with pytest.raises(InvalidParameterError):
        SpectralLPM(radius=0)
    with pytest.raises(InvalidParameterError):
        SpectralLPM(connectivity="hexagonal")
    with pytest.raises(InvalidParameterError):
        SpectralLPM.from_config(SpectralConfig(backend="magma"))


def test_config_is_the_papers_four_choices():
    # The graph model (connectivity, radius, weight) and the solver.
    four = ["connectivity", "radius", "weight", "backend"]
    assert [f.name for f in dataclasses.fields(SpectralConfig)] == four
    assert list(inspect.signature(SpectralLPM).parameters) == four
    with pytest.raises(TypeError):
        SpectralLPM(tie_break="index")


@pytest.mark.parametrize("alias, name", [
    (4, "orthogonal"), ("4", "orthogonal"), ("orthogonal", "orthogonal"),
    (8, "moore"), ("8", "moore"), ("moore", "moore"),
])
def test_connectivity_is_stored_under_its_canonical_name(alias, name):
    assert SpectralLPM(connectivity=alias).config.connectivity == name
    assert SpectralLPM.from_config(
        SpectralConfig(connectivity=alias)).config.connectivity == name


def test_config_reporting():
    lpm = SpectralLPM(connectivity="moore", radius=2,
                      weight="inverse_manhattan", backend="dense")
    config = lpm.config
    assert config.connectivity == "moore"
    assert config.radius == 2
    assert config.weight == "inverse_manhattan"
    assert "SpectralLPM" in repr(lpm)


def test_callable_weight_named_in_config():
    def my_weight(offset):
        return 2.0

    # The "callable:" prefix keeps a lossy config from ever aliasing a
    # registered weight model of the same name (a cache-key hazard).
    assert SpectralLPM(weight=my_weight).config.weight == \
        "callable:my_weight"


def test_connectivity_variants_give_valid_orders(grid4):
    for kwargs in ({"connectivity": "moore"},
                   {"radius": 2, "weight": "inverse_manhattan"}):
        order = SpectralLPM(backend="dense", **kwargs).order_grid(grid4)
        assert sorted(order.permutation) == list(range(16))


# ----------------------------------------------------------------------
# order_points (sparse subsets)
# ----------------------------------------------------------------------
def test_order_points_connected_subset(dense_lpm):
    grid = Grid((4, 4))
    # A connected 2x3 block.
    cells = [grid.index_of((r, c)) for r in (1, 2) for c in (0, 1, 2)]
    order, ordered_cells = dense_lpm.order_points(grid, cells)
    assert list(ordered_cells) == sorted(cells)
    assert order.n == 6


def test_order_points_disconnected_subset(dense_lpm):
    grid = Grid((5, 5))
    cells = [grid.index_of((0, 0)), grid.index_of((0, 1)),
             grid.index_of((4, 4))]
    order, ordered_cells = dense_lpm.order_points(grid, cells)
    assert order.n == 3
    assert sorted(order.permutation) == [0, 1, 2]


# ----------------------------------------------------------------------
# Convenience API
# ----------------------------------------------------------------------
def test_spectral_order_dispatch():
    grid = Grid((3, 3))
    by_grid = spectral_order(grid, backend="dense")
    by_graph = spectral_order(
        SpectralLPM(backend="dense").build_grid_graph(grid),
        backend="dense")
    assert by_grid.n == by_graph.n == 9
    with pytest.raises(InvalidParameterError):
        spectral_order([1, 2, 3])


# ----------------------------------------------------------------------
# The symmetric grid probe
# ----------------------------------------------------------------------
def test_symmetric_probe_is_axis_invariant():
    probe = symmetric_grid_probe(Grid((5, 5)))
    grid = Grid((5, 5))
    matrix = probe.reshape(5, 5)
    # Swapping the axes leaves the probe unchanged.
    assert np.allclose(matrix, matrix.T)
    assert probe.sum() == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(probe) == pytest.approx(1.0)
    assert grid.size == probe.size


def test_grid_order_treats_axes_symmetrically(dense_lpm):
    """The fairness property behind Figure 5b: axis profiles coincide."""
    from repro.metrics import axis_rank_distance
    grid = Grid((8, 8))
    ranks = dense_lpm.order_grid(grid).ranks
    for delta in (1, 3, 5):
        x = axis_rank_distance(grid, ranks, 0, delta)
        y = axis_rank_distance(grid, ranks, 1, delta)
        # Tie-breaking perturbs the two profiles by a couple of ranks.
        assert abs(x - y) <= max(2.0, 0.1 * max(x, y))
