"""The closed-form Fiedler pair of full radius-1 grids.

The orthogonal radius-1 graph of a grid is a product of weighted paths,
so its Fiedler pair is a combination of cosine products, known exactly.
``auto`` serves every such grid from it.  These tests pin where it is
used and where it is not, that it counts as one eigensolve everywhere
solves are counted (backend ``"closed-form"``), that its eigenvalues
show the spectral gap, and that a pair failing its certificate falls
back to the numeric order, even where the graph being ordered differs
from the product only between tied cells.  Its agreement with every
exact backend is pinned in ``test_solver_equivalence.py``.
"""

import numpy as np
import pytest

import repro.core.fiedler as fiedler
from repro.core import SpectralConfig, SpectralLPM
from repro.core.spectral import symmetric_grid_probe
from repro.geometry import Grid, PointSet
from repro.graph import Graph, grid_graph
from repro.linalg import scipy_available, solver_invocations
from repro.obs import capture_spans, registry, tracing
from repro.service import OrderingService, OrderRequest

SOLVE_SECONDS = registry().histogram("repro_linalg_solve_seconds")


def fiedler_results(grid, **options):
    return SpectralLPM(**options).order_grid_with_fiedler(grid)


# ----------------------------------------------------------------------
# Accounting: one solve, one span, one histogram observation
# ----------------------------------------------------------------------
def test_cold_auto_grid_costs_one_closed_form_solve():
    grid = Grid((30, 40))
    observed = SOLVE_SECONDS.count(backend="closed-form")
    before = solver_invocations()
    with tracing(), capture_spans() as records:
        order, results = fiedler_results(grid)
    assert solver_invocations() - before == 1
    assert SOLVE_SECONDS.count(backend="closed-form") - observed == 1
    solves = [r for r in records if r.name == "linalg.solve"]
    assert [s.attributes["backend"] for s in solves] == ["closed-form"]
    assert solves[0].attributes["residual"] < 1e-9
    [result] = results
    assert result.backend == "closed-form"
    assert sorted(order.permutation) == list(range(grid.size))


@pytest.mark.parametrize("shape", [(12, 12), (9, 14), (5, 5, 5), (40,)])
def test_eigenvalues_hold_the_group_and_the_gap(shape):
    grid = Grid(shape)
    [result] = fiedler_results(grid)[1]
    [reference] = fiedler_results(grid, backend="dense")[1]
    values = result.eigenvalues
    assert result.multiplicity == reference.multiplicity
    assert np.allclose(values[:result.multiplicity], result.value)
    assert len(values) > result.multiplicity
    assert values[result.multiplicity] > result.value + 1e-6
    assert np.allclose(values, reference.eigenvalues, rtol=1e-10,
                       atol=1e-12)


def test_weights_are_read_per_axis():
    # Axis 1's edges weigh 1/3 of axis 0's: lambda_2 is the smaller of
    # the two single-path values, 4 w_a sin^2(pi / (2 n_a)).
    grid = Grid((10, 7))
    weights = {(1, 0): 3.0, (0, 1): 1.0}
    [result] = fiedler_results(
        grid, weight=lambda offset: weights[tuple(offset)])[1]
    expected = min(4 * w * np.sin(np.pi / (2 * side)) ** 2
                   for w, side in zip((3.0, 1.0), grid.shape))
    assert result.backend == "closed-form"
    assert result.value == pytest.approx(expected, rel=1e-14)


def test_service_grid_paths_use_the_closed_form():
    service = OrderingService()
    grid = Grid((16, 20))
    artifact = service.grid_artifact(grid)
    assert artifact.backend == "closed-form"
    assert artifact.solver_calls == 1
    assert artifact.residual < 1e-9
    configs = [SpectralConfig(weight=w)
               for w in ("unit", "gaussian", "inverse_manhattan")]
    orders = service.order_many([OrderRequest(Grid((18, 11)), config)
                                 for config in configs])
    stats = service.stats
    assert stats.topology_builds == 1
    assert stats.solver_calls == 1 + len(configs)
    for config, order in zip(configs, orders):
        again = service.grid_artifact(Grid((18, 11)), config)
        assert again.source == "memory"
        assert again.backend == "closed-form"
        assert again.order == order


# ----------------------------------------------------------------------
# Everything else keeps its solver
# ----------------------------------------------------------------------
@pytest.mark.parametrize("options", [
    {"backend": "dense"},
    {"backend": "lanczos"},
    {"connectivity": "moore"},
    {"radius": 2},
    {"radius": 2, "weight": "inverse_manhattan"},
])
def test_other_grid_models_and_explicit_backends_solve(options):
    [result] = fiedler_results(Grid((9, 11)), **options)[1]
    assert result.backend != "closed-form"


def test_point_sets_and_graphs_solve():
    grid = Grid((10, 10))
    recorder = SpectralLPM().order_graph_with_fiedler(grid_graph(grid))[1]
    assert recorder[0].backend != "closed-form"
    service = OrderingService()
    artifact = service.points_artifact(PointSet(grid, np.arange(60)))
    assert artifact.backend != "closed-form"


def test_tiny_grids_keep_their_trivial_orders():
    for shape in ((1,), (2,), (1, 2)):
        order, results = fiedler_results(Grid(shape))
        assert results == []
        assert list(order.permutation) == list(range(Grid(shape).size))


@pytest.mark.skipif(not scipy_available(), reason="needs scipy")
def test_explicit_scipy_still_factors_once(monkeypatch):
    import scipy.sparse.linalg as spla

    factors = []
    real_splu = spla.splu

    def counting_splu(matrix, *args, **kwargs):
        factors.append(real_splu(matrix, *args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", counting_splu)
    [result] = fiedler_results(Grid((24, 24)), backend="scipy")[1]
    assert result.backend == "scipy"
    assert len(factors) == 1


# ----------------------------------------------------------------------
# The certificate: a wrong pair falls back to the numeric path
# ----------------------------------------------------------------------
def test_corrupted_closed_form_vector_falls_back_to_the_numeric_order(
        monkeypatch):
    grid = Grid((13, 11))
    real_cosine = fiedler._product_cosine

    def noisy_cosine(shape, mode):
        column = real_cosine(shape, mode)
        return column + 1e-3 * np.cos(np.arange(len(column)))

    monkeypatch.setattr(fiedler, "_product_cosine", noisy_cosine)
    before = solver_invocations()
    order, [result] = fiedler_results(grid)
    assert solver_invocations() - before >= 2
    assert result.backend != "closed-form"
    assert order == SpectralLPM(backend="dense").order_grid(grid)


def test_certificate_rejects_a_graph_the_weights_do_not_describe():
    grid = Grid((8, 6))
    probe = symmetric_grid_probe(grid)
    graph = grid_graph(grid, weight=lambda offset: 1.0 + offset[0])
    assert fiedler.grid_fiedler_result(grid.shape, (1.0, 1.0), graph,
                                       probe) is None
    certified = fiedler.grid_fiedler_result(grid.shape, (2.0, 1.0), graph,
                                            probe)
    assert certified is not None and certified.backend == "closed-form"


def row_edges(shape):
    """The axis-0 edges of a 2-D grid, between cells of one column."""
    rows, cols = shape
    return [(i * cols + j, (i + 1) * cols + j)
            for i in range(rows - 1) for j in range(cols)]


@pytest.mark.parametrize("change", ["drop axis 1", "rewire axis 1"])
def test_certificate_sees_edges_between_tied_cells(change):
    # The Fiedler vector of a 9x4 grid varies along axis 0 only, so its
    # own matvec cannot see axis-1 edges: every one of them joins two
    # cells with equal entries.
    grid = Grid((9, 4))
    edges = row_edges(grid.shape)
    if change == "rewire axis 1":
        # Each row becomes a path 0-2-1-3 instead of 0-1-2-3: same
        # edge count, still connected, a different graph.
        edges += [(i * 4 + a, i * 4 + b) for i in range(9)
                  for a, b in ((0, 2), (2, 1), (1, 3))]
    graph = Graph.from_edges(grid.size, edges)
    assert fiedler.grid_fiedler_result(
        grid.shape, (1.0, 1.0), graph, symmetric_grid_probe(grid)) is None
    order, results = SpectralLPM().order_grid_with_fiedler(grid, graph)
    assert all(r.backend != "closed-form" for r in results)
    assert order == SpectralLPM(backend="dense").order_graph(
        graph, probe=symmetric_grid_probe(grid))
