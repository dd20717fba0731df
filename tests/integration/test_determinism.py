"""Determinism guarantees, exhaustively.

DESIGN.md promises: every API that could be order-ambiguous resolves
deterministically, and spectral orders are identical across eigensolver
backends.  This file is the single place that pins all of it.
"""

import numpy as np
import pytest

from repro.core import (
    SpectralLPM,
    multilevel_eigenspace,
    order_by_values,
    snap_ties,
    spectral_bisection_order,
)
from repro.datasets import dataset_by_name
from repro.geometry import Grid
from repro.graph import grid_graph
from repro.linalg import scipy_available
from repro.linalg.operators import canonical_in_span
from repro.linalg.power import deterministic_start
from repro.api import make_mapping
from repro.mapping import MAPPING_NAMES
from repro.query import knn_window_recall, random_boxes

BACKENDS = ["dense", "lanczos"] + (["scipy"] if scipy_available() else [])


@pytest.mark.parametrize("shape", [(4, 4), (3, 3, 3), (6, 4), (2, 9)])
def test_spectral_orders_identical_across_backends(shape):
    orders = [SpectralLPM(backend=b).order_grid(Grid(shape))
              for b in BACKENDS]
    assert all(order == orders[0] for order in orders)


@pytest.mark.parametrize("shape", [(4, 4), (5, 3)])
def test_weighted_and_moore_models_cross_backend(shape):
    for kwargs in ({"connectivity": "moore"},
                   {"radius": 2, "weight": "inverse_manhattan"}):
        orders = [SpectralLPM(backend=b, **kwargs).order_grid(Grid(shape))
                  for b in BACKENDS]
        assert all(order == orders[0] for order in orders)


@pytest.mark.parametrize("name", MAPPING_NAMES)
def test_every_mapping_is_repeatable(name):
    grid = Grid((5, 5))
    first = make_mapping(name).ranks_for_grid(grid)
    second = make_mapping(name).ranks_for_grid(grid)
    assert np.array_equal(first, second)


def test_bisection_and_multilevel_cross_backend():
    grid = Grid((6, 6))
    graph = grid_graph(grid)
    bisection_orders = [
        spectral_bisection_order(graph, backend=b) for b in BACKENDS
    ]
    assert all(o == bisection_orders[0] for o in bisection_orders)
    # The multilevel coarse solve's backend changes neither the
    # spectrum nor the order of the canonical vector in the lambda_2
    # group (the multilevel backend's rule; bases may differ).
    spaces = [multilevel_eigenspace(graph, coarse_backend=b)
              for b in ("dense", "lanczos")]
    np.testing.assert_allclose(spaces[0].values, spaces[1].values,
                               atol=1e-10)
    probe = deterministic_start(graph.num_vertices)
    ml_orders = [
        order_by_values(snap_ties(canonical_in_span(
            space.vectors[:, space.values <= 1.01 * space.values[0]],
            probe)))
        for space in spaces
    ]
    assert ml_orders[0] == ml_orders[1]


def test_datasets_are_pure_functions_of_seed():
    grid = Grid((16, 16))
    for name in ("uniform", "gaussian", "zipf"):
        assert np.array_equal(dataset_by_name(name, grid, 30, seed=9),
                              dataset_by_name(name, grid, 30, seed=9))


def test_workloads_are_pure_functions_of_seed():
    grid = Grid((16, 16))
    assert random_boxes(grid, (4, 4), 10, seed=3) == \
        random_boxes(grid, (4, 4), 10, seed=3)
    ranks = make_mapping("hilbert").ranks_for_grid(grid)
    assert knn_window_recall(grid, ranks, 4, 8, seed=2) == \
        knn_window_recall(grid, ranks, 4, 8, seed=2)


def test_experiment_harnesses_are_deterministic():
    from repro.experiments import run_fig1, run_fig5b
    a = run_fig5b(side=8, backend="dense")
    b = run_fig5b(side=8, backend="dense")
    assert [s.y for s in a.series] == [s.y for s in b.series]
    a1 = run_fig1(side=4, backend="dense")
    b1 = run_fig1(side=4, backend="dense")
    assert [s.y for s in a1.series] == [s.y for s in b1.series]
