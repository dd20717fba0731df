"""Point-set components bench: one stacked dense eigensolve per size.

Orders seeded sparse point sets (30-60% of a 40x40 grid's cells, so
many small components) through ``SpectralLPM`` under ``auto`` and
appends one record to ``BENCH_spectral.json`` via the shared
``save_json`` fixture: the wall seconds of the induced-graph builds and
orders, the components that need a Fiedler pair (three or more cells)
and the dense eigensolves they took.  Components of one size share one
stacked solve, so ``stacks`` counts distinct component sizes per point
set, not components.
"""

import time

import numpy as np

from repro.core import SpectralLPM
from repro.geometry import Grid
from repro.graph import induced_grid_graph
from repro.obs import registry

from conftest import once

GRID = Grid((40, 40))
DENSITIES = (0.30, 0.36, 0.42, 0.48, 0.54, 0.60)
SEED = 5


def _dense_solves() -> int:
    solves = registry().get("repro_linalg_solve_seconds")
    return solves.count(backend="dense") if solves else 0


def _order_point_sets(point_sets):
    algorithm = SpectralLPM()
    components = 0
    before = _dense_solves()
    start = time.perf_counter()
    for cells in point_sets:
        graph, _ = induced_grid_graph(GRID, cells)
        order, results = algorithm.order_graph_with_fiedler(graph)
        assert sorted(order.permutation) == list(range(len(cells)))
        components += len(results)
    return (time.perf_counter() - start, components,
            _dense_solves() - before)


def test_point_set_components(benchmark, save_json):
    rng = np.random.default_rng(SEED)
    point_sets = [rng.choice(GRID.size, round(density * GRID.size),
                             replace=False) for density in DENSITIES]
    # A first pass pays the one-time costs (scipy's import on the first
    # large component) outside the record.
    _order_point_sets(point_sets)
    seconds, components, stacks = once(benchmark, _order_point_sets,
                                       point_sets)
    # A stack holds every component of one size, so there are at most
    # as many stacks as components, and fewer wherever sizes repeat.
    assert 0 < stacks < components
    save_json({
        "name": "point_components",
        "n": sum(len(cells) for cells in point_sets),
        "grid": f"{GRID.shape[0]}x{GRID.shape[1]}",
        "backend": "auto",
        "point_sets": len(point_sets),
        "seconds": round(seconds, 3),
        "components": components,
        "stacks": stacks,
    })
