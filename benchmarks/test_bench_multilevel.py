"""Scalability bench: multilevel vs direct Fiedler solvers.

Wall-clock and order quality of the multilevel coarsen-solve-refine
backend (``SpectralLPM(backend="multilevel")``) against the direct
backends on growing grids — the "how would this scale to millions of
cells" answer.
"""

import pytest

from repro.core import SpectralLPM
from repro.experiments.runner import ExperimentResult
from repro.experiments.tables import render_table
from repro.geometry import Grid
from repro.graph import coarsen_hierarchy, grid_graph, rayleigh_quotient
from repro.metrics import two_sum

MULTILEVEL = SpectralLPM(backend="multilevel")

GRIDS = {"24x24": Grid((24, 24)), "40x40": Grid((40, 40))}


@pytest.mark.parametrize("grid_name", list(GRIDS))
def test_multilevel_timing(benchmark, grid_name):
    graph = grid_graph(GRIDS[grid_name])
    result = benchmark.pedantic(
        lambda: MULTILEVEL.order_graph(graph),
        iterations=1, rounds=3)
    assert sorted(result.permutation) == list(
        range(GRIDS[grid_name].size))


def test_multilevel_quality(benchmark, save_report):
    rows = {}

    def run_all():
        for grid_name, grid in GRIDS.items():
            graph = grid_graph(grid)
            exact_order = SpectralLPM(backend="auto").order_grid(grid)
            ml_order, (ml,) = MULTILEVEL.order_graph_with_fiedler(graph)
            rows[grid_name] = [
                two_sum(graph, exact_order),
                two_sum(graph, ml_order),
                float(rayleigh_quotient(graph, ml.vector)),
                len(coarsen_hierarchy(graph)),
            ]
        return rows

    benchmark.pedantic(run_all, iterations=1, rounds=1)
    result = ExperimentResult(
        exp_id="multilevel_quality",
        title="Multilevel vs exact spectral ordering",
        xlabel="quantity",
        ylabel="per grid",
        x=["two_sum exact", "two_sum multilevel", "rayleigh", "levels"],
    )
    for name, values in rows.items():
        result.add_series(name, values)
    save_report("multilevel_quality", render_table(result, precision=4))

    for name, values in rows.items():
        # Multilevel stays within 50% of exact on the quadratic
        # objective (in practice it is often *better*, because its
        # eigenspace member discretizes differently).
        assert values[1] <= 1.5 * values[0]
