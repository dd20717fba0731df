"""Solver-scaling bench: the overhauled eigensolver hot path.

Times ``SpectralLPM.order_grid`` per backend on growing grids and
appends machine-readable records to ``results/BENCH_spectral.json`` via
the ``save_json`` fixture, so the perf trajectory of the solver stack is
tracked across commits.

The quick tier (always on) keeps CI time negligible; the full sweep —
64^2 through 512^2 per the solver-overhaul acceptance criteria, plus the
1024^2 multilevel run — activates with ``REPRO_BENCH_FULL=1``.  Records
go to the committed BENCH_spectral.json only under
``REPRO_BENCH_RECORD=1``; default runs append to its untracked .local
sibling (see ``save_json``).  The
historical pre-overhaul baseline (restart-from-scratch Lanczos with
Python-loop reorthogonalization) is recorded in BENCH_spectral.json as
``seed-lanczos`` entries for comparison; the seed could not finish
256^2 within 30 minutes on the same machine.
"""

import os
import time

import pytest

from repro.core import SpectralLPM
from repro.geometry import Grid
from repro.linalg import scipy_available

from conftest import once

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

QUICK_CASES = [(64, "lanczos"), (64, "multilevel")] + (
    [(64, "scipy")] if scipy_available() else [])

FULL_CASES = [
    (128, "lanczos"), (256, "lanczos"),
    (128, "multilevel"), (256, "multilevel"),
    (512, "multilevel"), (1024, "multilevel"),
] + ([(128, "scipy"), (256, "scipy"), (512, "scipy")]
     if scipy_available() else [])


def _run_case(side, backend, save_json):
    grid = Grid((side, side))
    algorithm = SpectralLPM(backend=backend)
    start = time.perf_counter()
    order = algorithm.order_grid(grid)
    seconds = time.perf_counter() - start
    assert sorted(order.permutation) == list(range(grid.size))
    save_json({
        "name": "order_grid",
        "n": grid.size,
        "grid": f"{side}x{side}",
        "backend": backend,
        "seconds": round(seconds, 3),
    })
    return seconds


@pytest.mark.parametrize("side,backend", QUICK_CASES)
def test_solver_scaling_quick(benchmark, save_json, side, backend):
    once(benchmark, _run_case, side, backend, save_json)


@pytest.mark.skipif(not FULL, reason="set REPRO_BENCH_FULL=1 to run")
@pytest.mark.parametrize("side,backend", FULL_CASES)
def test_solver_scaling_full(benchmark, save_json, side, backend):
    seconds = once(benchmark, _run_case, side, backend, save_json)
    if (side, backend) == (1024, "multilevel"):
        # Acceptance criterion of the solver overhaul: a million-cell
        # grid orders in under a minute.
        assert seconds < 60.0


@pytest.mark.skipif(not FULL, reason="set REPRO_BENCH_FULL=1 to run")
def test_multilevel_quality_bound(save_json):
    """1024^2 multilevel Rayleigh quotient within 5% of lambda_2."""
    import numpy as np

    from repro.core import fiedler_vector
    from repro.graph import grid_graph, rayleigh_quotient

    side = 1024
    graph = grid_graph(Grid((side, side)))
    start = time.perf_counter()
    result = fiedler_vector(graph, backend="multilevel")
    seconds = time.perf_counter() - start
    rayleigh = float(rayleigh_quotient(graph, result.vector))
    lambda2 = 2 * (1 - np.cos(np.pi / side))
    relative_error = (rayleigh - lambda2) / lambda2
    save_json({
        "name": "multilevel_quality",
        "n": side * side,
        "grid": f"{side}x{side}",
        "backend": "multilevel",
        "seconds": round(seconds, 3),
        "rayleigh": rayleigh,
        "lambda2": lambda2,
        "relative_error": relative_error,
    })
    assert 0 <= relative_error < 0.05
