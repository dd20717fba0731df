"""Regression: scipy-backend deflation must stay matrix-free, and a
scipy solve must not depend on what the process solved before.

The scipy backend once materialized the deflation shift as
``col @ col.T`` — for the constant vector that is a fully dense
``n x n`` matrix stored in CSR clothing (an O(n^2) allocation), which
the sparse factorization then had to chew through.  These tests pin the
fix: ordering a 128 x 128 grid through the scipy backend must complete
within a modest peak-memory envelope, and the deflated solve must agree
with the dense oracle exactly.

Without a start vector ARPACK begins from a random one on every call,
so the same solve returned different last bits after an unrelated one;
the backend passes a fixed start.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import SpectralLPM
from repro.geometry import Grid
from repro.graph import grid_graph, laplacian, path_graph
from repro.linalg import scipy_available, smallest_eigenpairs

pytestmark = pytest.mark.skipif(not scipy_available(),
                                reason="scipy not installed")

#: Peak traced allocation allowed for the 128x128 solve.  The dense
#: rank-1 deflation update alone would need ~2 GB for n = 16384
#: (n^2 float64 values plus CSR indices), so this bound fails loudly on
#: any densification regression while leaving ~20x headroom over the
#: matrix-free implementation's real footprint.
PEAK_BYTES_LIMIT = 256 * 1024 * 1024


def test_scipy_deflation_allocates_no_dense_intermediate():
    grid = Grid((128, 128))
    algorithm = SpectralLPM(backend="scipy")
    graph = algorithm.build_grid_graph(grid)
    tracemalloc.start()
    try:
        order = algorithm.order_graph(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(order.permutation) == list(range(grid.size))
    n = grid.size
    dense_update_bytes = n * n * 8
    assert peak < PEAK_BYTES_LIMIT, (
        f"peak {peak / 1e6:.0f} MB; a dense n^2 deflation update would "
        f"need at least {dense_update_bytes / 1e6:.0f} MB"
    )


def test_scipy_deflated_values_match_dense():
    lap = laplacian(path_graph(60))
    ones = np.ones(60) / np.sqrt(60)
    values, vectors = smallest_eigenpairs(lap, 3, backend="scipy",
                                          deflate=[ones])
    reference, _ = smallest_eigenpairs(lap, 3, backend="dense",
                                       deflate=[ones])
    assert np.allclose(values, reference, atol=1e-8)
    assert np.abs(vectors.T @ ones).max() < 1e-8


def test_scipy_multi_vector_deflation():
    # Deflating several directions at once exercises the p > 1 Woodbury
    # capacitance path.
    lap = laplacian(grid_graph(Grid((9, 7))))
    n = lap.n
    ones = np.ones(n) / np.sqrt(n)
    dense_values, dense_vectors = smallest_eigenpairs(
        lap, 3, backend="dense", deflate=[ones])
    extra = dense_vectors[:, 0]
    values, _ = smallest_eigenpairs(lap, 2, backend="scipy",
                                    deflate=[ones, extra])
    assert np.allclose(values, dense_values[1:3], atol=1e-8)


@pytest.mark.parametrize("deflated", [False, True])
def test_scipy_solve_is_bit_identical_after_an_unrelated_solve(deflated):
    lap = laplacian(grid_graph(Grid((20, 30))))
    ones = np.ones(lap.n) / np.sqrt(lap.n)
    deflate = [ones] if deflated else []
    values, vectors = smallest_eigenpairs(lap, 4, backend="scipy",
                                          deflate=deflate)
    smallest_eigenpairs(laplacian(grid_graph(Grid((17, 19)))), 3,
                        backend="scipy")
    again_values, again_vectors = smallest_eigenpairs(
        lap, 4, backend="scipy", deflate=deflate)
    assert np.array_equal(again_values, values)
    assert np.array_equal(again_vectors, vectors)
