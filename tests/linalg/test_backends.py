"""Tests for repro.linalg.backends — all backends must agree."""

import os

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.geometry import Grid
from repro.graph import cycle_graph, grid_graph, laplacian, path_graph
from repro.linalg import (
    BACKENDS,
    CSRMatrix,
    scipy_available,
    smallest_eigenpairs,
)

ALL_CONCRETE = ["dense", "lanczos"] + (
    ["scipy"] if scipy_available() else [])


@pytest.fixture(params=ALL_CONCRETE)
def backend(request):
    return request.param


def test_backend_list_stable():
    assert BACKENDS == ("auto", "dense", "lanczos", "lobpcg", "scipy",
                        "multilevel")


def test_multilevel_needs_graph():
    # The multilevel backend coarsens the *graph*; the matrix-level entry
    # point documents the redirection instead of guessing.
    lap = laplacian(path_graph(8))
    with pytest.raises(InvalidParameterError, match="multilevel"):
        smallest_eigenpairs(lap, 2, backend="multilevel")


@pytest.mark.skipif(os.environ.get("REPRO_NO_SCIPY", "") == "1",
                    reason="scipy-less environment requested")
def test_scipy_is_available_here():
    # The default evaluation environment ships scipy; make sure we
    # exercise it.  CI's deliberately scipy-less leg opts out via
    # REPRO_NO_SCIPY=1 (the fallback paths have their own coverage in
    # test_backend_fallbacks.py).
    assert scipy_available()


def test_path_graph_spectrum(backend):
    n = 30
    lap = laplacian(path_graph(n))
    values, vectors = smallest_eigenpairs(lap, 4, backend=backend)
    expected = 2 * (1 - np.cos(np.pi * np.arange(4) / n))
    assert np.allclose(values, expected, atol=1e-7)
    for j in range(4):
        y = vectors[:, j]
        assert np.linalg.norm(lap.matvec(y) - values[j] * y) < 1e-6


def test_cycle_graph_degenerate_spectrum(backend):
    n = 12
    lap = laplacian(cycle_graph(n))
    values, _ = smallest_eigenpairs(lap, 3, backend=backend)
    lambda2 = 2 * (1 - np.cos(2 * np.pi / n))
    assert values[0] == pytest.approx(0.0, abs=1e-8)
    assert values[1] == pytest.approx(lambda2, abs=1e-7)
    assert values[2] == pytest.approx(lambda2, abs=1e-7)


def test_deflated_constant_gives_fiedler(backend):
    n = 30
    lap = laplacian(path_graph(n))
    ones = np.ones(n) / np.sqrt(n)
    values, vectors = smallest_eigenpairs(lap, 2, backend=backend,
                                          deflate=[ones])
    expected = 2 * (1 - np.cos(np.pi * np.arange(1, 3) / n))
    assert np.allclose(values, expected, atol=1e-7)
    assert abs(vectors[:, 0] @ ones) < 1e-7


def test_backends_agree_on_grid():
    lap = laplacian(grid_graph(Grid((5, 4))))
    n = lap.n
    ones = np.ones(n) / np.sqrt(n)
    results = {
        b: smallest_eigenpairs(lap, 3, backend=b, deflate=[ones])[0]
        for b in ALL_CONCRETE
    }
    reference = results["dense"]
    for b, values in results.items():
        assert np.allclose(values, reference, atol=1e-7), b


def test_auto_backend_dispatches():
    lap = laplacian(path_graph(10))
    values, _ = smallest_eigenpairs(lap, 2, backend="auto")
    expected = 2 * (1 - np.cos(np.pi * np.arange(2) / 10))
    assert np.allclose(values, expected, atol=1e-8)


def test_unknown_backend_rejected():
    lap = laplacian(path_graph(4))
    with pytest.raises(InvalidParameterError):
        smallest_eigenpairs(lap, 1, backend="magma")


def test_k_validation():
    lap = laplacian(path_graph(4))
    with pytest.raises(InvalidParameterError):
        smallest_eigenpairs(lap, 0)
    with pytest.raises(InvalidParameterError):
        smallest_eigenpairs(lap, 5)


def test_deflate_shape_validation():
    lap = laplacian(path_graph(4))
    with pytest.raises(InvalidParameterError):
        smallest_eigenpairs(lap, 1, deflate=[np.ones(3)])


def test_scipy_small_k_fallback():
    if not scipy_available():
        pytest.skip("scipy not installed")
    # k >= n - 1 exercises the dense fallback inside the scipy backend.
    lap = laplacian(path_graph(4))
    values, _ = smallest_eigenpairs(lap, 4, backend="scipy")
    expected = 2 * (1 - np.cos(np.pi * np.arange(4) / 4))
    assert np.allclose(values, expected, atol=1e-8)


def test_weighted_laplacian_smallest(backend):
    # Weighted path: still PSD, lambda_1 = 0.
    from repro.graph import Graph
    g = Graph.from_edges(5, [(i, i + 1) for i in range(4)],
                         weights=[1.0, 2.0, 3.0, 4.0])
    lap = laplacian(g)
    values, _ = smallest_eigenpairs(lap, 2, backend=backend)
    dense_values = np.linalg.eigvalsh(lap.to_dense())[:2]
    assert np.allclose(values, dense_values, atol=1e-7)
