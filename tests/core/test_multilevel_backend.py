"""The 'multilevel' backend as dispatched through fiedler_vector.

Covers the registration surface added with the multilevel-accelerated
``auto`` backend: explicit ``backend="multilevel"`` requests, the
size-cutoff dispatch under ``auto``, and the quality gate that falls
back to an exact solver when the approximation misses its
relative-residual bound.
"""

import numpy as np
import pytest

import repro.linalg.backends as backends
from repro.core import SpectralLPM, fiedler_vector
from repro.core.multilevel import multilevel_eigenspace
from repro.errors import InvalidParameterError
from repro.geometry import Grid
from repro.graph import grid_graph, path_graph


def test_explicit_multilevel_backend_returns_result():
    graph = grid_graph(Grid((16, 16)))
    result = fiedler_vector(graph, backend="multilevel")
    assert result.backend == "multilevel"
    assert result.multiplicity == 2
    expected = 2 * (1 - np.cos(np.pi / 16))
    assert result.value == pytest.approx(expected, rel=1e-6)
    assert np.linalg.norm(result.vector) == pytest.approx(1.0)
    assert result.vector.sum() == pytest.approx(0.0, abs=1e-8)


def test_spectral_lpm_accepts_multilevel():
    order = SpectralLPM(backend="multilevel").order_grid(Grid((12, 12)))
    assert sorted(order.permutation) == list(range(144))


def test_auto_selects_multilevel_above_cutoff(monkeypatch):
    monkeypatch.setattr(backends, "MULTILEVEL_CUTOFF", 100)
    graph = grid_graph(Grid((16, 16)))  # 256 > 100
    result = fiedler_vector(graph, backend="auto")
    assert result.backend == "multilevel"


def test_auto_below_cutoff_stays_exact():
    graph = grid_graph(Grid((8, 8)))  # far below the real cutoff
    result = fiedler_vector(graph, backend="auto")
    assert result.backend != "multilevel"


def test_auto_quality_gate_falls_back(monkeypatch):
    # A zero quality tolerance rejects any nonzero residual, so auto
    # must serve the exact answer instead.
    monkeypatch.setattr(backends, "MULTILEVEL_CUTOFF", 100)
    monkeypatch.setattr(backends, "MULTILEVEL_QUALITY_RTOL", 0.0)
    graph = grid_graph(Grid((16, 16)))
    result = fiedler_vector(graph, backend="auto")
    assert result.backend != "multilevel"
    expected = 2 * (1 - np.cos(np.pi / 16))
    assert result.value == pytest.approx(expected)


def test_explicit_multilevel_ignores_quality_gate(monkeypatch):
    monkeypatch.setattr(backends, "MULTILEVEL_QUALITY_RTOL", 0.0)
    graph = grid_graph(Grid((16, 16)))
    result = fiedler_vector(graph, backend="multilevel")
    assert result.backend == "multilevel"


def test_unknown_backend_still_rejected():
    graph = path_graph(8)
    with pytest.raises(InvalidParameterError):
        fiedler_vector(graph, backend="magma")


def test_eigenspace_residuals_are_true_residuals():
    from repro.graph import laplacian
    graph = grid_graph(Grid((16, 16)))
    space = multilevel_eigenspace(graph)
    lap = laplacian(graph)
    for j in range(len(space.values)):
        y = space.vectors[:, j]
        recomputed = np.linalg.norm(lap.matvec(y) - space.values[j] * y)
        assert recomputed == pytest.approx(space.residuals[j],
                                           rel=1e-6, abs=1e-12)


def test_eigenspace_block_is_orthonormal():
    graph = grid_graph(Grid((12, 12)))
    space = multilevel_eigenspace(graph)
    block = space.vectors
    gram = block.T @ block
    assert np.allclose(gram, np.eye(block.shape[1]), atol=1e-10)
    ones = np.ones(graph.num_vertices) / np.sqrt(graph.num_vertices)
    assert np.abs(ones @ block).max() < 1e-10
