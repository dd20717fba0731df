"""Failure injection: behaviour when scipy is unavailable.

The library promises to work with numpy alone; these tests simulate a
scipy-less environment by hiding the module from the import machinery
and verify that (a) the explicit scipy backend fails loudly with the
documented exception and (b) the auto backend silently falls back to the
in-house Lanczos solver with identical results.
"""

import numpy as np
import pytest

import repro.linalg.backends as backends
from repro.errors import BackendUnavailableError
from repro.graph import laplacian, path_graph
from repro.linalg import smallest_eigenpairs

# The ``no_scipy`` fixture lives in tests/conftest.py (the traversal
# tests hide scipy with it too).


def test_scipy_available_reports_false(no_scipy):
    assert backends.scipy_available() is False


def test_explicit_scipy_backend_raises(no_scipy):
    lap = laplacian(path_graph(8))
    with pytest.raises(BackendUnavailableError):
        smallest_eigenpairs(lap, 2, backend="scipy")


def test_auto_falls_back_to_lanczos(no_scipy, monkeypatch):
    # Force the large-matrix branch so auto must choose between scipy
    # (hidden) and lanczos.
    monkeypatch.setattr(backends, "DENSE_CUTOFF", 4)
    n = 30
    lap = laplacian(path_graph(n))
    values, _ = smallest_eigenpairs(lap, 3, backend="auto")
    expected = 2 * (1 - np.cos(np.pi * np.arange(3) / n))
    assert np.allclose(values, expected, atol=1e-7)


def test_spectral_pipeline_runs_without_scipy(no_scipy):
    from repro.core import SpectralLPM
    from repro.geometry import Grid
    order = SpectralLPM(backend="lanczos").order_grid(Grid((5, 5)))
    assert sorted(order.permutation) == list(range(25))
