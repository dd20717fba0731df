"""Every backend switch counts in ``repro_linalg_fallbacks_total``.

The counter is always on: each case below forces one switch with
tracing off, where the span attributes that also record some of these
switches do not exist.
"""

import numpy as np
import pytest

import repro.linalg.backends as backends
from repro.core.fiedler import fiedler_vector
from repro.errors import ConvergenceError
from repro.geometry import Grid
from repro.graph import grid_graph, laplacian, path_graph
from repro.linalg import scipy_available, smallest_eigenpairs
from repro.obs import registry, tracing_enabled

FALLBACKS = registry().counter("repro_linalg_fallbacks_total")


def _count(source, target):
    return FALLBACKS.value(**{"from": source, "to": target})


@pytest.fixture(autouse=True)
def _tracing_off():
    assert not tracing_enabled()


def _path_deflate(n):
    return [np.ones(n) / np.sqrt(n)]


def test_lobpcg_missing_its_tolerance_counts(monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("forced", iterations=0, residual=1.0)

    monkeypatch.setattr(backends, "smallest_eigenpairs_lobpcg", explode)
    before = _count("lobpcg", "lanczos")
    smallest_eigenpairs(laplacian(path_graph(40)), 1, backend="lobpcg",
                        deflate=_path_deflate(40))
    assert _count("lobpcg", "lanczos") == before + 1


@pytest.mark.parametrize("backend", ["lanczos", "lobpcg"])
def test_window_wider_than_the_deflated_space_counts(backend):
    # k = 4 pairs of a 4-vertex matrix with one direction deflated:
    # the iterative solvers hand the solve to dense.
    before = _count(backend, "dense")
    smallest_eigenpairs(laplacian(path_graph(4)), 4, backend=backend,
                        deflate=_path_deflate(4))
    assert _count(backend, "dense") == before + 1


def test_scipy_window_too_wide_for_arpack_counts():
    if not scipy_available():
        pytest.skip("scipy not installed")
    before = _count("scipy", "dense")
    smallest_eigenpairs(laplacian(path_graph(4)), 3, backend="scipy")
    assert _count("scipy", "dense") == before + 1


def test_auto_multilevel_missing_its_quality_check_counts(monkeypatch):
    # A zero quality tolerance rejects every approximate pair.
    monkeypatch.setattr(backends, "MULTILEVEL_CUTOFF", 100)
    monkeypatch.setattr(backends, "MULTILEVEL_QUALITY_RTOL", 0.0)
    exact = backends.resolve_auto(256, 4)
    before = _count("multilevel", exact)
    result = fiedler_vector(grid_graph(Grid((16, 16))), backend="auto")
    assert result.backend == exact
    assert _count("multilevel", exact) == before + 1


def _series():
    return dict(registry().snapshot()["repro_linalg_fallbacks_total"]
                ["series"])


@pytest.mark.parametrize("backend", ["dense", "lanczos", "lobpcg"])
def test_a_solve_that_switches_nothing_counts_nothing(backend):
    before = _series()
    smallest_eigenpairs(laplacian(path_graph(40)), 2, backend=backend,
                        deflate=_path_deflate(40))
    assert _series() == before
