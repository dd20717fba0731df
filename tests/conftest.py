"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import builtins
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core import SpectralLPM
from repro.geometry import Grid
from repro.graph import Graph, grid_graph

# One conservative profile for every property test: no deadline (CI boxes
# vary wildly) and a bounded example budget so the suite stays fast.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def grid3() -> Grid:
    """The paper's Figure-3 3x3 grid."""
    return Grid((3, 3))


@pytest.fixture
def grid4() -> Grid:
    """The paper's Figure-1/4 4x4 grid."""
    return Grid((4, 4))


@pytest.fixture
def grid8() -> Grid:
    return Grid((8, 8))


@pytest.fixture
def graph3(grid3):
    """4-connectivity graph of the 3x3 grid (paper Figure 3b)."""
    return grid_graph(grid3)


@pytest.fixture
def dense_lpm() -> SpectralLPM:
    """Spectral LPM pinned to the exact dense eigensolver."""
    return SpectralLPM(backend="dense")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def _random_weight_grid_graph(side: int, seed: int) -> Graph:
    """The ``side x side`` orthogonal grid graph with edge weights drawn
    uniformly from [0.1, 2) at ``seed``: a graph whose heavy-edge
    coarsening depends on its weights."""
    rng = np.random.default_rng(seed)
    u, v, _ = grid_graph(Grid((side, side))).edge_arrays()
    return Graph.from_edges(side * side, np.stack([u, v], axis=1),
                            rng.uniform(0.1, 2.0, len(u)))


@pytest.fixture
def random_weight_grid_graph():
    """Factory ``(side, seed) -> Graph`` of seeded random-weight grid
    graphs."""
    return _random_weight_grid_graph


@pytest.fixture
def no_scipy(monkeypatch):
    """Make every `import scipy...` raise ImportError.

    A test may also request it part-way through with
    ``request.getfixturevalue("no_scipy")`` to compare a scipy result
    with the numpy-only one.
    """
    real_import = builtins.__import__

    def fake_import(name, *args, **kwargs):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy hidden for this test: {name}")
        return real_import(name, *args, **kwargs)

    for module_name in list(sys.modules):
        if module_name == "scipy" or module_name.startswith("scipy."):
            monkeypatch.delitem(sys.modules, module_name)
    monkeypatch.setattr(builtins, "__import__", fake_import)
