"""Spectral LPM recovers a known 1-D order from a Robinson graph.

Take n items in a hidden order and join every pair at most b apart, with
weight ``b + 1 - d`` at lag d.  The similarity matrix is then Robinson:
its entries fall off the diagonal along every row and column.  Its
Fiedler vector is monotone along the hidden order (Atkins, Boman and
Hendrickson, 1998; the seriation setting of Recanati et al.), so the
spectral order is that order or its reverse.

The check needs no earlier run of this code: the vertex labels are a
random permutation of the hidden positions, and every exact backend must
undo it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import SpectralLPM
from repro.graph import Graph
from repro.linalg import scipy_available

EXACT_BACKENDS = (("dense", "lanczos", "lobpcg")
                  + (("scipy",) if scipy_available() else ()))


def banded_graph(latent: np.ndarray, band: int) -> Graph:
    """The Robinson graph whose hidden position ``i`` is vertex
    ``latent[i]``: lag ``d <= band`` weighs ``band + 1 - d``."""
    n = len(latent)
    edges, weights = [], []
    for lag in range(1, min(band, n - 1) + 1):
        edges.append(np.stack([latent[:-lag], latent[lag:]], axis=1))
        weights.append(np.full(n - lag, float(band + 1 - lag)))
    return Graph.from_edges(n, np.concatenate(edges),
                            np.concatenate(weights))


@settings(max_examples=30)
@given(n=st.integers(3, 400), band=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_exact_backend_recovers_the_latent_order(n, band, seed):
    latent = np.random.default_rng(seed).permutation(n)
    graph = banded_graph(latent, band)
    for backend in EXACT_BACKENDS:
        order = SpectralLPM(backend=backend).order_graph(graph)
        assert (np.array_equal(order.permutation, latent)
                or np.array_equal(order.permutation, latent[::-1])), backend
