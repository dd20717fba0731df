"""Every in-process front returns :class:`SpectralLPM`'s permutation.

The library (``SpectralLPM`` / ``spectral_order``), the cached
``OrderingService``, the ``SpectralIndex`` facade and the sharded
frontend all order through one pipeline, so for one (config, domain)
they must agree bit for bit on every backend — the multilevel
approximation included, whose coarsening reads the real edge weights on
every front.  The process and socket fronts are pinned against the
same reference in ``tests/serve``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SpectralIndex
from repro.core import SpectralConfig, SpectralLPM, spectral_order
from repro.geometry import Grid, PointSet
from repro.graph import Graph
from repro.graph.weights import weight_names
from repro.linalg import scipy_available
from repro.service import OrderingService, ShardedIndexFrontend

BACKENDS = (["dense", "lanczos", "lobpcg"]
            + (["scipy"] if scipy_available() else [])
            + ["multilevel", "auto"])

MULTILEVEL = SpectralConfig(backend="multilevel")


@pytest.mark.parametrize("side", [20, 40])
def test_every_front_serves_one_multilevel_permutation(
        side, random_weight_grid_graph):
    graph = random_weight_grid_graph(side, seed=side)
    reference = SpectralLPM(backend="multilevel").order_graph(graph)
    orders = {
        "service": OrderingService().order_graph(graph, MULTILEVEL),
        "index": SpectralIndex.build(graph, config=MULTILEVEL).order,
        "sharded": ShardedIndexFrontend(shards=2).order_graph(graph,
                                                              MULTILEVEL),
    }
    for front, order in orders.items():
        assert order == reference, front


# ----------------------------------------------------------------------
# The same agreement as a property over small random domains
# ----------------------------------------------------------------------
@st.composite
def configs(draw) -> SpectralConfig:
    return SpectralConfig(
        connectivity=draw(st.sampled_from(["orthogonal", "moore"])),
        radius=draw(st.sampled_from([1, 2])),
        weight=draw(st.sampled_from(weight_names())),
        backend=draw(st.sampled_from(BACKENDS)),
    )


@st.composite
def grids(draw, max_size: int = 150) -> Grid:
    shape = []
    budget = max_size
    for _ in range(draw(st.integers(1, 3))):
        side = draw(st.integers(1, min(budget, 14)))
        shape.append(side)
        budget //= side
    return Grid(tuple(shape))


@st.composite
def point_sets(draw) -> PointSet:
    grid = draw(grids())
    cells = draw(st.lists(st.integers(0, grid.size - 1), min_size=1,
                          max_size=grid.size))
    return PointSet(grid, cells)


@st.composite
def graphs(draw) -> Graph:
    """Random positive-weight graphs, often above the multilevel
    backend's 64-vertex coarsening stop, sometimes disconnected."""
    n = draw(st.one_of(st.integers(2, 64), st.integers(65, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(n)
    path = np.stack([order[:-1], order[1:]], axis=1)
    # Dropping a few path edges splits the graph into components.
    path = path[rng.random(len(path)) >= draw(st.sampled_from([0.0, 0.03]))]
    chords = rng.integers(0, n, size=(n // 2, 2))
    edges = np.concatenate([path, chords[chords[:, 0] != chords[:, 1]]])
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    return Graph.from_edges(n, edges, rng.uniform(0.1, 2.0, len(edges)))


@settings(max_examples=60)
@given(grid=grids(), config=configs())
def test_every_front_orders_a_grid_like_spectral_lpm(grid, config):
    reference = SpectralLPM.from_config(config).order_grid(grid)
    assert spectral_order(grid, **dataclasses.asdict(config)) == reference
    assert OrderingService().order_many([(grid, config)])[0] == reference
    assert SpectralIndex.build(grid, config=config).order == reference
    assert ShardedIndexFrontend(shards=2).order_grid(grid, config) == \
        reference


@settings(max_examples=60)
@given(points=point_sets(), config=configs())
def test_every_front_orders_a_point_set_like_spectral_lpm(points, config):
    grid, cells = points.grid, points.cells
    reference, _ = SpectralLPM.from_config(config).order_points(grid, cells)
    assert OrderingService().points_artifact(points, config).order == \
        reference
    assert SpectralIndex.build(points, config=config).order == reference
    assert ShardedIndexFrontend(shards=2).index_for(
        points, config).order == reference


@settings(max_examples=60)
@given(graph=graphs(), backend=st.sampled_from(BACKENDS))
def test_every_front_orders_a_graph_like_spectral_lpm(graph, backend):
    config = SpectralConfig(backend=backend)
    reference = SpectralLPM.from_config(config).order_graph(graph)
    assert spectral_order(graph, **dataclasses.asdict(config)) == reference
    assert OrderingService().order_graph(graph, config) == reference
    assert SpectralIndex.build(graph, config=config).order == reference
    assert ShardedIndexFrontend(shards=2).order_graph(graph, config) == \
        reference
