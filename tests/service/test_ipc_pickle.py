"""The IPC contract: every value that crosses a process boundary
pickle-round-trips *stably*.

The multi-process serving harness (:mod:`repro.serve`) ships
``SpectralConfig``, domains (``Grid`` / ``PointSet`` / ``Graph``),
``LinearOrder``, and ``OrderArtifact`` between dispatcher and workers
as pickles.  Three properties make that sound, pinned here over
hypothesis-generated values:

* **equality**: ``loads(dumps(x)) == x`` (and hashes agree for the
  hashable types);
* **fingerprint stability**: the content-hash fingerprints that key
  every cache tier are identical before and after a round-trip — a
  worker must find the artifact the dispatcher's key promised;
* **routing agreement**: ``shard_of`` assigns the round-tripped domain
  to the same shard, for every shard count — otherwise a worker could
  be handed a domain whose warm store lives elsewhere;

plus the invariant the round-trip must not launder away: the internal
arrays come back *read-only*.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ordering import LinearOrder
from repro.core.spectral import SpectralConfig
from repro.geometry import Grid
from repro.geometry.pointset import PointSet
from repro.graph.adjacency import Graph
from repro.service import (
    OrderingService,
    config_fingerprint,
    graph_fingerprint,
    grid_fingerprint,
    order_key,
    points_fingerprint,
    shard_of_domain,
)

SHARD_COUNTS = (1, 2, 3, 4, 7, 16)


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
configs = st.builds(
    SpectralConfig,
    connectivity=st.sampled_from(("orthogonal", "moore")),
    radius=st.integers(1, 3),
    weight=st.sampled_from(("unit", "gaussian", "inverse_manhattan",
                            "inverse_euclidean")),
    backend=st.sampled_from(("auto", "dense", "lanczos", "multilevel")),
)

grids = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(Grid)


@st.composite
def point_sets(draw):
    grid = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3)
                .map(Grid))
    cells = draw(st.lists(st.integers(0, grid.size - 1),
                          min_size=1, max_size=min(grid.size, 12)))
    return PointSet(grid, cells)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 10))
    m = draw(st.integers(1, min(12, n * (n - 1) // 2)))
    edges, seen = [], set()
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    if not edges:
        edges = [(0, 1)]
    weights = [float(draw(st.integers(1, 5))) for _ in edges]
    return Graph.from_edges(n, edges, weights)


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------
@given(configs)
def test_config_roundtrip_equality_and_fingerprint(config):
    back = roundtrip(config)
    assert back == config
    assert hash(back) == hash(config)
    assert config_fingerprint(back) == config_fingerprint(config)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------
@given(grids)
def test_grid_roundtrip(grid):
    back = roundtrip(grid)
    assert back == grid
    assert hash(back) == hash(grid)
    assert grid_fingerprint(back) == grid_fingerprint(grid)
    for shards in SHARD_COUNTS:
        assert (shard_of_domain(back, shards)
                == shard_of_domain(grid, shards))


@given(point_sets())
def test_pointset_roundtrip(points):
    back = roundtrip(points)
    assert back == points
    assert hash(back) == hash(points)
    assert (points_fingerprint(back.grid, back.cells)
            == points_fingerprint(points.grid, points.cells))
    for shards in SHARD_COUNTS:
        assert (shard_of_domain(back, shards)
                == shard_of_domain(points, shards))
    assert not back.cells.flags.writeable


@given(graphs())
def test_graph_roundtrip(graph):
    back = roundtrip(graph)
    assert back.num_vertices == graph.num_vertices
    assert back.content_fingerprint() == graph.content_fingerprint()
    assert back.structure_fingerprint() == graph.structure_fingerprint()
    assert graph_fingerprint(back) == graph_fingerprint(graph)
    for shards in SHARD_COUNTS:
        assert (shard_of_domain(back, shards)
                == shard_of_domain(graph, shards))


# ---------------------------------------------------------------------------
# Orders and artifacts
# ---------------------------------------------------------------------------
@given(st.integers(1, 40).flatmap(
    lambda n: st.permutations(range(n))))
def test_linear_order_roundtrip(perm):
    order = LinearOrder(perm)
    back = roundtrip(order)
    assert back == order
    assert hash(back) == hash(order)
    assert not back.permutation.flags.writeable
    assert not back.ranks.flags.writeable


small_grids = st.lists(st.integers(2, 5), min_size=1, max_size=2).map(Grid)


@given(configs, small_grids)
def test_artifact_roundtrip_preserves_key_and_order(config, grid):
    service = OrderingService()
    artifact = service.grid_artifact(grid, config)
    back = roundtrip(artifact)
    assert back == artifact
    assert back.key == artifact.key
    assert back.order == artifact.order
    assert back.config == artifact.config
    # The key a restarted worker would derive matches the shipped one.
    assert order_key(back.config, grid_fingerprint(grid)) == back.key


def test_order_key_agreement_between_processes_is_pure():
    """order_key is a pure function of round-trippable values — the
    exact property the dispatcher relies on when it routes a request
    to a worker that then derives the same cache key independently."""
    config = SpectralConfig(weight="gaussian")
    grid = Grid((9, 9))
    key_here = order_key(config, grid_fingerprint(grid))
    key_there = order_key(roundtrip(config),
                          grid_fingerprint(roundtrip(grid)))
    assert key_here == key_there
