"""No order beats the two-sum floor that ``lambda_2`` sets.

For a connected graph and any order with ranks ``r = 0 .. n-1``, the
two-sum is ``sum w_uv (r_u - r_v)^2 = r^T L r``, and ``r`` minus its
mean is orthogonal to the constant vector, so
``r^T L r >= lambda_2 * n (n^2 - 1) / 12`` (Juvan and Mohar, 1992).  On
a disconnected domain the floor is the sum over components: the ``n_c``
distinct ranks of a component spread at least as far as ``n_c``
consecutive ones.

The check needs no earlier run of this code: every mapping's order must
stay above the floor built from every exact backend's ``lambda_2``.
Short paths attain the floor, so a ``lambda_2`` that comes out even
slightly too large fails it, whichever backend computed it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.api import make_mapping
from repro.core.fiedler import fiedler_vector
from repro.errors import DomainError
from repro.graph import Graph, grid_graph, induced_grid_graph
from repro.graph.traversal import connected_components
from repro.linalg import scipy_available
from repro.mapping import MAPPING_NAMES
from repro.metrics import two_sum
from tests.service.test_front_agreement import graphs, grids, point_sets

EXACT_BACKENDS = (("dense", "lanczos", "lobpcg")
                  + (("scipy",) if scipy_available() else ()))

# The floor may sit at the two-sum itself (short paths attain it), so
# only rounding separates them.
RTOL = 1e-9


def _floors(graph: Graph) -> dict:
    """``sum_c lambda_2(c) n_c (n_c^2 - 1) / 12`` per exact backend."""
    labels, count = connected_components(graph)
    floors = dict.fromkeys(EXACT_BACKENDS, 0.0)
    for component in range(count):
        vertices = np.flatnonzero(labels == component)
        size = len(vertices)
        if size < 2:
            continue
        sub, _ = graph.subgraph(vertices)
        for backend in EXACT_BACKENDS:
            lambda2 = fiedler_vector(sub, backend=backend).value
            floors[backend] += lambda2 * size * (size * size - 1) / 12
    return floors


def _assert_every_order_above_the_floor(domain, graph: Graph) -> None:
    floors = _floors(graph)
    checked = 0
    for name in MAPPING_NAMES:
        try:
            order = make_mapping(name).order_domain(domain)
        except DomainError:
            continue
        cost = two_sum(graph, order)
        for backend, floor in floors.items():
            assert cost >= (1 - RTOL) * floor, (name, backend, cost, floor)
        checked += 1
    assert checked


@settings(max_examples=40, deadline=None)
@given(grid=grids())
def test_every_grid_order_is_above_the_floor(grid):
    _assert_every_order_above_the_floor(grid, grid_graph(grid))


@settings(max_examples=40, deadline=None)
@given(points=point_sets())
def test_every_point_set_order_is_above_the_floor(points):
    graph, _ = induced_grid_graph(points.grid, points.cells)
    _assert_every_order_above_the_floor(points, graph)


@settings(max_examples=40, deadline=None)
@given(graph=graphs())
def test_every_graph_order_is_above_the_floor(graph):
    _assert_every_order_above_the_floor(graph, graph)


@pytest.mark.parametrize("n", [2, 3])
def test_a_short_path_attains_the_floor(n):
    """The floor is tight on paths of two and three vertices, which is
    what makes the property fail on a ``lambda_2`` even slightly too
    large."""
    graph = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    order = make_mapping("spectral").order_domain(graph)
    for backend, floor in _floors(graph).items():
        assert two_sum(graph, order) == pytest.approx(floor, rel=1e-12), \
            backend
