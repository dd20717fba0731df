"""Stacked dense Fiedler solves: one eigh per component size.

A graph's components that solve dense share one stacked eigensolve per
size (``repro.core.fiedler.dense_fiedler_results``), and a connected
graph is a stack of one.  These properties pin that a component gets
bit for bit the pair and order it gets when ordered alone, on point
sets under every weight model and on graphs whose components have
degenerate ``lambda_2`` groups, and that a stack counts as one solve.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.fiedler as fiedler_module
from repro.core import SpectralConfig, SpectralLPM
from repro.geometry import Grid
from repro.graph import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    induced_grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.weights import weight_names
from repro.linalg import solver_invocations
from repro.obs import registry
from repro.service import OrderingService


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _assert_same_result(got, want) -> None:
    assert _same_bits(np.float64(got.value), np.float64(want.value))
    assert _same_bits(got.vector, want.vector)
    assert got.multiplicity == want.multiplicity
    assert _same_bits(got.eigenvalues, want.eigenvalues)
    assert got.backend == want.backend


def _assert_whole_equals_parts(lpm: SpectralLPM, graph: Graph) -> list:
    """Order ``graph`` whole, then each component alone (a stack of
    one), and compare the permutation and every FiedlerResult."""
    order, results = lpm.order_graph_with_fiedler(graph)
    labels, count = connected_components(graph)
    pieces, expected = [], []
    for sub, vertices in graph.split(labels, count):
        sub_order, sub_results = lpm.order_graph_with_fiedler(sub)
        pieces.append(vertices[sub_order.permutation])
        expected += sub_results
    assert np.array_equal(order.permutation, np.concatenate(pieces))
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        _assert_same_result(got, want)
    return results


def _disjoint_union(parts, weights=None, labels=None) -> Graph:
    """The graphs ``parts`` side by side, each part's edges weighing its
    entry of ``weights`` (default 1), vertex ``i`` renamed
    ``labels[i]`` (default ``i``)."""
    edges, edge_weights, offset = [], [], 0
    for part, weight in zip(parts, weights or [1.0] * len(parts)):
        u, v, _ = part.edge_arrays()
        edges += list(zip((u + offset).tolist(), (v + offset).tolist()))
        edge_weights += [weight] * len(u)
        offset += part.num_vertices
    if labels is not None:
        edges = [(int(labels[a]), int(labels[b])) for a, b in edges]
    return Graph.from_edges(offset, edges, edge_weights)


def _dense_solves() -> int:
    solves = registry().get("repro_linalg_solve_seconds")
    return solves.count(backend="dense") if solves else 0


# ----------------------------------------------------------------------
# Point sets: every weight model, under auto and dense
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["auto", "dense"])
@pytest.mark.parametrize("weight", weight_names())
@settings(max_examples=12)
@given(data=st.data())
def test_point_set_components_match_their_stack_of_one(weight, backend,
                                                       data):
    rows = data.draw(st.integers(4, 18), label="rows")
    cols = data.draw(st.integers(4, 18), label="cols")
    grid = Grid((rows, cols))
    density = data.draw(st.floats(0.2, 0.7), label="density")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    connectivity = data.draw(st.sampled_from(["orthogonal", "moore"]),
                             label="connectivity")
    radius = data.draw(st.sampled_from([1, 2]), label="radius")
    cells = np.random.default_rng(seed).choice(
        grid.size, max(1, round(density * grid.size)), replace=False)
    graph, _ = induced_grid_graph(grid, cells, connectivity=connectivity,
                                  radius=radius, weight=weight)
    lpm = SpectralLPM(connectivity=connectivity, radius=radius,
                      weight=weight, backend=backend)
    _assert_whole_equals_parts(lpm, graph)


# ----------------------------------------------------------------------
# Graphs of many same-size components, degenerate groups included
# ----------------------------------------------------------------------
#: Families whose lambda_2 groups hold 2-4 vectors (a star of 6 and a
#: complete graph of 5 hold 4; the star's window of 4 must double), a
#: simple group (paths), and trivial components.
_FAMILIES = {
    "star": lambda size: star_graph(size),
    "cycle4": lambda size: cycle_graph(4),
    "complete": lambda size: complete_graph(size),
    "path": lambda size: path_graph(size),
}
_SIZES = {"star": (4, 6), "cycle4": (4, 4), "complete": (3, 5),
          "path": (1, 9)}


@st.composite
def _component_unions(draw):
    """A disjoint union of several batches of same-size components,
    each component with one random edge weight (so a degenerate group
    stays degenerate), under a random vertex labelling."""
    parts, weights = [], []
    for _ in range(draw(st.integers(1, 4))):
        family = draw(st.sampled_from(sorted(_FAMILIES)))
        lo, hi = _SIZES[family]
        size = draw(st.integers(lo, hi))
        for _ in range(draw(st.integers(1, 8))):
            parts.append(_FAMILIES[family](size))
            weights.append(draw(st.floats(0.25, 4.0)))
    labels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))) \
        .permutation(sum(part.num_vertices for part in parts))
    return _disjoint_union(parts, weights, labels)


@pytest.mark.parametrize("backend", ["auto", "dense"])
@settings(max_examples=40)
@given(graph=_component_unions())
def test_graph_components_match_their_stack_of_one(backend, graph):
    _assert_whole_equals_parts(SpectralLPM(backend=backend), graph)


def test_degenerate_groups_are_closed():
    # Stars of 6 hold a 4-vector group the first window cannot close;
    # complete graphs of 5 fill their whole window; 4-cycles hold 2.
    graph = _disjoint_union([star_graph(6)] * 3 + [complete_graph(5)] * 2
                            + [cycle_graph(4)] * 2)
    results = _assert_whole_equals_parts(SpectralLPM(backend="dense"), graph)
    assert [r.multiplicity for r in results] == [4, 4, 4, 4, 4, 2, 2]
    # The star's window doubled past its group to the first value above.
    assert list(results[0].eigenvalues) == pytest.approx([1, 1, 1, 1, 6])


# ----------------------------------------------------------------------
# The stack cap, and the accounting
# ----------------------------------------------------------------------
def test_a_size_spans_several_stacks_under_a_low_cap(monkeypatch):
    grid = Grid((30, 30))
    cells = np.random.default_rng(11).choice(grid.size, 300, replace=False)
    graph, _ = induced_grid_graph(grid, cells, weight="gaussian")
    sizes = np.bincount(connected_components(graph)[0])
    threes = int((sizes == 3).sum())
    assert threes >= 5
    lpm = SpectralLPM(backend="dense")
    before = _dense_solves()
    whole = lpm.order_graph_with_fiedler(graph)
    uncapped = _dense_solves() - before
    # 18 entries hold two 3x3 matrices and one of any larger size: every
    # size takes ceil(components / matrices per stack) stacks.
    monkeypatch.setattr(fiedler_module, "DENSE_STACK_ENTRIES", 18)
    before = _dense_solves()
    capped = lpm.order_graph_with_fiedler(graph)
    per_size = np.bincount(sizes).tolist()
    assert _dense_solves() - before == sum(
        -(-count // max(1, 18 // (size * size)))
        for size, count in enumerate(per_size) if size > 2 and count)
    assert _dense_solves() - before > uncapped
    assert capped[0] == whole[0]
    for got, want in zip(capped[1], whole[1]):
        _assert_same_result(got, want)
    _assert_whole_equals_parts(lpm, graph)


@pytest.mark.parametrize("backend", ["auto", "dense"])
def test_a_stack_counts_as_one_solve(backend):
    # Components of 1, 2, 3, 3, 4 and 7 vertices: the pairs need no
    # solve, and the four others take three stacks (sizes 3, 4 and 7).
    graph = _disjoint_union([path_graph(1), path_graph(2), path_graph(3),
                             star_graph(3), star_graph(4), path_graph(7)])
    assert sorted(np.bincount(connected_components(graph)[0])) == \
        [1, 2, 3, 3, 4, 7]

    before, dense_before = solver_invocations(), _dense_solves()
    order, results = SpectralLPM(backend=backend) \
        .order_graph_with_fiedler(graph)
    assert solver_invocations() - before == 3
    assert _dense_solves() - dense_before == 3
    assert len(results) == 4
    assert [len(r.vector) for r in results] == [3, 3, 4, 7]

    artifact = OrderingService().graph_artifact(
        graph, SpectralConfig(backend=backend))
    assert artifact.solver_calls == 3
    assert artifact.order == order
