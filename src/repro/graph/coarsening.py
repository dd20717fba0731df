"""Graph coarsening by heavy-edge matching.

The substrate of multilevel spectral methods (Barnard & Simon's multilevel
spectral bisection, and every multilevel partitioner since): repeatedly
contract a matching of heavy edges to produce a hierarchy of smaller
graphs that preserve the original's global structure.  The Fiedler
problem is then solved exactly on the coarsest graph and the solution is
interpolated back up with local smoothing
(:mod:`repro.core.multilevel`), giving spectral orderings for graphs far
beyond dense-eigensolver reach without scipy.

All choices are deterministic: vertices are visited in ascending id
order and ties in edge weight break toward the smallest neighbour id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.adjacency import Graph


#: Above this many vertices :func:`heavy_edge_matching` switches from the
#: sequential greedy sweep to the vectorized dominant-edge rounds.  Both
#: are deterministic; the sweep is kept for small graphs because its
#: vertex-by-vertex semantics are documented (and pinned by tests), while
#: the dominant-edge variant turns the biggest multilevel-coarsening cost
#: from a Python loop over every vertex into a few array passes per round.
DOMINANT_EDGE_CUTOFF = 4096

# Process-wide count of heavy-edge matchings computed, mirroring the
# eigensolver counter in repro.linalg.backends: tests assert on its
# delta to show that a request ran no coarsening at all.
_MATCHING_INVOCATIONS = 0


def matching_invocations() -> int:
    """How many heavy-edge matchings this process has computed so far."""
    return _MATCHING_INVOCATIONS


def _dominant_edge_matching(graph: Graph, max_rounds: int = 200
                            ) -> np.ndarray:
    """Heavy-edge matching by vectorized dominant-edge rounds.

    Every edge gets a unique priority — weight first, then a
    deterministic pseudo-random hash so that ties scatter instead of
    aligning along the vertex numbering (on a unit-weight grid an
    id-based tie rule makes every vertex prefer the same direction and
    the rounds stall on a slowly advancing frontier).  Each round
    simultaneously matches every edge that holds the highest priority at
    *both* endpoints.  The result equals processing all edges
    sequentially in decreasing priority order — a greedy heavy-edge
    matching — and is maximal: while any free adjacent pair remains, the
    highest-priority such edge is locally dominant and gets matched.

    Adversarial priority layouts (e.g. a path with strictly monotone
    weights) match only one edge per round; if the round cap trips
    before maximality, a sequential sweep finishes the remaining free
    vertices, so the cap bounds the *vectorized* phase, never the
    quality of the matching.
    """
    n = graph.num_vertices
    indptr, indices, weights = graph.csr_arrays()
    starts = indptr[:-1]
    nonempty = np.diff(indptr) > 0
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # Unique per-undirected-edge priority rank, shared by both CSR copies
    # of the edge: sort canonical edge keys once, then rank by
    # (weight, hash, key).
    lo = np.minimum(rows, indices)
    hi = np.maximum(rows, indices)
    entry_key = lo * n + hi
    canonical = np.unique(entry_key)
    edge_of_entry = np.searchsorted(canonical, entry_key)
    edge_weight = np.empty(len(canonical))
    edge_weight[edge_of_entry] = weights
    scatter = np.sin(0.5 + 0.7310231 * np.arange(len(canonical))
                     + 0.1 * np.cos(1.7 * np.arange(len(canonical))))
    rank = np.empty(len(canonical), dtype=np.int64)
    rank[np.lexsort((scatter, edge_weight))] = np.arange(len(canonical))
    entry_rank = rank[edge_of_entry]

    match = np.arange(n, dtype=np.int64)
    free = np.ones(n, dtype=bool)
    for _ in range(max_rounds):
        valid = free[rows] & free[indices]
        if not valid.any():
            break
        masked = np.where(valid, entry_rank, -1)
        best = np.full(n, -1, dtype=np.int64)
        best[nonempty] = np.maximum.reduceat(masked, starts[nonempty])
        dominant = valid & (masked == best[rows]) & (masked == best[indices])
        left = rows[dominant & (rows < indices)]
        if len(left) == 0:
            break
        right = indices[dominant & (rows < indices)]
        match[left] = right
        match[right] = left
        free[left] = False
        free[right] = False
    # Maximality cleanup: the loop above only exits early when no free
    # adjacent pair remains, so this sweep does work solely when the
    # round cap tripped — and then only over the leftover free vertices.
    leftover = np.flatnonzero(free)
    if len(leftover) and (free[rows] & free[indices]).any():
        for v in leftover:
            if not free[v]:
                continue
            row = slice(indptr[v], indptr[v + 1])
            nbrs = indices[row]
            open_mask = free[nbrs]
            if not open_mask.any():
                continue
            candidates = nbrs[open_mask]
            best = int(candidates[np.argmax(entry_rank[row][open_mask])])
            match[v] = best
            match[best] = v
            free[v] = False
            free[best] = False
    return match


def heavy_edge_matching(graph: Graph) -> np.ndarray:
    """A maximal matching preferring heavy edges.

    Returns ``match`` with ``match[v]`` = the partner of ``v`` (possibly
    ``v`` itself when unmatched).  Deterministic: below
    :data:`DOMINANT_EDGE_CUTOFF` vertices each vertex, in ascending id
    order, picks its heaviest unmatched neighbour (smallest id on ties);
    larger graphs use the vectorized dominant-edge rounds of
    :func:`_dominant_edge_matching`, which apply the same heavy-edge
    preference simultaneously instead of sequentially.
    """
    global _MATCHING_INVOCATIONS
    _MATCHING_INVOCATIONS += 1
    n = graph.num_vertices
    if n > DOMINANT_EDGE_CUTOFF:
        return _dominant_edge_matching(graph)
    indptr, indices, weights = graph.csr_arrays()
    match = np.arange(n, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    # The greedy sweep is inherently sequential (each pick constrains the
    # next), but the per-vertex choice is vectorized: neighbour rows are
    # contiguous CSR slices, and argmax on an ascending-id row returns
    # the first (= smallest-id) maximum, matching the tie rule.
    for v in range(n):
        if taken[v]:
            continue
        row = slice(indptr[v], indptr[v + 1])
        nbrs = indices[row]
        free = ~taken[nbrs]
        if not free.any():
            continue
        candidates = nbrs[free]
        best = int(candidates[np.argmax(weights[row][free])])
        match[v] = best
        match[best] = v
        taken[v] = True
        taken[best] = True
    return match


def contract(graph: Graph, fine_to_coarse: np.ndarray,
             num_coarse: int | None = None) -> Graph:
    """Contract a graph along a fine-to-coarse vertex projection.

    Edges whose endpoints land on the same coarse vertex vanish; parallel
    edges have their weights summed, so the coarse Laplacian is the
    Galerkin restriction of the fine one under piecewise-constant
    interpolation.  This is the second half of :func:`coarsen`, after
    the matching.
    """
    fine_to_coarse = np.asarray(fine_to_coarse, dtype=np.int64)
    if fine_to_coarse.shape != (graph.num_vertices,):
        raise InvalidParameterError(
            f"fine_to_coarse must have shape ({graph.num_vertices},), "
            f"got {fine_to_coarse.shape}"
        )
    if num_coarse is None:
        num_coarse = int(fine_to_coarse.max()) + 1 \
            if len(fine_to_coarse) else 0
    u, v, w = graph.edge_arrays()
    cu = fine_to_coarse[u]
    cv = fine_to_coarse[v]
    keep = cu != cv
    edges = np.stack([cu[keep], cv[keep]], axis=1)
    return Graph.from_edges(num_coarse, edges, w[keep],
                            duplicate_policy="sum")


def coarsen(graph: Graph) -> Tuple[Graph, np.ndarray]:
    """Contract a heavy-edge matching.

    Returns ``(coarse, fine_to_coarse)``: each matched pair becomes one
    coarse vertex; see :func:`contract` for the contraction semantics.
    """
    n = graph.num_vertices
    match = heavy_edge_matching(graph)
    # Coarse ids are assigned in ascending order of a pair's smallest
    # endpoint — exactly the order a sequential sweep would produce.
    representative = np.minimum(np.arange(n, dtype=np.int64), match)
    _, fine_to_coarse = np.unique(representative, return_inverse=True)
    fine_to_coarse = fine_to_coarse.astype(np.int64)
    return contract(graph, fine_to_coarse), fine_to_coarse


@dataclass(frozen=True)
class CoarseningLevel:
    """One level of the hierarchy: the coarse graph and the projection."""

    graph: Graph
    fine_to_coarse: np.ndarray


def coarsen_hierarchy(graph: Graph, min_size: int = 64,
                      max_levels: int = 20) -> List[CoarseningLevel]:
    """Coarsen until the graph has at most ``min_size`` vertices.

    Returns the levels coarsest-last; an empty list when the input is
    already small enough.  Stops early if a round fails to shrink the
    graph by at least 10% (fully unmatched graphs cannot coarsen).
    """
    if min_size < 2:
        raise InvalidParameterError(
            f"min_size must be >= 2, got {min_size}"
        )
    if max_levels < 1:
        raise InvalidParameterError(
            f"max_levels must be >= 1, got {max_levels}"
        )
    levels: List[CoarseningLevel] = []
    current = graph
    for _ in range(max_levels):
        if current.num_vertices <= min_size:
            break
        coarse, projection = coarsen(current)
        if coarse.num_vertices > 0.9 * current.num_vertices:
            break
        levels.append(CoarseningLevel(graph=coarse,
                                      fine_to_coarse=projection))
        current = coarse
    return levels
