"""Graph constructors: grid graphs, classic families, and point-cloud graphs.

The paper's Step 1 models a point set as a graph with an edge wherever two
points have Manhattan distance 1 — i.e. the *orthogonal* grid graph.
Section 4 varies the model: 8-connectivity (Figure 4) and weighted graphs
with a larger radius (the footnote's ``w = 1/manhattan`` model).  All of
those are instances of :func:`grid_graph` here.

Classic families (paths, cycles, stars, complete graphs) are provided for
tests and for demonstrating spectral ordering on non-grid inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import DimensionError, InvalidParameterError
from repro.geometry.grid import Grid, _normalize_connectivity
from repro.graph.adjacency import Graph
from repro.graph.weights import weight_function


# ----------------------------------------------------------------------
# Grid graphs
# ----------------------------------------------------------------------
def _canonical_offsets(ndim: int, connectivity: str,
                       radius: int) -> list[Tuple[int, ...]]:
    """Half of the neighbourhood offsets (one per undirected direction).

    An offset is *canonical* when its first nonzero component is positive;
    using only canonical offsets yields each undirected edge exactly once.
    ``"orthogonal"`` keeps offsets with Manhattan norm <= radius;
    ``"moore"`` keeps offsets with Chebyshev norm <= radius.
    """
    if radius < 1:
        raise InvalidParameterError(f"radius must be >= 1, got {radius}")
    offsets = []
    for off in itertools.product(range(-radius, radius + 1), repeat=ndim):
        if all(c == 0 for c in off):
            continue
        first_nonzero = next(c for c in off if c != 0)
        if first_nonzero < 0:
            continue
        if connectivity == "orthogonal":
            if sum(abs(c) for c in off) <= radius:
                offsets.append(off)
        else:  # moore
            if max(abs(c) for c in off) <= radius:
                offsets.append(off)
    return offsets


@dataclass(frozen=True)
class GridTopology:
    """The weight-independent part of a grid graph build.

    Building a grid graph splits naturally into a *topology* phase (which
    cells are adjacent under a connectivity/radius — the expensive masks
    and CSR sort) and a *weighting* phase (one weight per distinct
    offset).  A ``GridTopology`` captures the first phase so that many
    weight configurations over the same domain pay the build once:
    :func:`grid_graph_from_topology` turns it into a :class:`Graph` in a
    single vectorized gather.

    Attributes
    ----------
    grid, connectivity, radius:
        The domain and (normalized) graph model this topology encodes.
    indptr, indices:
        The symmetric CSR structure shared by every weighting.
    offset_ids:
        Per CSR entry, the index into ``offsets`` of the coordinate
        offset that produced it (offsets are canonicalized, so both CSR
        copies of an undirected edge share one id).
    offsets:
        The distinct canonical offsets, as coordinate tuples.
    """

    grid: Grid
    connectivity: str
    radius: int
    indptr: np.ndarray
    indices: np.ndarray
    offset_ids: np.ndarray
    offsets: Tuple[Tuple[int, ...], ...]

    @property
    def num_vertices(self) -> int:
        """Number of vertices (= grid cells)."""
        return self.grid.size


def grid_graph_topology(grid: Grid, connectivity="orthogonal",
                        radius: int = 1) -> GridTopology:
    """The weight-independent topology of :func:`grid_graph`.

    Performs the neighbourhood masks and the CSR assembly sort — all the
    work of a grid-graph build except assigning weights — and returns a
    reusable :class:`GridTopology`.  Batched services build this once per
    ``(shape, connectivity, radius)`` and stamp out one graph per weight
    model via :func:`grid_graph_from_topology`.
    """
    style = _normalize_connectivity(connectivity)
    if radius < 1:
        raise InvalidParameterError(f"radius must be >= 1, got {radius}")
    coords = grid.coordinates()
    shape = np.array(grid.shape)
    strides = np.array(grid.strides)
    offsets = _canonical_offsets(grid.ndim, style, radius)
    src_chunks = []
    dst_chunks = []
    id_chunks = []
    kept_offsets = []
    for off in offsets:
        off_arr = np.array(off)
        valid = np.ones(grid.size, dtype=bool)
        for axis, delta in enumerate(off):
            if delta > 0:
                valid &= coords[:, axis] + delta < shape[axis]
            elif delta < 0:
                valid &= coords[:, axis] + delta >= 0
        src = np.flatnonzero(valid)
        if len(src) == 0:
            continue
        off_id = len(kept_offsets)
        kept_offsets.append(off)
        src_chunks.append(src)
        dst_chunks.append(src + int(off_arr @ strides))
        id_chunks.append(np.full(len(src), off_id, dtype=np.int64))
    n = grid.size
    if not src_chunks:
        empty = np.empty(0, dtype=np.int64)
        return GridTopology(grid=grid, connectivity=style, radius=radius,
                            indptr=np.zeros(n + 1, dtype=np.int64),
                            indices=empty, offset_ids=empty, offsets=())
    # Canonical offsets produce each undirected edge exactly once with
    # src < dst (the first nonzero offset component is positive, and any
    # in-grid trailing components can subtract at most strides[axis] - 1),
    # so the generic duplicate-resolution sort in Graph.from_edges — an
    # extra np.unique over all edges — is provably unnecessary here.
    half_u = np.concatenate(src_chunks)
    half_v = np.concatenate(dst_chunks)
    half_id = np.concatenate(id_chunks)
    rows = np.concatenate([half_u, half_v])
    cols = np.concatenate([half_v, half_u])
    ids = np.concatenate([half_id, half_id])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.bincount(rows, minlength=n).cumsum()
    return GridTopology(grid=grid, connectivity=style, radius=radius,
                        indptr=indptr, indices=cols[order],
                        offset_ids=ids[order],
                        offsets=tuple(kept_offsets))


def grid_graph_from_topology(topology: GridTopology,
                             weight="unit") -> Graph:
    """A grid graph from a prebuilt :class:`GridTopology` plus weights.

    Evaluates the weight model once per distinct offset and gathers the
    per-edge weights in one vectorized pass — bit-identical to calling
    :func:`grid_graph` with the same parameters, at a fraction of the
    cost when the topology is reused.
    """
    wfn = weight_function(weight)
    if not len(topology.offsets):
        return Graph.empty(topology.num_vertices)
    per_offset = np.array([wfn(off) for off in topology.offsets])
    # Direct CSR construction skips Graph.from_edges, so enforce its
    # positive-weight invariant here (one check per distinct offset —
    # every eigensolver backend assumes a PSD Laplacian).
    if (per_offset <= 0).any():
        bad = int(np.argmax(per_offset <= 0))
        raise InvalidParameterError(
            f"edge weights must be positive; weight model returned "
            f"{per_offset[bad]} for offset {topology.offsets[bad]}"
        )
    return Graph(topology.num_vertices, topology.indptr, topology.indices,
                 per_offset[topology.offset_ids])


def grid_graph(grid: Grid, connectivity="orthogonal", radius: int = 1,
               weight="unit") -> Graph:
    """The neighbourhood graph of a full grid.

    Parameters
    ----------
    grid:
        The domain.
    connectivity:
        ``"orthogonal"`` (alias 4) or ``"moore"`` (alias 8); see
        :mod:`repro.geometry.grid`.
    radius:
        Neighbourhood radius.  ``radius=1`` with orthogonal connectivity is
        the paper's default model (edges at Manhattan distance exactly 1).
    weight:
        Weight model name or callable; see :mod:`repro.graph.weights`.
        The paper's footnote model is
        ``grid_graph(g, "orthogonal", radius=R, weight="inverse_manhattan")``.

    Vertices are numbered by row-major flat cell index.  Internally this
    is :func:`grid_graph_topology` + :func:`grid_graph_from_topology`;
    callers ordering the same domain under several weight models should
    build the topology once and reuse it.
    """
    wfn = weight_function(weight)  # validate the spec before building
    topology = grid_graph_topology(grid, connectivity, radius)
    return grid_graph_from_topology(topology, wfn)


def induced_grid_graph(grid: Grid, cell_indices: Sequence[int],
                       connectivity="orthogonal", radius: int = 1,
                       weight="unit") -> Tuple[Graph, np.ndarray]:
    """Grid graph restricted to a subset of cells.

    Models a *sparse* point set living on a grid: vertices are the given
    cells (relabelled 0..k-1 in ascending flat-index order) and edges join
    cells adjacent in the full grid graph.

    Returns ``(graph, cells)`` where ``cells`` is the ascending array of
    flat cell indices, aligned with the new vertex ids.
    """
    cells = np.unique(np.asarray(cell_indices, dtype=np.int64))
    if len(cells) and (cells[0] < 0 or cells[-1] >= grid.size):
        raise InvalidParameterError("cell indices out of range")
    full = grid_graph(grid, connectivity, radius, weight)
    _, indices, weights = full.csr_arrays()
    # The cells' rows cut straight from the full grid's CSR arrays, as
    # Graph.split cuts a part: the relabel keeps order, so every row's
    # columns stay sorted.
    relabel = np.full(grid.size, -1, dtype=np.int64)
    relabel[cells] = np.arange(len(cells))
    gather, lengths = full.row_positions(cells)
    kept = relabel[indices[gather]] >= 0
    row_sizes = np.bincount(np.repeat(np.arange(len(cells)), lengths)[kept],
                            minlength=len(cells))
    sub_indptr = np.zeros(len(cells) + 1, dtype=np.int64)
    np.cumsum(row_sizes, out=sub_indptr[1:])
    gather = gather[kept]
    return (Graph(len(cells), sub_indptr, relabel[indices[gather]],
                  weights[gather]), cells)


# ----------------------------------------------------------------------
# Classic families (used heavily by tests)
# ----------------------------------------------------------------------
def path_graph(n: int) -> Graph:
    """The path ``0 - 1 - ... - n-1``."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph.from_edges(n, edges)


def cycle_graph(n: int) -> Graph:
    """The cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise InvalidParameterError(f"a cycle needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    """The complete graph on ``n`` vertices."""
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, edges)


def star_graph(n: int) -> Graph:
    """A star: vertex 0 joined to vertices ``1 .. n-1``."""
    if n < 2:
        raise InvalidParameterError(f"a star needs n >= 2, got {n}")
    edges = [(0, i) for i in range(1, n)]
    return Graph.from_edges(n, edges)


# ----------------------------------------------------------------------
# Point-cloud graphs
# ----------------------------------------------------------------------
def _pairwise_distances(points: np.ndarray, metric: str) -> np.ndarray:
    diff = points[:, None, :].astype(np.int64) - points[None, :, :]
    if metric == "manhattan":
        return np.abs(diff).sum(axis=2)
    if metric == "chebyshev":
        return np.abs(diff).max(axis=2)
    if metric == "euclidean":
        return np.sqrt((diff.astype(np.float64) ** 2).sum(axis=2))
    raise InvalidParameterError(
        f"unknown metric {metric!r}; "
        "expected 'manhattan', 'chebyshev' or 'euclidean'"
    )


def knn_graph(points: np.ndarray, k: int,
              metric: str = "manhattan") -> Graph:
    """Symmetrized k-nearest-neighbour graph of a point array.

    An undirected edge joins ``u`` and ``v`` when either is among the
    other's ``k`` nearest points (ties broken by vertex id).  Weights are 1.
    """
    pts = np.asarray(points)
    if pts.ndim != 2:
        raise DimensionError(f"points must be (n, d)-shaped, got {pts.shape}")
    n = len(pts)
    if not 1 <= k < n:
        raise InvalidParameterError(
            f"k must be in [1, n-1] = [1, {n - 1}], got {k}"
        )
    dist = _pairwise_distances(pts, metric).astype(np.float64)
    np.fill_diagonal(dist, np.inf)
    # argsort is stable, so equal distances break ties by vertex id.
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    src = np.repeat(np.arange(n), k)
    edges = np.stack([src, nearest.ravel()], axis=1)
    return Graph.from_edges(n, edges)


def radius_graph(points: np.ndarray, radius: float,
                 metric: str = "manhattan", weight="unit") -> Graph:
    """Graph joining every pair of points within ``radius``.

    With ``metric="manhattan"``, ``radius=1`` and a full-grid point array
    this reproduces the paper's default model; larger radii with
    ``weight="inverse_manhattan"`` reproduce the Section-4 footnote.
    """
    pts = np.asarray(points)
    if pts.ndim != 2:
        raise DimensionError(f"points must be (n, d)-shaped, got {pts.shape}")
    if radius <= 0:
        raise InvalidParameterError(f"radius must be positive, got {radius}")
    wfn = weight_function(weight)
    dist = _pairwise_distances(pts, metric)
    n = len(pts)
    iu, ju = np.triu_indices(n, k=1)
    mask = dist[iu, ju] <= radius
    iu, ju = iu[mask], ju[mask]
    offsets = pts[ju].astype(np.int64) - pts[iu]
    weights = np.array([wfn(off) for off in offsets])
    return Graph.from_edges(n, np.stack([iu, ju], axis=1), weights)
