"""Undirected weighted graphs in compressed sparse row form.

This is the graph model of the paper's Step 1 (Figure 2): vertices are the
multi-dimensional points; edges connect points the user wants mapped to
nearby 1-D positions.  Edge weights encode mapping *priority* (Section 4):
the heavier the edge, the closer its endpoints should land in the linear
order.

Graphs are immutable; :meth:`Graph.with_edges_added` returns a new graph,
which keeps the Section-4 "access-pattern edge" workflow side-effect free.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import (
    GraphStructureError,
    InvalidParameterError,
)

#: How :meth:`Graph.from_edges` resolves duplicate edges.
DUPLICATE_POLICIES = ("max", "sum", "error")


class Graph:
    """An undirected weighted graph on vertices ``0 .. n-1``.

    Stored internally as a symmetric CSR structure (every undirected edge
    appears in both endpoint rows).  Construct with :meth:`from_edges`.
    """

    __slots__ = ("_n", "_indptr", "_indices", "_weights")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray):
        # Internal constructor; inputs must already form a valid symmetric
        # CSR structure.  Use from_edges() to build from edge lists.
        self._n = int(n)
        self._indptr = indptr
        self._indices = indices
        self._weights = weights

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]],
                   weights: Sequence[float] | None = None,
                   duplicate_policy: str = "max") -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Parameters
        ----------
        n:
            Number of vertices.
        edges:
            Iterable of endpoint pairs.  Self-loops are rejected.
        weights:
            Optional per-edge positive weights (default all 1.0).
        duplicate_policy:
            What to do when the same undirected edge appears twice:
            keep the ``"max"`` weight (default — convenient when layering
            access-pattern edges over a base grid), ``"sum"`` the weights,
            or raise an ``"error"``.
        """
        if duplicate_policy not in DUPLICATE_POLICIES:
            raise InvalidParameterError(
                f"duplicate_policy must be one of {DUPLICATE_POLICIES}, "
                f"got {duplicate_policy!r}"
            )
        n = int(n)
        if n < 0:
            raise InvalidParameterError(f"n must be >= 0, got {n}")
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray)
                                else edges, dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise InvalidParameterError(
                f"edges must be (m, 2)-shaped, got {edge_array.shape}"
            )
        m = len(edge_array)
        if weights is None:
            weight_array = np.ones(m)
        else:
            weight_array = np.asarray(weights, dtype=np.float64)
            if weight_array.shape != (m,):
                raise InvalidParameterError(
                    f"got {m} edges but {weight_array.shape} weights"
                )
        if m:
            if edge_array.min() < 0 or edge_array.max() >= n:
                raise InvalidParameterError(
                    "edge endpoints out of range [0, n)"
                )
            if (edge_array[:, 0] == edge_array[:, 1]).any():
                raise GraphStructureError("self-loops are not allowed")
            if (weight_array <= 0).any():
                raise InvalidParameterError("edge weights must be positive")
        # Canonicalize endpoints as (min, max) and resolve duplicates.
        lo = edge_array.min(axis=1)
        hi = edge_array.max(axis=1)
        if m:
            keys = lo * n + hi
            uniq, first, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            if len(uniq) != m:
                if duplicate_policy == "error":
                    raise GraphStructureError("duplicate edges in input")
                if duplicate_policy == "sum":
                    merged = np.bincount(inverse, weights=weight_array,
                                         minlength=len(uniq))
                else:  # max
                    merged = np.full(len(uniq), -np.inf)
                    np.maximum.at(merged, inverse, weight_array)
                weight_array = merged
            else:
                weight_array = weight_array[first]
            lo = uniq // n
            hi = uniq % n
        return cls._from_canonical_edges(n, lo, hi, weight_array)

    @classmethod
    def _from_canonical_edges(cls, n: int, lo: np.ndarray, hi: np.ndarray,
                              weights: np.ndarray) -> "Graph":
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        wgt = np.concatenate([weights, weights])
        order = np.lexsort((dst, src))
        src, dst, wgt = src[order], dst[order], wgt[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.bincount(src, minlength=n).cumsum()
        return cls(n, indptr, dst, wgt)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """A graph with ``n`` vertices and no edges."""
        return cls.from_edges(n, [])

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self._indices) // 2

    @property
    def total_weight(self) -> float:
        """Sum of undirected edge weights."""
        return float(self._weights.sum() / 2.0)

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        self._check_vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Unweighted degree of every vertex."""
        return np.diff(self._indptr).astype(np.int64)

    def weighted_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per vertex (the Laplacian diagonal)."""
        if not len(self._weights):
            return np.zeros(self._n)
        rows = np.repeat(np.arange(self._n), np.diff(self._indptr))
        return np.bincount(rows, weights=self._weights, minlength=self._n)

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symmetric CSR structure ``(indptr, indices, weights)``.

        Row ``v`` occupies ``indices[indptr[v]:indptr[v+1]]`` (ascending
        neighbour ids) with matching ``weights``.  Views of internal
        storage — callers must not mutate them.  This is the zero-copy
        entry point for vectorized algorithms (coarsening, Laplacian
        assembly) that would otherwise pay a Python-level accessor per
        vertex.
        """
        return self._indptr, self._indices, self._weights

    def row_positions(self, rows: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Where the CSR entries of ``rows`` sit, row after row.

        Returns ``(positions, lengths)``: ``indices[positions]`` (and
        ``weights[positions]``) list the neighbours of ``rows[0]``, then
        those of ``rows[1]``, and so on, each row in CSR order, and
        ``lengths[i]`` is the entry count of ``rows[i]``.  One gather
        for any set of rows, so cutting subgraphs costs no loop per row.
        """
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self._indptr[rows + 1] - self._indptr[rows]
        ends = np.cumsum(lengths)
        positions = (np.repeat(self._indptr[rows] - (ends - lengths), lengths)
                     + np.arange(ends[-1] if len(ends) else 0))
        return positions, lengths

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of ``v`` (read-only view, ascending)."""
        self._check_vertex(v)
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        self._check_vertex(v)
        return self._weights[self._indptr[v]:self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < len(row) and row[pos] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises if absent."""
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        if pos >= len(row) or row[pos] != v:
            raise GraphStructureError(f"no edge between {u} and {v}")
        return float(self.neighbor_weights(u)[pos])

    def _check_vertex(self, v: int) -> None:
        if not 0 <= int(v) < self._n:
            raise InvalidParameterError(
                f"vertex {v} out of range [0, {self._n})"
            )

    # ------------------------------------------------------------------
    # Edge access
    # ------------------------------------------------------------------
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays ``(u, v, w)`` of undirected edges with ``u < v``."""
        rows = np.repeat(np.arange(self._n), np.diff(self._indptr))
        mask = rows < self._indices
        return rows[mask], self._indices[mask], self._weights[mask]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate undirected edges as ``(u, v, weight)`` with ``u < v``."""
        u, v, w = self.edge_arrays()
        for i in range(len(u)):
            yield int(u[i]), int(v[i]), float(w[i])

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_edges_added(self, extra_edges: Iterable[Tuple[int, int]],
                         extra_weights: Sequence[float] | None = None,
                         duplicate_policy: str = "max") -> "Graph":
        """A new graph with extra edges layered on top of this one.

        This is the Section-4 extensibility hook: adding an edge ``(p, q)``
        tells Spectral LPM to treat ``p`` and ``q`` "as if they have
        Manhattan distance 1".
        """
        u0, v0, w0 = self.edge_arrays()
        extra = np.asarray(list(extra_edges)
                           if not isinstance(extra_edges, np.ndarray)
                           else extra_edges, dtype=np.int64)
        if extra.size == 0:
            extra = extra.reshape(0, 2)
        if extra_weights is None:
            we = np.ones(len(extra))
        else:
            we = np.asarray(extra_weights, dtype=np.float64)
        all_edges = np.concatenate(
            [np.stack([u0, v0], axis=1), extra], axis=0
        )
        all_weights = np.concatenate([w0, we])
        return Graph.from_edges(self._n, all_edges, all_weights,
                                duplicate_policy=duplicate_policy)

    def subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns the new graph (with vertices relabelled ``0..k-1`` in the
        order given) and the original-id array so callers can map back.
        """
        vertex_array = np.asarray(vertices, dtype=np.int64)
        if len(np.unique(vertex_array)) != len(vertex_array):
            raise InvalidParameterError("subgraph vertices must be distinct")
        relabel = np.full(self._n, -1, dtype=np.int64)
        relabel[vertex_array] = np.arange(len(vertex_array))
        u, v, w = self.edge_arrays()
        mask = (relabel[u] >= 0) & (relabel[v] >= 0)
        edges = np.stack([relabel[u[mask]], relabel[v[mask]]], axis=1)
        sub = Graph.from_edges(len(vertex_array), edges, w[mask])
        return sub, vertex_array

    def split(self, labels: np.ndarray,
              count: int) -> List[Tuple["Graph", np.ndarray]]:
        """The induced subgraphs of a partition that no edge crosses.

        ``labels[v]`` in ``0..count-1`` names the part of vertex ``v``
        (e.g. the labels of
        :func:`~repro.graph.traversal.connected_components`).  Part ``c``
        comes back as ``self.subgraph(np.flatnonzero(labels == c))``
        would return it, array for array, but all parts are cut in one
        pass over the edges instead of one pass per part.
        """
        labels = np.asarray(labels, dtype=np.int64)
        n = self._n
        if labels.shape != (n,) or (n and (labels.min() < 0
                                           or labels.max() >= count)):
            raise InvalidParameterError(
                f"labels must be {n} part ids in [0, {count})")
        degrees = np.diff(self._indptr)
        rows = np.repeat(labels, degrees)
        if (rows != labels[self._indices]).any():
            raise InvalidParameterError("an edge joins two parts")
        # Vertices grouped by part (ascending ids within each), their
        # ids within the part, and their CSR rows in that order: sorted
        # columns stay sorted under the order-preserving relabel.
        members = np.argsort(labels, kind="stable")
        sizes = np.bincount(labels, minlength=count)
        starts = np.cumsum(sizes) - sizes
        local = np.empty(n, dtype=np.int64)
        local[members] = np.arange(n) - np.repeat(starts, sizes)
        gather, row_sizes = self.row_positions(members)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_sizes, out=indptr[1:])
        indices = local[self._indices[gather]]
        weights = self._weights[gather]
        parts = []
        for start, size in zip(starts.tolist(), sizes.tolist()):
            lo, hi = indptr[start], indptr[start + size]
            parts.append((
                Graph(size, indptr[start:start + size + 1] - lo,
                      indices[lo:hi], weights[lo:hi]),
                members[start:start + size]))
        return parts

    # ------------------------------------------------------------------
    # Fingerprints (stable content identity for caches and stores)
    # ------------------------------------------------------------------
    def structure_fingerprint(self) -> str:
        """A stable hex digest of the graph's *topology* (edges, no weights).

        Two graphs share a structure fingerprint exactly when they have
        the same vertex count and the same undirected edge set.  The
        digest is computed from the canonical CSR arrays with SHA-256, so
        it is deterministic across processes and Python versions (unlike
        ``hash()``).  It is the topology half of
        :meth:`content_fingerprint`.
        """
        h = hashlib.sha256(b"graph-structure-v1")
        h.update(np.int64(self._n).tobytes())
        h.update(np.ascontiguousarray(self._indptr, dtype=np.int64)
                 .tobytes())
        h.update(np.ascontiguousarray(self._indices, dtype=np.int64)
                 .tobytes())
        return h.hexdigest()

    def content_fingerprint(self) -> str:
        """A stable hex digest of the full graph content (edges + weights).

        Extends :meth:`structure_fingerprint` with the exact float64 edge
        weights, so two graphs share a content fingerprint exactly when
        they are indistinguishable to every algorithm in this library.
        Used to key order caches for arbitrary user graphs.
        """
        h = hashlib.sha256(b"graph-content-v1")
        h.update(self.structure_fingerprint().encode("ascii"))
        h.update(np.ascontiguousarray(self._weights, dtype=np.float64)
                 .tobytes())
        return h.hexdigest()

    def to_dense_adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix (weights as entries)."""
        dense = np.zeros((self._n, self._n))
        rows = np.repeat(np.arange(self._n), np.diff(self._indptr))
        dense[rows, self._indices] = self._weights
        return dense

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges})"
