"""Graph Laplacians.

Step 2 of the paper's algorithm (Figure 2): the combinatorial Laplacian
``L(G) = D(G) - A(G)`` where ``D`` is the (weighted) degree diagonal and
``A`` the (weighted) adjacency matrix.  For any real vector ``x``,

    x^T L x  =  sum over edges (u, v) of  w_uv * (x_u - x_v)^2,

which is exactly the objective of the paper's Theorem 1 (weighted form in
the Section-4 footnote).  The normalized Laplacian is provided as an
extension for degree-irregular graphs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphStructureError
from repro.graph.adjacency import Graph
from repro.linalg.sparse import CSRMatrix


def laplacian(graph: Graph) -> CSRMatrix:
    """The combinatorial Laplacian ``D - A`` as a sparse CSR matrix.

    Assembled directly from the graph's symmetric CSR arrays: each row
    is the (already sorted) negated neighbour weights with the weighted
    degree spliced in at the diagonal position.  This avoids the
    coordinate round-trip through :meth:`CSRMatrix.from_coo`, whose
    duplicate-resolution sort is an ``O(m log m)`` tax the hot path was
    paying on every level of every multilevel solve.
    """
    n = graph.num_vertices
    indptr, indices, weights = graph.csr_arrays()
    m = len(indices)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    degrees = np.bincount(rows, weights=weights, minlength=n) if m \
        else np.zeros(n)
    # Entries strictly below the diagonal keep their offset; the rest
    # shift right by one to make room for the diagonal entry.
    below = np.bincount(rows[indices < rows], minlength=n).astype(np.int64)
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    new_indptr[1:] = (np.diff(indptr) + 1).cumsum()
    offsets = np.arange(m, dtype=np.int64) - indptr[rows]
    dest = new_indptr[rows] + offsets + (offsets >= below[rows])
    out_indices = np.empty(m + n, dtype=np.int64)
    out_data = np.empty(m + n)
    out_indices[dest] = indices
    out_data[dest] = -weights
    diag_pos = new_indptr[:-1] + below
    out_indices[diag_pos] = np.arange(n, dtype=np.int64)
    out_data[diag_pos] = degrees
    return CSRMatrix(n, new_indptr, out_indices, out_data)


def dense_laplacian_stack(graph: Graph, members: np.ndarray) -> np.ndarray:
    """The dense Laplacians of same-size vertex sets, stacked.

    Row ``b`` of the ``(count, size)`` array ``members`` lists one set
    of ``graph``'s vertices in ascending order, and no edge may leave a
    set (a connected component, or the whole graph).  Matrix ``b`` of
    the ``(count, size, size)`` result is the Laplacian of the subgraph
    the set induces, vertex ``members[b, i]`` as index ``i``: entry for
    entry what :func:`laplacian` of that subgraph holds, cut straight
    from the whole graph's CSR arrays.  Each degree sums its row's
    weights in CSR order, as :func:`laplacian` does.
    """
    count, size = members.shape
    _, indices, weights = graph.csr_arrays()
    local = np.empty(graph.num_vertices, dtype=np.int64)
    local[members] = np.arange(size)
    rows = members.ravel()
    gather, lengths = graph.row_positions(rows)
    row_of = np.repeat(np.arange(count * size), lengths)
    stack = np.zeros((count * size, size))
    stack[row_of, local[indices[gather]]] = -weights[gather]
    stack[np.arange(count * size), local[rows]] = np.bincount(
        row_of, weights=weights[gather], minlength=count * size)
    return stack.reshape(count, size, size)


def laplacian_matvec(graph: Graph, x: np.ndarray) -> np.ndarray:
    """``L x`` for ``L = D - A``, straight from the graph's CSR arrays.

    Row ``i`` of the product is ``sum_j w_ij (x_i - x_j)``: one gather
    and one :func:`numpy.bincount`, without assembling ``L`` and without
    scipy, so certifying a vector against its graph loads no sparse
    stack.
    """
    n = graph.num_vertices
    indptr, indices, weights = graph.csr_arrays()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.bincount(rows, weights=weights * (x[rows] - x[indices]),
                       minlength=n)


def graph_from_laplacian(matrix: CSRMatrix,
                         rtol: float = 1e-8) -> Graph | None:
    """Reconstruct the graph whose combinatorial Laplacian is ``matrix``.

    The inverse of :func:`laplacian`, used by the preconditioned
    eigensolver backends: they receive only the matrix, but building the
    multilevel preconditioner needs the graph.  Returns ``None`` when the
    matrix is not Laplacian-like — any significantly positive
    off-diagonal entry, or a diagonal that is not the weighted degree of
    the recovered edges (row sums must vanish) — so callers can degrade
    to an unpreconditioned solve instead of misusing the hierarchy.

    Off-diagonal entries within ``rtol`` of zero (relative to the largest
    entry) are treated as structural zeros; the matrix is assumed
    symmetric, as everywhere in the solver stack.
    """
    n = matrix.n
    rows = np.repeat(np.arange(n, dtype=np.int64),
                     np.diff(matrix.indptr))
    cols = matrix.indices
    data = matrix.data
    scale = float(np.abs(data).max()) if len(data) else 0.0
    if scale == 0.0:
        return Graph.from_edges(n, [])
    off = rows != cols
    cutoff = rtol * scale
    if (data[off] > cutoff).any():
        return None
    edge_mask = off & (data < -cutoff) & (rows < cols)
    u = rows[edge_mask]
    v = cols[edge_mask]
    w = -data[edge_mask]
    degrees = np.zeros(n)
    np.add.at(degrees, u, w)
    np.add.at(degrees, v, w)
    if not np.allclose(matrix.diagonal(), degrees,
                       rtol=1e-6, atol=cutoff):
        return None
    return Graph.from_edges(n, np.column_stack([u, v]), weights=w)


def laplacian_dense(graph: Graph) -> np.ndarray:
    """The combinatorial Laplacian as a dense array."""
    adjacency = graph.to_dense_adjacency()
    return np.diag(adjacency.sum(axis=1)) - adjacency


def normalized_laplacian_dense(graph: Graph) -> np.ndarray:
    """The symmetric normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``.

    Isolated vertices (degree 0) are left with a zero row/column rather
    than dividing by zero; their eigenvalue contribution is 0 as expected
    for a singleton component.
    """
    adjacency = graph.to_dense_adjacency()
    degrees = adjacency.sum(axis=1)
    inv_sqrt = np.zeros_like(degrees)
    positive = degrees > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degrees[positive])
    scaled = adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    lap = -scaled
    lap[np.arange(len(degrees)), np.arange(len(degrees))] = np.where(
        positive, 1.0, 0.0
    )
    return lap


def quadratic_form(graph: Graph, x: np.ndarray) -> float:
    """``x^T L x`` computed edge-wise: ``sum w_uv (x_u - x_v)^2``.

    This is the continuous objective of the paper's Theorem 1 (up to the
    normalization constraints) and is exact for any vector, without
    materializing ``L``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (graph.num_vertices,):
        raise GraphStructureError(
            f"vector has shape {x.shape}, graph has "
            f"{graph.num_vertices} vertices"
        )
    u, v, w = graph.edge_arrays()
    if len(u) == 0:
        return 0.0
    diff = x[u] - x[v]
    return float((w * diff * diff).sum())


def rayleigh_quotient(graph: Graph, x: np.ndarray) -> float:
    """``x^T L x / x^T x`` after centering ``x`` against the constant vector.

    The Fiedler value is the minimum of this quotient over nonzero vectors
    orthogonal to the all-ones vector, so for any centered ``x`` the
    quotient upper-bounds ``lambda_2`` — a useful optimality probe in
    tests.
    """
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise GraphStructureError(
            "vector is constant; Rayleigh quotient undefined"
        )
    return quadratic_form(graph, centered) / denom
