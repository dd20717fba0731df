"""Graph traversal: connected components.

The spectral pipeline needs connectivity information: the Fiedler
vector is only defined for connected graphs (a disconnected graph has
``lambda_2 = 0`` and a locality order must be computed per component).

When scipy is importable, :func:`connected_components` and
:func:`is_connected` run :func:`scipy.sparse.csgraph.connected_components`
(compiled: 0.5 ms against 35 ms for the Python walk on a 100x100 grid)
and return exactly what the Python walk returns.  The Python walk is
the numpy-only path and the tests' reference.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.adjacency import Graph


def _compiled_components(graph: Graph) -> Tuple[np.ndarray, int] | None:
    """scipy's ``(labels, count)`` for ``graph``, or ``None`` without
    scipy.  Resolved per call, so the test fixtures that hide scipy
    exercise the Python walk."""
    try:
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components as compiled
    except ImportError:
        return None
    n = graph.num_vertices
    indptr, indices, weights = graph.csr_arrays()
    count, labels = compiled(
        sp.csr_matrix((weights, indices, indptr), shape=(n, n)),
        directed=False)
    return labels.astype(np.int64), int(count)


def connected_components(graph: Graph) -> Tuple[np.ndarray, int]:
    """Label every vertex with its component id.

    Returns ``(labels, count)``; component ids are assigned in order of
    their smallest vertex, so labelling is deterministic.  Isolated
    vertices form singleton components.
    """
    if graph.num_vertices == 0:
        return np.empty(0, dtype=np.int64), 0
    compiled = _compiled_components(graph)
    if compiled is None:
        return _python_components(graph)
    labels, count = compiled
    # Renumber in order of each component's smallest vertex unless
    # scipy already did: then the running maximum of the labels never
    # steps by more than one.
    running = np.maximum.accumulate(labels)
    if labels[0] != 0 or (np.diff(running) > 1).any():
        _, first = np.unique(labels, return_index=True)
        renumber = np.empty(count, dtype=np.int64)
        renumber[np.argsort(first)] = np.arange(count)
        labels = renumber[labels]
    return labels, count


def _python_components(graph: Graph) -> Tuple[np.ndarray, int]:
    """:func:`connected_components` by a Python depth-first walk."""
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    count = 0
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = count
        stack = [root]
        while stack:
            v = stack.pop()
            for u in graph.neighbors(v):
                if labels[u] < 0:
                    labels[u] = count
                    stack.append(int(u))
        count += 1
    return labels, count


def is_connected(graph: Graph) -> bool:
    """Whether the graph has exactly one connected component.

    The empty graph (0 vertices) is considered connected.
    """
    n = graph.num_vertices
    if n <= 1:
        return True
    compiled = _compiled_components(graph)
    if compiled is not None:
        return compiled[1] == 1
    return _python_components(graph)[1] == 1


def component_vertex_lists(labels: np.ndarray,
                           count: int) -> List[np.ndarray]:
    """Group vertex ids by component label (ascending ids within each)."""
    if count == 0:
        return []
    members = np.argsort(labels, kind="stable")
    ends = np.bincount(labels, minlength=count).cumsum()
    return np.split(members, ends[:-1])
