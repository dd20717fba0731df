"""Deterministic tie-breaking for equal Fiedler-vector entries.

Step 5 of the paper sorts points by their Fiedler entries but does not say
how equal entries are ordered — and on symmetric graphs exact ties are
common (e.g. the center of an odd grid sits at 0).  Ranks must be a
permutation, so ties have to be broken somehow; doing it deterministically
is what makes spectral orders reproducible.

Strategies
----------
``"index"``
    Ascending vertex id — the simplest stable rule (default).
``"bfs"``
    Position in a breadth-first traversal started from the vertex with
    the smallest value; the pipeline passes the snapped tie groups, so
    the start is the lowest vertex of the smallest group, whatever
    noise the solver left.  Ties then resolve toward graph proximity,
    which keeps tied vertices spatially coherent.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.traversal import bfs_order

TIE_BREAK_STRATEGIES = ("index", "bfs")


def tie_break_keys(strategy: str, n: int, values: np.ndarray | None = None,
                   graph: Graph | None = None) -> np.ndarray:
    """Secondary sort keys for :func:`repro.core.ordering.order_by_values`.

    Parameters
    ----------
    strategy:
        One of :data:`TIE_BREAK_STRATEGIES`.
    n:
        Number of items.
    values:
        The primary values (required by ``"bfs"`` to pick its start).
    graph:
        The graph (required by ``"bfs"``).
    """
    if strategy == "index":
        return np.arange(n)
    if strategy == "bfs":
        if graph is None or values is None:
            raise InvalidParameterError(
                "the 'bfs' tie-break needs both the graph and the values"
            )
        if graph.num_vertices != n or len(values) != n:
            raise InvalidParameterError(
                "graph/values size mismatch with n"
            )
        start = int(np.argmin(values))
        visit = bfs_order(graph, start)
        keys = np.full(n, n, dtype=np.int64)  # unreached vertices last
        keys[visit] = np.arange(len(visit))
        return keys
    raise InvalidParameterError(
        f"unknown tie-break strategy {strategy!r}; "
        f"expected one of {TIE_BREAK_STRATEGIES}"
    )
