"""Ordering disconnected graphs component by component.

The Fiedler vector of a disconnected graph is degenerate (``lambda_2 = 0``
with component-indicator eigenvectors) and carries no intra-component
locality information.  The principled treatment — and this library's
default — is to order each connected component with Spectral LPM
independently and concatenate the component orders.

The concatenation sequence is itself a policy:

``"by_min_vertex"``
    Components appear in ascending order of their smallest vertex id
    (deterministic, input-order friendly — the default).
``"by_size"``
    Largest component first (ties by smallest vertex id), which packs the
    bulk of the data contiguously.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.core.ordering import LinearOrder
from repro.errors import InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.traversal import connected_components

COMPONENT_ARRANGEMENTS = ("by_min_vertex", "by_size")

OrderFn = Callable[[Graph], LinearOrder]


def order_components(graph: Graph, order_fn: OrderFn,
                     arrangement: str = "by_min_vertex") -> LinearOrder:
    """Order every connected component with ``order_fn`` and concatenate.

    ``order_fn`` receives each component as a standalone graph (vertices
    relabelled ``0..k-1``) and must return a :class:`LinearOrder` on it.
    """
    if arrangement not in COMPONENT_ARRANGEMENTS:
        raise InvalidParameterError(
            f"unknown arrangement {arrangement!r}; "
            f"expected one of {COMPONENT_ARRANGEMENTS}"
        )
    labels, count = connected_components(graph)
    return order_labelled_components(graph, labels, count, order_fn,
                                     arrangement)


def order_labelled_components(graph: Graph, labels: np.ndarray, count: int,
                              order_fn: OrderFn,
                              arrangement: str) -> LinearOrder:
    """:func:`order_components` for a graph already labelled by
    :func:`~repro.graph.traversal.connected_components`, so a caller that
    has the labels pays no second traversal."""
    parts = graph.split(labels, count)
    if arrangement == "by_size":
        parts.sort(key=lambda part: (-len(part[1]), int(part[1][0])))
    else:
        parts.sort(key=lambda part: int(part[1][0]))
    pieces: List[np.ndarray] = [
        original_ids[order_fn(sub).permutation]
        for sub, original_ids in parts]
    permutation = (np.concatenate(pieces) if pieces
                   else np.empty(0, dtype=np.int64))
    return LinearOrder(permutation)
