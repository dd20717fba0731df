"""Ordering disconnected graphs component by component.

The Fiedler vector of a disconnected graph is degenerate (``lambda_2 = 0``
with component-indicator eigenvectors) and carries no intra-component
locality information.  The principled treatment — and the one this
library applies — is to order each connected component with Spectral LPM
independently and concatenate the component orders, in ascending order
of each component's smallest vertex id.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.core.ordering import LinearOrder
from repro.graph.adjacency import Graph
from repro.graph.traversal import connected_components

OrderFn = Callable[[Graph], LinearOrder]


def order_components(graph: Graph, order_fn: OrderFn) -> LinearOrder:
    """Order every connected component with ``order_fn`` and concatenate.

    ``order_fn`` receives each component as a standalone graph (vertices
    relabelled ``0..k-1``) and must return a :class:`LinearOrder` on it.
    """
    labels, count = connected_components(graph)
    # Labels number the components in order of their smallest vertex.
    parts = graph.split(labels, count)
    pieces: List[np.ndarray] = [
        original_ids[order_fn(sub).permutation]
        for sub, original_ids in parts]
    permutation = (np.concatenate(pieces) if pieces
                   else np.empty(0, dtype=np.int64))
    return LinearOrder(permutation)
