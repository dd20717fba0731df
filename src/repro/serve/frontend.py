"""The serving surface, written once over a message transport.

:class:`MessageFrontend` answers the calls of the in-process
:class:`~repro.service.ShardedIndexFrontend` by turning each into one
:mod:`repro.serve.protocol` message for ``_call``, which a subclass
implements over its transport (a worker pipe, a socket).  The serving
end answers with :func:`~repro.serve.protocol.serve_message`, the
mirror of this class.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.ordering import LinearOrder
from repro.geometry.grid import Grid
from repro.graph.adjacency import Graph
from repro.obs import span
from repro.parallel import ensure_workers
from repro.service.artifacts import OrderArtifact
from repro.service.ordering import ServiceStats, normalize_requests
from repro.service.routing import (
    coerce_domain,
    coerce_domain_as,
    shard_of_domain,
)
from repro.serve.protocol import (
    IndexQueryMessage,
    OrderManyMessage,
    OrderRequestMessage,
)


class MessageFrontend:
    """The sharded serving surface over one ``_call(message)``.

    Subclasses implement ``_call`` — deliver one protocol message and
    return its payload, re-raising a remote failure locally — along
    with :attr:`num_shards` and :meth:`stats`.  Domains are checked and
    coerced here, before anything crosses the transport, so every front
    rejects a malformed request with the same error.
    """

    #: Name of the span around each index query on the calling side.
    _index_span = "front.index_op"

    def _call(self, message: Any) -> Any:
        """Deliver ``message`` and return its reply's payload."""
        raise NotImplementedError

    @property
    def num_shards(self) -> int:
        """How many keyspace partitions this front routes over."""
        raise NotImplementedError

    def stats(self) -> List[ServiceStats]:
        """Per-shard service stats, in shard order."""
        raise NotImplementedError

    def combined_stats(self) -> ServiceStats:
        """All shards' counters summed into one snapshot."""
        return ServiceStats.total(self.stats())

    def shard_of(self, domain: Any) -> int:
        """The shard owning ``domain`` — the one routing formula every
        front shares (:func:`~repro.service.routing.shard_of_domain`)."""
        return shard_of_domain(domain, self.num_shards)

    # ------------------------------------------------------------------
    # Ordering traffic
    # ------------------------------------------------------------------
    def order_grid(self, grid: Any, config: Any = None) -> LinearOrder:
        """Routed :meth:`~repro.service.OrderingService.order_grid`."""
        return self._order(grid, Grid, config, want_artifact=False)

    def grid_artifact(self, grid: Any, config: Any = None) -> OrderArtifact:
        """Routed :meth:`~repro.service.OrderingService.grid_artifact`."""
        return self._order(grid, Grid, config, want_artifact=True)

    def order_graph(self, graph: Any, config: Any = None) -> LinearOrder:
        """Routed :meth:`~repro.service.OrderingService.order_graph`."""
        return self._order(graph, Graph, config, want_artifact=False)

    def graph_artifact(self, graph: Any,
                       config: Any = None) -> OrderArtifact:
        """Routed :meth:`~repro.service.OrderingService.graph_artifact`."""
        return self._order(graph, Graph, config, want_artifact=True)

    def _order(self, domain: Any, kind: type, config: Any,
               want_artifact: bool) -> Any:
        # The entry point fixes the domain kind; the serving end
        # dispatches on the value's type, so a mismatch must fail here
        # rather than silently serve the other family.
        return self._call(OrderRequestMessage(
            domain=coerce_domain_as(domain, kind), config=config,
            want_artifact=want_artifact))

    def order_many(self, requests: Sequence, *,
                   parallelism: Optional[int] = None) -> List[LinearOrder]:
        """Batched ordering in one message; results align with input.

        ``parallelism`` is validated for surface compatibility; the
        serving end decides how the batch is spread.
        """
        ensure_workers(parallelism)
        pairs = tuple((request.domain, request.config)
                      for request in normalize_requests(requests))
        if not pairs:
            return []
        return self._call(OrderManyMessage(requests=pairs))

    # ------------------------------------------------------------------
    # Index traffic
    # ------------------------------------------------------------------
    def range(self, domain: Any, box: Any, **kwargs: Any) -> Any:
        """Routed :meth:`~repro.api.SpectralIndex.range`."""
        return self._index_op(domain, "range", (box,), kwargs)

    def nn(self, domain: Any, cell: Any, k: int, **kwargs: Any) -> Any:
        """Routed :meth:`~repro.api.SpectralIndex.nn`."""
        return self._index_op(domain, "nn", (cell, k), kwargs)

    def join(self, domain: Any, cells_a: Any, cells_b: Any, *,
             epsilon: int, window: int, **kwargs: Any) -> Any:
        """Routed :meth:`~repro.api.SpectralIndex.join`."""
        kwargs = dict(kwargs, epsilon=epsilon, window=window)
        return self._index_op(domain, "join", (cells_a, cells_b), kwargs)

    def query_many(self, domain: Any, queries: Sequence) -> List:
        """Routed :meth:`~repro.api.SpectralIndex.query_many`."""
        return self._index_op(domain, "query_many", (list(queries),), {})

    def _index_op(self, domain: Any, op: str, args: Tuple,
                  kwargs: Dict[str, Any]) -> Any:
        message = IndexQueryMessage(domain=coerce_domain(domain), op=op,
                                    args=tuple(args), kwargs=dict(kwargs))
        with span(self._index_span, op=op):
            return self._call(message)
