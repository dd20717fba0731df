"""Keyspace-partitioned serving: a sharded front over ordering services.

The content-hash fingerprints that key every cached order
(:mod:`repro.service.fingerprint`) are uniformly distributed SHA-256
digests, which makes them a ready-made partitioning keyspace.
:class:`ShardedIndexFrontend` exploits that: it owns N independent
:class:`~repro.service.OrderingService` shards and routes every
request — orders, artifacts, batches, and whole
:class:`~repro.api.SpectralIndex` builds — to the shard that owns the
domain's fingerprint.

It is the serving surface itself, called in process; worker processes
and the socket server answer remote requests by calling these methods.

Why shard by *domain* fingerprint (not the full order key)?  All
configurations over one domain land on one shard, so that shard's
hierarchy cache and topology batching keep amortizing shared work
exactly as they do in a single service; distinct domains spread across
shards, so each shard's memory LRU and disk store stay proportional to
its slice of the keyspace, and per-shard disk stores never contend on
one directory.  The routing is deterministic and process-independent
(SHA-256, not ``hash()``), so a fleet of processes given the same shard
count and store directories agree on ownership — the multi-process
deployment story is "run one frontend per process over shared per-shard
store directories".

Thread safety is inherited, not invented: each shard is a fully
thread-safe, single-flight ``OrderingService``, each built index locks
its own lazy state, and this frontend only adds an (internally locked)
index table and a pure routing function.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.caching import LRUCache
from repro.core.ordering import LinearOrder
from repro.errors import InvalidParameterError
from repro.obs import span
from repro.parallel import ensure_workers, map_in_threads
from repro.geometry.grid import Grid
from repro.graph.adjacency import Graph
from repro.service.artifacts import OrderArtifact
from repro.service.ordering import (
    ConfigLike,
    OrderingService,
    ServiceStats,
    normalize_requests,
)
from repro.service.routing import (
    coerce_domain,
    routing_fingerprint,
    shard_index,
    shard_of_domain,
)


class ShardedIndexFrontend:
    """Routes ordering and query traffic across per-shard services.

    Parameters
    ----------
    shards:
        Number of keyspace partitions to create (ignored when
        ``services`` is given).
    services:
        Pre-built :class:`~repro.service.OrderingService` instances to
        route over — e.g. each with its own disk store and capacity.
    stores:
        Per-shard store arguments (directory paths or
        :class:`~repro.service.ArtifactStore` instances), one per
        shard; ``None`` keeps every shard memory-only.
    memory_entries, hierarchy_entries:
        Forwarded to each created shard service.
    index_defaults:
        Default keyword arguments applied to every
        :meth:`index_for` build (``page_size``, ``buffer_capacity``,
        ...); per-call keywords win.
    max_indexes:
        Capacity of the built-index LRU behind :meth:`index_for` /
        :meth:`query_many`.  Evicting an index drops its materialized
        views and stores; its *orders* stay cached in the owning
        shard's service, so a re-build after eviction pays a graph/page
        layout, never an eigensolve.

    Examples
    --------
    >>> from repro.geometry import Grid
    >>> front = ShardedIndexFrontend(shards=2)
    >>> order = front.order_grid(Grid((6, 6)))
    >>> order.n
    36
    """

    def __init__(self, shards: int = 4, *,
                 services: Optional[Sequence[OrderingService]] = None,
                 stores: Optional[Sequence] = None,
                 memory_entries: int = 128,
                 hierarchy_entries: int = 32,
                 index_defaults: Optional[dict] = None,
                 max_indexes: int = 64):
        if services is not None:
            services = list(services)
            if not services:
                raise InvalidParameterError(
                    "services must be a non-empty sequence"
                )
            for service in services:
                if not isinstance(service, OrderingService):
                    raise InvalidParameterError(
                        "services must be OrderingService instances, "
                        f"got {type(service).__name__}"
                    )
            if stores is not None:
                raise InvalidParameterError(
                    "pass either prebuilt services or stores, not both"
                )
            self._services = services
        else:
            if shards < 1:
                raise InvalidParameterError(
                    f"shards must be >= 1, got {shards}"
                )
            if stores is not None and len(stores) != shards:
                raise InvalidParameterError(
                    f"stores must supply one entry per shard "
                    f"({shards}), got {len(stores)}"
                )
            self._services = [
                OrderingService(
                    memory_entries=memory_entries,
                    store=(stores[i] if stores is not None else None),
                    hierarchy_entries=hierarchy_entries,
                )
                for i in range(int(shards))
            ]
        self._index_defaults = dict(index_defaults or {})
        # Bounded: a long-lived frontend serving a stream of distinct
        # domains must not accumulate views/stores forever.  The locked
        # LRU keeps the footprint at max_indexes; evicted domains
        # rebuild from the shard's (still warm) order caches.
        self._indexes: "LRUCache[Tuple, object]" = LRUCache(  # guarded-by: _lock
            max_indexes)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """How many keyspace partitions this frontend routes over."""
        return len(self._services)

    @property
    def services(self) -> Tuple[OrderingService, ...]:
        """The per-shard services, in shard order."""
        return tuple(self._services)

    def shard_of(self, domain) -> int:
        """The shard owning ``domain`` — a pure, stable function.

        The leading 64 bits of the domain's SHA-256 fingerprint modulo
        the shard count (:func:`repro.service.routing.shard_of_domain`):
        uniform over the keyspace, identical in every process, and
        independent of request order.
        """
        return shard_of_domain(domain, len(self._services))

    def service_for(self, domain) -> OrderingService:
        """The :class:`~repro.service.OrderingService` owning ``domain``."""
        return self._services[self.shard_of(domain)]

    # ------------------------------------------------------------------
    # Ordering traffic
    # ------------------------------------------------------------------
    def order_grid(self, grid: Grid,
                   config: ConfigLike = None) -> LinearOrder:
        """Routed :meth:`~repro.service.OrderingService.order_grid`."""
        return self.service_for(grid).order_grid(grid, config)

    def grid_artifact(self, grid: Grid,
                      config: ConfigLike = None) -> OrderArtifact:
        """Routed :meth:`~repro.service.OrderingService.grid_artifact`."""
        return self.service_for(grid).grid_artifact(grid, config)

    def order_graph(self, graph: Graph,
                    config: ConfigLike = None) -> LinearOrder:
        """Routed :meth:`~repro.service.OrderingService.order_graph`."""
        return self.service_for(graph).order_graph(graph, config)

    def graph_artifact(self, graph: Graph,
                       config: ConfigLike = None) -> OrderArtifact:
        """Routed :meth:`~repro.service.OrderingService.graph_artifact`."""
        return self.service_for(graph).graph_artifact(graph, config)

    def order_many(self, requests: Sequence, *,
                   parallelism: Optional[int] = None
                   ) -> List[LinearOrder]:
        """Batched ordering across shards; results align with input.

        Requests are partitioned by owning shard and each sub-batch
        goes through that shard's
        :meth:`~repro.service.OrderingService.order_many` (keeping its
        topology amortization).  ``parallelism`` > 1 runs the shard
        sub-batches on that many threads — shards are independent
        services, so cross-shard batches scale with no shared locks.
        """
        normalized = normalize_requests(requests)
        groups: Dict[int, List[int]] = {}
        for i, request in enumerate(normalized):
            groups.setdefault(self.shard_of(request.domain),
                              []).append(i)
        results: List[Optional[LinearOrder]] = [None] * len(normalized)

        def run_shard(item: Tuple[int, List[int]]) -> None:
            shard, indices = item
            orders = self._services[shard].order_many(
                [normalized[i] for i in indices])
            for i, order in zip(indices, orders):
                results[i] = order

        with span("shard.order_many", batch=len(normalized),
                  shards=len(groups)):
            map_in_threads(run_shard, list(groups.items()),
                           ensure_workers(parallelism),
                           thread_name_prefix="repro-shard")
        return results

    # ------------------------------------------------------------------
    # Index traffic
    # ------------------------------------------------------------------
    def index_for(self, domain, mapping="spectral", **build_kwargs):
        """A :class:`~repro.api.SpectralIndex` wired to the owning shard.

        Indexes are cached per ``(domain, mapping, build kwargs)`` in
        an LRU of ``max_indexes`` entries, so repeated traffic against
        one domain reuses its materialized views and stores while a
        stream of distinct domains stays memory-bounded; building is
        lazy (no solve until a query), so cache misses here are cheap.
        """
        # Imported lazily: repro.service must stay importable without
        # pulling the whole facade in (and the facade imports us).
        from repro.api.index import SpectralIndex
        from repro.mapping.interface import LocalityMapping

        domain = coerce_domain(domain)
        # Fingerprinted once (graphs hash O(edges)): the fingerprint is
        # both the table key and the routing input.
        fingerprint = routing_fingerprint(domain)
        spec_key = (("instance", id(mapping))
                    if isinstance(mapping, LocalityMapping)
                    else repr(mapping))
        kwargs = dict(self._index_defaults)
        kwargs.update(build_kwargs)
        key = (fingerprint, spec_key,
               tuple(sorted((name, repr(value))
                            for name, value in kwargs.items())))
        with self._lock:
            index = self._indexes.get(key)
            if index is None:
                index = SpectralIndex.build(
                    domain, mapping,
                    service=self._services[
                        shard_index(fingerprint, len(self._services))],
                    **kwargs,
                )
                self._indexes.put(key, index)
        return index

    def query_many(self, domain, queries: Sequence, *,
                   parallelism: Optional[int] = None) -> List:
        """Routed :meth:`~repro.api.SpectralIndex.query_many`."""
        return self.index_for(domain).query_many(
            queries, parallelism=parallelism)

    def range(self, domain, box, **kwargs):
        """Routed :meth:`~repro.api.SpectralIndex.range`."""
        return self.index_for(domain).range(box, **kwargs)

    def nn(self, domain, cell, k: int, **kwargs):
        """Routed :meth:`~repro.api.SpectralIndex.nn`."""
        return self.index_for(domain).nn(cell, k, **kwargs)

    def join(self, domain, cells_a, cells_b, *, epsilon: int,
             window: int, **kwargs):
        """Routed :meth:`~repro.api.SpectralIndex.join`."""
        return self.index_for(domain).join(
            cells_a, cells_b, epsilon=epsilon, window=window, **kwargs)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> List[ServiceStats]:
        """Per-shard service stats, in shard order.

        Each entry is an atomic
        :meth:`~repro.service.OrderingService.snapshot`, so the
        returned counters never tear against in-flight requests.
        """
        return [service.snapshot() for service in self._services]

    def combined_stats(self) -> ServiceStats:
        """All shards' counters summed into one snapshot.

        Built from per-shard atomic snapshots — every summand is
        internally consistent (no mid-update reads), though shards are
        sampled sequentially, so the sum is a fuzzy barrier across
        shards like any multi-source aggregate.
        """
        return ServiceStats.total(self.stats())

    def __repr__(self) -> str:
        with self._lock:
            indexes = len(self._indexes)
        return (f"ShardedIndexFrontend(shards={len(self._services)}, "
                f"indexes={indexes})")
