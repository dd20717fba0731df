"""repro.api — the unified, typed, batch-first public API.

One import gives the whole pipeline behind one front door::

    from repro.api import SpectralIndex

    index = SpectralIndex.build((32, 32))        # domain -> index
    execution = index.range(((4, 4), (9, 9)))    # B+-tree range query
    result = index.nn((5, 5), k=8)               # rank-window k-NN

The pieces, in dependency order:

* **Domain** (:mod:`~repro.api.domains`) — what gets ordered: a grid,
  a sparse :class:`~repro.geometry.PointSet`, or a graph.
* **Mapping** (:mod:`~repro.api.mappings`) — how it gets ordered: one
  interface, :class:`~repro.mapping.LocalityMapping`, an ordering
  function with a per-grid memo, implemented by both the curve and
  spectral families; :func:`make_mapping` is the one resolver.
* **Service** (:class:`~repro.service.OrderingService`) — who pays for
  eigensolves: two cache tiers, request coalescing (concurrent misses
  on one fingerprint run exactly one solve), and topology-amortized
  batching.  A request is a value: a domain plus a
  :class:`SpectralConfig` or ``None``.
* **Index** (:class:`SpectralIndex`) — the facade composing all of the
  above with the page layout and query engine: ``range``, ``nn``,
  ``join``, and the vectorized ``query_many`` (one batched order
  acquisition, then the queries in input order on the caller's thread).
  It is the one layer that sends a mapping's order to the service, as
  a cacheable spectral mapping's config; every other mapping orders
  itself.
* **Serving fronts** — :class:`AsyncSpectralIndex`
  (:mod:`repro.api.aio`) runs the same surface as coroutines on one
  executor thread for event-loop services,
  :class:`~repro.service.ShardedIndexFrontend` partitions traffic over
  the fingerprint keyspace to per-shard services in-process,
  :class:`ProcessPoolFrontend` serves the identical surface over a
  fleet of worker *processes* (:mod:`repro.serve`) with per-shard disk
  stores that make fleet restarts eigensolve-free, and
  :class:`RemoteFrontend` (:mod:`repro.net`) speaks the same surface
  to a ``repro-serve --listen`` server over TCP.

The pre-facade entry points (``repro.mapping.mapping_by_name``, direct
``LinearStore`` construction) have completed their deprecation cycle
and are gone: mappings come from :func:`make_mapping`, stores from
:meth:`SpectralIndex.build`.
"""

from repro.api.aio import AsyncSpectralIndex
from repro.api.domains import Domain, DomainLike, as_domain
from repro.api.index import SpectralIndex
from repro.api.process_pool import ProcessPoolFrontend
from repro.api.mappings import MappingSpec, make_mapping
from repro.api.queries import (
    JoinQuery,
    NNQuery,
    NNResult,
    Query,
    RangeQuery,
)
from repro.core.spectral import SpectralConfig
from repro.geometry.pointset import PointSet
from repro.mapping.interface import LocalityMapping
from repro.net.client import RemoteFrontend
from repro.service.ordering import OrderingService

__all__ = [
    "AsyncSpectralIndex",
    "Domain",
    "DomainLike",
    "JoinQuery",
    "LocalityMapping",
    "MappingSpec",
    "NNQuery",
    "NNResult",
    "OrderingService",
    "PointSet",
    "ProcessPoolFrontend",
    "Query",
    "RangeQuery",
    "RemoteFrontend",
    "SpectralConfig",
    "SpectralIndex",
    "as_domain",
    "make_mapping",
]
