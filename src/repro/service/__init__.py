"""Ordering service layer: cached, batched, persistable spectral orders.

The paper computes a spectral order once per domain and reuses it
everywhere; this package is the subsystem that owns that lifecycle.
:class:`OrderingService` fronts the core pipeline with an in-memory LRU,
an optional versioned on-disk artifact store (zero eigensolves after a
restart), and a topology-grouping batch API.  See
:mod:`repro.service.ordering` for the full story.
"""

from repro.caching import LRUCache
from repro.service.artifacts import ARTIFACT_SOURCES, OrderArtifact
from repro.service.fingerprint import (
    FINGERPRINT_VERSION,
    config_fingerprint,
    domain_fingerprint,
    graph_fingerprint,
    grid_fingerprint,
    order_key,
    points_fingerprint,
)
from repro.service.ordering import (
    OrderingService,
    OrderRequest,
    ServiceStats,
    normalize_requests,
)
from repro.service.routing import (
    ShardableDomain,
    coerce_domain,
    shard_index,
    shard_of_domain,
)
from repro.service.sharding import ShardedIndexFrontend
from repro.service.store import STORE_VERSION, ArtifactStore, StoreEntry

__all__ = [
    "ARTIFACT_SOURCES",
    "ArtifactStore",
    "FINGERPRINT_VERSION",
    "LRUCache",
    "OrderArtifact",
    "OrderRequest",
    "OrderingService",
    "STORE_VERSION",
    "ServiceStats",
    "ShardableDomain",
    "ShardedIndexFrontend",
    "StoreEntry",
    "coerce_domain",
    "config_fingerprint",
    "domain_fingerprint",
    "graph_fingerprint",
    "grid_fingerprint",
    "normalize_requests",
    "order_key",
    "points_fingerprint",
    "shard_index",
    "shard_of_domain",
]
