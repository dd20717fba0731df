"""Multi-process serving: a worker fleet over the sharded keyspace.

The serving track so far stayed inside one process — caching
(:class:`~repro.service.OrderingService`), coalescing, thread fan-out,
and in-process keyspace sharding
(:class:`~repro.service.ShardedIndexFrontend`).  This package crosses
the process boundary: :class:`ProcessFleet` runs N ``spawn``-context
worker processes, each hydrating per-shard
:class:`~repro.service.OrderingService` tiers from per-shard on-disk
:class:`~repro.service.ArtifactStore` directories, behind a dispatcher
that routes requests by the same deterministic
:func:`~repro.service.routing.shard_of_domain` formula every other
front uses.

What crosses the boundary is the *reduced model* of each solve — the
:class:`~repro.service.OrderArtifact` (permutation + provenance), a few
kilobytes — never the Laplacian or the Krylov state, which is the
economic argument for process-level deployment: eigensolves are
expensive to compute, cheap to ship.

Layers:

* :mod:`repro.serve.protocol` — the pickled request/response values,
  and :func:`~repro.serve.protocol.serve_message`, the one table that
  answers ordering and query messages from a serving surface;
* :mod:`repro.serve.frontend` — :class:`MessageFrontend`, the serving
  surface written once over a ``_call(message)`` transport;
* :mod:`repro.serve.worker` — the worker process main loop;
* :mod:`repro.serve.supervisor` — spawn, dispatch, crash detection,
  restart-and-rehydrate, graceful shutdown;
* :mod:`repro.serve.cli` — the ``repro-serve`` console script;
* :class:`repro.api.ProcessPoolFrontend` — the pipe transport under
  that surface, over this fleet (:class:`repro.net.RemoteFrontend` is
  the socket one).
"""

from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.supervisor import FleetStats, ProcessFleet, shard_store_dirs

__all__ = [
    "FleetStats",
    "PROTOCOL_VERSION",
    "ProcessFleet",
    "shard_store_dirs",
]
