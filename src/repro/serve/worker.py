"""The worker process: its shards' serving surface behind one request loop.

A worker owns one or more keyspace shards.  For each it hydrates an
:class:`~repro.service.OrderingService` over that shard's on-disk
:class:`~repro.service.ArtifactStore` directory — which is the whole
restart story: a freshly spawned worker answers every previously-seen
request from disk, paying **zero eigensolves** (the fleet test pins
this through the services' ``solver_calls`` counters).  A
:class:`~repro.service.ShardedIndexFrontend` over those services
answers the requests, through the server's table
(:func:`~repro.serve.protocol.serve_message`).

The loop is deliberately single-threaded: one request in flight per
pipe means no worker-side locking beyond what the services already
provide, and a crash between requests can never corrupt a response.
Routing is *verified, not trusted*: the worker re-derives the owning
shard of every domain with the same
:func:`~repro.service.routing.shard_of_domain` formula the dispatcher
used and refuses domains it does not own — turning any router/worker
disagreement into a loud error instead of a silently cold cache.

``worker_main`` is a module-level function so the ``spawn`` context can
import it by reference in the child process (required on Windows/macOS
and under pytest).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.obs import dump_metrics, remote_capture, span
from repro.service.ordering import OrderingService
from repro.service.sharding import ShardedIndexFrontend
from repro.serve.protocol import (
    ErrorResponse,
    HealthRequest,
    MetricsRequest,
    OkResponse,
    PingRequest,
    ShutdownRequest,
    StatsRequest,
    TracedRequest,
    TracedResponse,
    WorkerHealth,
    WorkerHello,
    error_response,
    serve_message,
)

#: Requests about the worker itself, answered by the named method.
_INTROSPECTION = {
    PingRequest: "hello",
    StatsRequest: "stats",
    HealthRequest: "health",
    MetricsRequest: "metrics",
}


class _OwnedShards(ShardedIndexFrontend):
    """The sharded surface, refusing domains of shards not owned here.

    It spans every shard of the keyspace, so its routing is the
    dispatcher's exactly; the shards this worker does not own hold
    memory-only services that the ownership check keeps unreachable.
    """

    def __init__(self, worker_id: int, owned: Tuple[int, ...],
                 services: Sequence[OrderingService],
                 **kwargs) -> None:
        super().__init__(services=services, **kwargs)
        self._worker_id = worker_id
        self._owned = owned

    def shard_of(self, domain) -> int:
        shard = super().shard_of(domain)
        if shard not in self._owned:
            raise InvalidParameterError(
                f"worker {self._worker_id} owns shards {self._owned}, "
                f"not shard {shard} — dispatcher/worker routing disagree"
            )
        return shard

    def index_for(self, domain, mapping="spectral", **build_kwargs):
        self.shard_of(domain)  # the index table routes by fingerprint
        return super().index_for(domain, mapping, **build_kwargs)


class ShardWorker:
    """The in-process half of a worker: identity, health, dispatch.

    Factored out of the pipe loop so tests can drive it synchronously
    (same code path, no processes) and so the CLI's in-process fallback
    can reuse it.
    """

    def __init__(self, worker_id: int, shard_ids: Sequence[int],
                 num_shards: int, store_dirs: Dict[int, str],
                 memory_entries: int = 128, max_indexes: int = 16,
                 index_defaults: Optional[dict] = None):
        self.worker_id = int(worker_id)
        self.shard_ids = tuple(int(s) for s in shard_ids)
        self.num_shards = int(num_shards)
        self._front = _OwnedShards(
            self.worker_id, self.shard_ids,
            [OrderingService(memory_entries=memory_entries,
                             store=(store_dirs.get(shard)
                                    if shard in self.shard_ids else None))
             for shard in range(self.num_shards)],
            index_defaults=index_defaults,
            max_indexes=max_indexes,
        )
        self._started = time.monotonic()
        self.requests_handled = 0

    # ------------------------------------------------------------------
    @property
    def services(self) -> Dict[int, OrderingService]:
        """The per-shard services, keyed by (owned) shard id."""
        return {shard: self._front.services[shard]
                for shard in self.shard_ids}

    def _index_for(self, domain):
        return self._front.index_for(domain)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def hello(self) -> WorkerHello:
        return WorkerHello(worker_id=self.worker_id,
                           shard_ids=self.shard_ids,
                           num_shards=self.num_shards,
                           pid=os.getpid())

    def stats(self) -> Dict[int, object]:
        return {shard: service.stats
                for shard, service in self.services.items()}

    def health(self) -> WorkerHealth:
        """Liveness detail: identity, uptime, per-shard store probes.

        Probing is read-only (a directory check), so ``health`` is safe
        to poll at any frequency; a shard whose store directory vanished
        reports the failure here instead of as a latency cliff on the
        next disk miss.
        """
        stores: Dict[int, str] = {}
        for shard, service in self.services.items():
            store = service.store
            if store is None:
                stores[shard] = "ok (memory-only)"
                continue
            try:
                root = str(store.root)
                stores[shard] = ("ok" if os.path.isdir(root)
                                 else f"missing store dir {root}")
            except Exception as exc:  # pragma: no cover - defensive
                stores[shard] = f"error: {exc!r}"
        status = ("ok" if all(v.startswith("ok")
                              for v in stores.values()) else "degraded")
        return WorkerHealth(
            worker_id=self.worker_id,
            pid=os.getpid(),
            shard_ids=self.shard_ids,
            num_shards=self.num_shards,
            uptime_seconds=time.monotonic() - self._started,
            requests_handled=self.requests_handled,
            stores=stores,
            status=status,
        )

    def metrics(self) -> str:
        """This process's metrics in Prometheus text format."""
        return dump_metrics()

    # ------------------------------------------------------------------
    def handle(self, request) -> Tuple[object, bool]:
        """Dispatch one request; returns ``(response, keep_running)``.

        A :class:`~repro.serve.protocol.TracedRequest` envelope resumes
        the dispatcher's trace for the duration of the request (the
        loop is single-threaded, so one capture scope per request is
        exact) and ships every span recorded worker-side back inside a
        :class:`~repro.serve.protocol.TracedResponse` — including on
        error responses, which still carry the spans recorded up to the
        failure.
        """
        if isinstance(request, TracedRequest):
            inner = request.request
            with remote_capture(request.trace_context) as captured:
                with span("serve.worker",
                          worker_id=self.worker_id,
                          request=type(inner).__name__) as sp:
                    response, keep_running = self._dispatch(inner)
                    if isinstance(response, ErrorResponse):
                        sp.set_attribute("error", response.kind)
            return (TracedResponse(response=response,
                                   spans=tuple(captured)), keep_running)
        return self._dispatch(request)

    def _dispatch(self, request) -> Tuple[object, bool]:
        self.requests_handled += 1
        if isinstance(request, ShutdownRequest):
            return OkResponse("bye"), False
        try:
            method = _INTROSPECTION.get(type(request))
            if method is not None:
                return OkResponse(getattr(self, method)()), True
            return OkResponse(serve_message(self._front, request)), True
        except BaseException as exc:  # ship the failure, keep serving
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return error_response(exc), True


def worker_main(worker_id: int, shard_ids: Sequence[int],
                num_shards: int, conn, store_dirs: Dict[int, str],
                memory_entries: int = 128, max_indexes: int = 16,
                index_defaults: Optional[dict] = None) -> None:
    """Entry point of a spawned worker process.

    Hydrates the shard services (warm stores make that the *only* cost
    of a restart) and answers requests until a
    :class:`~repro.serve.protocol.ShutdownRequest` arrives or the
    dispatcher's end of the pipe closes (EOF) — the latter covers a
    crashed or impolite parent, so orphaned workers exit instead of
    lingering.
    """
    worker = ShardWorker(
        worker_id, shard_ids, num_shards, store_dirs,
        memory_entries=memory_entries,
        max_indexes=max_indexes,
        index_defaults=index_defaults,
    )
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                break
            response, keep_running = worker.handle(request)
            try:
                conn.send(response)
            except Exception as exc:
                # Connection.send pickles the whole payload before
                # writing a byte, so a pickling failure leaves the pipe
                # clean — ship the failure instead of leaving the
                # dispatcher blocked on a reply that never comes.
                conn.send(error_response(exc))
            if not keep_running:
                break
    finally:
        conn.close()
