"""The fleet supervisor: spawn, dispatch, crash recovery, shutdown.

:class:`ProcessFleet` runs N worker processes over S keyspace shards
(``workers <= shards``; shard ``s`` lives on worker ``s % workers``) in
the ``spawn`` start method — identical semantics on Linux, macOS, and
Windows, and safe under pytest (no forked interpreter state).

Dispatch is request/response over one duplex pipe per worker,
serialized by a per-worker lock; cross-worker fan-out (``broadcast``,
grouped ``order_many``) rides :func:`repro.parallel.map_in_threads`, so
the dispatcher threads merely block on IPC while the worker *processes*
run truly in parallel.

Crash recovery is restart-and-rehydrate: a dead pipe or dead process is
detected at the next dispatch (or an explicit :meth:`check_workers`),
the worker is respawned with the same shard assignment and store
directories, and — because every shard's state of record is its on-disk
:class:`~repro.service.ArtifactStore` — the replacement answers every
warm request from disk without a single eigensolve.  The in-flight
request of the crashed worker is retried once on the replacement; all
protocol requests are pure/idempotent, so the retry is safe.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    FleetShutdownError,
    InvalidParameterError,
    WorkerError,
)
from repro.obs import Timer, registry, span, tracing_enabled
from repro.parallel import ensure_workers, map_in_threads
from repro.service.ordering import ServiceStats
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    HealthRequest,
    MetricsRequest,
    PingRequest,
    ShutdownRequest,
    StatsRequest,
    TracedRequest,
    WorkerHealth,
    WorkerHello,
    unwrap_response,
)
from repro.serve.worker import worker_main

#: How long a graceful shutdown waits for a worker before killing it.
SHUTDOWN_GRACE_SECONDS = 10.0

_DISPATCH_SECONDS = registry().histogram(
    "repro_fleet_dispatch_seconds",
    "Round-trip latency of one dispatcher->worker request.")
_DISPATCHED = registry().counter(
    "repro_fleet_dispatched_total",
    "Requests sent to fleet workers.")
_RESTARTS = registry().counter(
    "repro_fleet_worker_restarts_total",
    "Worker processes respawned after a crash or explicit restart.")
_RETRIES = registry().counter(
    "repro_fleet_retried_requests_total",
    "Requests replayed on a freshly restarted worker.")


def shard_store_dirs(cache_dir, num_shards: int) -> Dict[int, str]:
    """Per-shard store directories under one cache root.

    The layout contract shared by the fleet, the CLI, and any external
    tooling: shard ``i`` persists under ``<cache_dir>/shard-<i:03d>``.
    A fleet restarted over the same root therefore rehydrates the same
    keyspace slices regardless of worker count.
    """
    root = Path(cache_dir).expanduser()
    return {i: str(root / f"shard-{i:03d}") for i in range(num_shards)}


@dataclass
class FleetStats:
    """Supervisor-side counters (worker-side live in ServiceStats)."""

    dispatched: int = 0
    worker_restarts: int = 0
    retried_requests: int = 0


class _WorkerHandle:
    """One worker process, its pipe, and the lock serializing both."""

    __slots__ = ("worker_id", "shard_ids", "process", "conn", "lock",
                 "generation")

    def __init__(self, worker_id: int, shard_ids: Tuple[int, ...]):
        self.worker_id = worker_id
        self.shard_ids = shard_ids
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.generation = 0

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ProcessFleet:
    """N worker processes serving S keyspace shards.

    Parameters
    ----------
    shards:
        Number of keyspace partitions (the routing modulus).
    workers:
        Number of worker processes; defaults to one per shard.  With
        ``workers < shards`` each worker owns every shard congruent to
        its id (``shard % workers``).
    cache_dir:
        Root of the per-shard artifact stores
        (see :func:`shard_store_dirs`).  ``None`` keeps every worker
        memory-only — restarts then start cold.
    memory_entries, max_indexes, index_defaults:
        Forwarded to every worker's shard services / index table.

    Examples
    --------
    >>> with ProcessFleet(shards=2) as fleet:       # doctest: +SKIP
    ...     len(fleet.hellos())
    2
    """

    def __init__(self, shards: int = 4, *,
                 workers: Optional[int] = None,
                 cache_dir=None,
                 memory_entries: int = 128,
                 max_indexes: int = 16,
                 index_defaults: Optional[dict] = None):
        if shards < 1:
            raise InvalidParameterError(
                f"shards must be >= 1, got {shards}"
            )
        workers = shards if workers is None else int(workers)
        if not 1 <= workers <= shards:
            raise InvalidParameterError(
                f"workers must be in [1, shards={shards}], got {workers}"
            )
        self._num_shards = int(shards)
        self._num_workers = workers
        self._store_dirs: Dict[int, str] = (
            shard_store_dirs(cache_dir, self._num_shards)
            if cache_dir is not None else {}
        )
        self._worker_kwargs = dict(
            memory_entries=memory_entries,
            max_indexes=max_indexes,
            index_defaults=dict(index_defaults or {}),
        )
        self._ctx = multiprocessing.get_context("spawn")
        self._closed = False
        self._lock = threading.Lock()  # guards spawn/restart/close
        self._stats_lock = threading.Lock()
        self.stats = FleetStats()  # guarded-by: _stats_lock
        self._handles: List[_WorkerHandle] = [
            _WorkerHandle(w, tuple(s for s in range(self._num_shards)
                                   if s % workers == w))
            for w in range(workers)
        ]
        try:
            for handle in self._handles:
                self._spawn(handle)
            # One synchronous ping per worker: surfaces import errors
            # and protocol mismatches at construction, not first use.
            for hello in self.broadcast(PingRequest()):
                if hello.protocol_version != PROTOCOL_VERSION:
                    raise WorkerError(
                        f"worker speaks protocol "
                        f"{hello.protocol_version}, dispatcher "
                        f"{PROTOCOL_VERSION}"
                    )
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        store_dirs = {shard: self._store_dirs[shard]
                      for shard in handle.shard_ids
                      if shard in self._store_dirs}
        process = self._ctx.Process(
            target=worker_main,
            name=f"repro-serve-{handle.worker_id}",
            args=(handle.worker_id, handle.shard_ids, self._num_shards,
                  child_conn, store_dirs),
            kwargs=self._worker_kwargs,
            daemon=True,
        )
        process.start()
        child_conn.close()  # the child owns its copy now
        handle.process = process
        handle.conn = parent_conn
        handle.generation += 1

    def restart_worker(self, worker_id: int,
                       seen_generation: Optional[int] = None) -> None:
        """Kill (if needed) and respawn one worker; rehydrates from disk.

        ``seen_generation`` makes crash-triggered restarts idempotent
        under concurrent dispatch: a thread that observed generation G
        fail restarts only if the handle still *is* generation G —
        otherwise another thread already replaced the worker and a
        second restart would kill the healthy replacement.
        """
        handle = self._handles[worker_id]
        with self._lock, handle.lock:
            # Re-checked under the lock: a dispatch racing close() must
            # not respawn a worker into a fleet that just shut down.
            self._require_open()
            if (seen_generation is not None
                    and handle.generation != seen_generation):
                return
            self._reap(handle)
            self._spawn(handle)
            with self._stats_lock:
                self.stats.worker_restarts += 1
            _RESTARTS.inc()

    @staticmethod
    def _reap(handle: _WorkerHandle) -> None:
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(SHUTDOWN_GRACE_SECONDS)
            if handle.process.is_alive():  # pragma: no cover
                handle.process.kill()
                handle.process.join()
            handle.process = None

    def check_workers(self) -> List[int]:
        """Restart any dead worker; returns the restarted ids."""
        self._require_open()
        restarted = []
        for handle in self._handles:
            if not handle.alive():
                self.restart_worker(handle.worker_id)
                restarted.append(handle.worker_id)
        return restarted

    def close(self) -> None:
        """Graceful shutdown: ask, wait, then insist.  Idempotent.

        Holds the fleet lock for the whole sweep so a crash-triggered
        restart serialized behind it sees ``_closed`` and refuses,
        rather than respawning a worker the sweep already missed.
        """
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        for handle in self._handles:
            # handle.lock held through send, ack, *and* reap: closing
            # the pipe out from under a dispatch thread's poll loop
            # would be undefined behavior; serialized behind the lock,
            # that thread instead finds a dead handle and surfaces
            # FleetShutdownError through the retry path.
            with handle.lock:
                if handle.alive() and handle.conn is not None:
                    try:
                        handle.conn.send(ShutdownRequest())
                        # The ack keeps shutdown strictly after any
                        # in-flight request on this pipe.
                        if handle.conn.poll(SHUTDOWN_GRACE_SECONDS):
                            handle.conn.recv()
                    except (OSError, EOFError, BrokenPipeError):
                        pass
                self._reap(handle)

    def __enter__(self) -> "ProcessFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """The routing modulus."""
        return self._num_shards

    @property
    def num_workers(self) -> int:
        """How many worker processes serve those shards."""
        return self._num_workers

    @property
    def store_dirs(self) -> Dict[int, str]:
        """Per-shard store directories (empty when memory-only)."""
        return dict(self._store_dirs)

    def worker_of_shard(self, shard: int) -> int:
        """Which worker owns ``shard``."""
        if not 0 <= shard < self._num_shards:
            raise InvalidParameterError(
                f"shard must be in [0, {self._num_shards}), got {shard}"
            )
        return shard % self._num_workers

    def _require_open(self) -> None:
        if self._closed:
            raise FleetShutdownError(
                "this fleet has been shut down; build a new one"
            )

    def request(self, shard: int, message):
        """Send ``message`` to the worker owning ``shard``; return the
        payload, re-raising worker-side failures locally.

        A dead worker (crashed pipe or dead process) is restarted and
        the request retried exactly once on the replacement — every
        protocol request is pure, so the retry cannot double-apply.

        When tracing is enabled the message rides inside a
        :class:`~repro.serve.protocol.TracedRequest` under a
        ``serve.dispatch`` span, and the spans shipped back in the
        worker's :class:`~repro.serve.protocol.TracedResponse` are
        ingested into this process's collector — one stitched trace
        across the pipe.  When tracing is off, the wire format is the
        bare message, byte-identical to the untraced protocol.
        """
        self._require_open()
        handle = self._handles[self.worker_of_shard(shard)]
        if tracing_enabled():
            with span("serve.dispatch", shard=shard,
                      worker=handle.worker_id,
                      request=type(message).__name__) as sp:
                wire = TracedRequest(request=message,
                                     trace_context=sp.context)
                return self._dispatch_message(handle, wire)
        return self._dispatch_message(handle, message)

    def _dispatch_message(self, handle: _WorkerHandle, wire):
        with Timer() as timer:
            try:
                try:
                    response = self._roundtrip(handle, wire)
                except (OSError, EOFError, BrokenPipeError) as exc:
                    # seen_generation was stamped under handle.lock by
                    # the failing roundtrip, so the restart is a no-op
                    # exactly when another thread already replaced
                    # *that* worker — never when a newer generation
                    # died too.
                    self.restart_worker(
                        handle.worker_id,
                        seen_generation=getattr(exc, "seen_generation",
                                                None))
                    with self._stats_lock:
                        self.stats.retried_requests += 1
                    _RETRIES.inc()
                    response = self._roundtrip(handle, wire)
            finally:
                _DISPATCH_SECONDS.observe(timer.seconds)
        return unwrap_response(response)

    def _roundtrip(self, handle: _WorkerHandle, message):
        with handle.lock:
            generation = handle.generation
            try:
                if not handle.alive():
                    raise BrokenPipeError("worker process is not alive")
                handle.conn.send(message)
                while not handle.conn.poll(0.05):
                    if not handle.alive():
                        raise BrokenPipeError(
                            "worker process died mid-request")
                response = handle.conn.recv()
            except (OSError, EOFError, BrokenPipeError) as exc:
                # Which generation actually failed, read under the
                # lock — the retry path must not skip restarting a
                # replacement worker that died too.
                exc.seen_generation = generation
                raise
        with self._stats_lock:
            self.stats.dispatched += 1
        _DISPATCHED.inc()
        return response

    def request_worker(self, worker_id: int, message):
        """Like :meth:`request`, addressed by worker rather than shard."""
        return self.request(self._handles[worker_id].shard_ids[0],
                            message)

    def broadcast(self, message, *,
                  parallelism: Optional[int] = None) -> List:
        """Send ``message`` to every worker; payloads in worker order."""
        self._require_open()
        workers = (self._num_workers if parallelism is None
                   else ensure_workers(parallelism))
        return map_in_threads(
            lambda handle: self.request(handle.shard_ids[0], message),
            self._handles, workers,
            thread_name_prefix="repro-fleet")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def hellos(self) -> List[WorkerHello]:
        """Identity payloads of every (live) worker."""
        return self.broadcast(PingRequest())

    def health(self) -> List[WorkerHealth]:
        """Health payloads of every worker, in worker order.

        Each entry reports identity, uptime, request count, and a
        per-shard artifact-store probe — the payload the ROADMAP's
        socket transport will expose as its health endpoint.
        """
        return self.broadcast(HealthRequest())

    def worker_metrics(self) -> List[str]:
        """Each worker's Prometheus-format metrics dump, worker order.

        The dumps are per-process expositions; they are returned
        separately (not concatenated) because merging samples across
        processes is an aggregation decision the caller owns.
        """
        return self.broadcast(MetricsRequest())

    def shard_stats(self) -> List[ServiceStats]:
        """Per-shard service stats, in shard order, fleet-wide."""
        merged: Dict[int, ServiceStats] = {}
        for worker_stats in self.broadcast(StatsRequest()):
            merged.update(worker_stats)
        return [merged.get(shard, ServiceStats())
                for shard in range(self._num_shards)]

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"ProcessFleet(shards={self._num_shards}, "
                f"workers={self._num_workers}, {state})")
