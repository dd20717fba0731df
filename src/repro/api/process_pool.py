"""ProcessPoolFrontend: the serving surface over a worker-process fleet.

:class:`~repro.service.ShardedIndexFrontend` partitions the fingerprint
keyspace over per-shard services *within one process*;
``ProcessPoolFrontend`` is the transport that carries the shared
surface (:class:`~repro.serve.frontend.MessageFrontend`) to a
:class:`~repro.serve.ProcessFleet` of worker *processes* — same
deterministic routing (:func:`~repro.service.routing.shard_of_domain`),
same batching semantics (shard-grouped ``order_many`` with per-shard
topology amortization, now inside each worker), same observability
(``stats`` / ``combined_stats``), bit-identical answers (pinned by
test against the in-process frontend).

What it adds over the in-process front: true multi-core scaling for
CPU-bound eigensolves without the GIL in the picture, per-worker crash
isolation with restart-and-rehydrate, and restart-warm fleets — per
shard on-disk stores mean a full fleet bounce pays zero eigensolves
for every previously-seen domain.

What it costs: every request and result crosses a pickle boundary —
a few hundred microseconds of dispatch overhead on a warm hit, ~10x
an in-process hit (measured by
``benchmarks/test_bench_multiproc_serving.py``), so it pays off for
solve-heavy or many-domain traffic, not microsecond-scale cache hits.
Choose by deployment shape — see the README's serving section.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.ordering import LinearOrder
from repro.errors import InvalidParameterError
from repro.obs import span
from repro.parallel import ensure_workers, map_in_threads
from repro.service.ordering import ServiceStats, normalize_requests
from repro.serve.frontend import MessageFrontend
from repro.serve.protocol import OrderManyMessage
from repro.serve.supervisor import ProcessFleet


class ProcessPoolFrontend(MessageFrontend):
    """Routes ordering and query traffic across worker processes.

    Serves the same surface as
    :class:`~repro.service.ShardedIndexFrontend`; construction spawns
    the fleet (or adopts a prebuilt one via ``fleet=``).  Use as a
    context manager, or call :meth:`close` — worker processes are real
    resources, not garbage-collected conveniences.

    Parameters
    ----------
    shards:
        Number of keyspace partitions (ignored when ``fleet`` given).
    workers:
        Worker processes; defaults to one per shard.
    cache_dir:
        Root of the per-shard artifact stores; a fleet restarted over
        the same root answers every warm request from disk with zero
        eigensolves.  ``None`` keeps workers memory-only.
    index_defaults:
        Default build keywords for the worker-local indexes behind
        :meth:`range` / :meth:`nn` / :meth:`join` / :meth:`query_many`.
    fleet:
        Adopt an existing :class:`~repro.serve.ProcessFleet` instead of
        spawning one; the frontend then owns its shutdown.

    Examples
    --------
    >>> from repro.geometry import Grid
    >>> with ProcessPoolFrontend(shards=2) as front:  # doctest: +SKIP
    ...     front.order_grid(Grid((6, 6))).n
    36
    """

    _index_span = "pool.index_op"

    def __init__(self, shards: int = 4, *,
                 workers: Optional[int] = None,
                 cache_dir=None,
                 memory_entries: int = 128,
                 max_indexes: int = 16,
                 index_defaults: Optional[dict] = None,
                 fleet: Optional[ProcessFleet] = None):
        if fleet is not None:
            if not isinstance(fleet, ProcessFleet):
                raise InvalidParameterError(
                    f"fleet must be a ProcessFleet, "
                    f"got {type(fleet).__name__}"
                )
            self._fleet = fleet
        else:
            self._fleet = ProcessFleet(
                shards, workers=workers, cache_dir=cache_dir,
                memory_entries=memory_entries,
                max_indexes=max_indexes,
                index_defaults=index_defaults,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def fleet(self) -> ProcessFleet:
        """The underlying worker fleet (restart/observe through it)."""
        return self._fleet

    def close(self) -> None:
        """Shut the fleet down gracefully.  Idempotent."""
        self._fleet.close()

    def __enter__(self) -> "ProcessPoolFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """How many keyspace partitions this frontend routes over."""
        return self._fleet.num_shards

    @property
    def num_workers(self) -> int:
        """How many worker processes serve those shards."""
        return self._fleet.num_workers

    def worker_of(self, domain) -> int:
        """The worker process serving ``domain``."""
        return self._fleet.worker_of_shard(self.shard_of(domain))

    def _call(self, message: Any) -> Any:
        # Single-domain messages go to the worker owning that domain.
        return self._fleet.request(self.shard_of(message.domain), message)

    def order_many(self, requests: Sequence, *,
                   parallelism: Optional[int] = None
                   ) -> List[LinearOrder]:
        """Batched ordering across workers; results align with input.

        Requests are grouped by owning *worker* (one IPC round trip per
        involved worker); inside each worker they are re-grouped per
        shard so every shard's
        :meth:`~repro.service.OrderingService.order_many` keeps its
        one-topology-build amortization.  ``parallelism`` > 1 dispatches
        the worker sub-batches from that many threads — the dispatcher
        threads only block on pipes while the worker *processes* solve
        truly in parallel.
        """
        normalized = normalize_requests(requests)
        groups: Dict[int, List[int]] = {}
        for i, request in enumerate(normalized):
            groups.setdefault(self.worker_of(request.domain), []).append(i)
        results: List[Optional[LinearOrder]] = [None] * len(normalized)

        def run_worker(item: Tuple[int, List[int]]) -> None:
            worker, indices = item
            message = OrderManyMessage(tuple(
                (normalized[i].domain, normalized[i].config)
                for i in indices))
            orders = self._fleet.request_worker(worker, message)
            for i, order in zip(indices, orders):
                results[i] = order

        with span("pool.order_many", batch=len(normalized),
                  workers=len(groups)):
            map_in_threads(run_worker, list(groups.items()),
                           ensure_workers(parallelism),
                           thread_name_prefix="repro-pool")
        return results

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> List[ServiceStats]:
        """Per-shard service stats, in shard order, fleet-wide."""
        return self._fleet.shard_stats()

    def health(self) -> List:
        """Per-worker :class:`~repro.serve.protocol.WorkerHealth`
        payloads (identity, uptime, per-shard store probes)."""
        return self._fleet.health()

    def worker_metrics(self) -> List[str]:
        """Per-worker Prometheus metric dumps, in worker order."""
        return self._fleet.worker_metrics()

    def __repr__(self) -> str:
        return (f"ProcessPoolFrontend(shards={self.num_shards}, "
                f"workers={self.num_workers})")
