"""OrderingService: the lifecycle owner of computed spectral orders.

The paper's economics rest on one observation: the spectral order of a
domain is computed **once** and then reused by every downstream consumer
— B+-tree keys, declustering, joins, figure harnesses.  The core
pipeline (:class:`~repro.core.spectral.SpectralLPM`) deliberately knows
nothing about reuse; this module is the layer that adds it.

An :class:`OrderingService` composes two caches:

* an in-memory LRU of :class:`~repro.service.artifacts.OrderArtifact`
  (:class:`repro.caching.LRUCache`), keyed by the stable fingerprints
  of :mod:`repro.service.fingerprint`;
* an optional on-disk :class:`~repro.service.store.ArtifactStore`, so a
  restarted service pays **zero eigensolves** for every domain it has
  seen before;

and one batching front door, :meth:`OrderingService.order_many`, which
groups requests by graph topology so N weight configurations over one
domain pay a single graph build instead of N.  Every miss computes
exactly what :class:`~repro.core.spectral.SpectralLPM` computes for the
same config, so a served order never depends on which front served it.

The service is safe to share across threads, and misses are
**single-flight** (:class:`~repro.caching.SingleFlight`): concurrent
requests for one order key elect a leader that runs the eigensolve
while the rest wait and receive the leader's artifact
(``source == "coalesced"``, counted in
:attr:`ServiceStats.coalesced`).  N threads cold-missing the same
(config, domain) fingerprint therefore cost exactly one solver
invocation — the serving-layer contract the
:func:`~repro.linalg.backends.solver_invocations` counter asserts in
the test suite.

A request is a value: a domain plus a
:class:`~repro.core.spectral.SpectralConfig` (or ``None`` for the
paper's defaults), which is all a key may depend on.  Anything else —
an algorithm object, or a config whose weight names no registered model
(``"callable:<name>"``, lifted off a callable-weight
:class:`~repro.core.spectral.SpectralLPM`) — raises
:class:`~repro.errors.InvalidParameterError` before a key exists, so the
service never runs code a request carries and distinct algorithms can
never collide on a key.  A callable-weight order is the algorithm's (or
its mapping's) own business, outside every cache tier.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.ordering import LinearOrder
from repro.core.spectral import SpectralConfig, SpectralLPM, \
    canonical_config
from repro.errors import InvalidParameterError
from repro.geometry.grid import Grid
from repro.geometry.pointset import PointSet
from repro.graph.adjacency import Graph
from repro.graph.builders import grid_graph_from_topology, \
    grid_graph_topology, induced_grid_graph
from repro.graph.laplacian import laplacian_matvec
from repro.graph.weights import weight_names
from repro.linalg.backends import thread_solver_invocations
from repro.caching import LRUCache, SingleFlight
from repro.obs import Timer, registry, span
from repro.service.artifacts import OrderArtifact
from repro.service.fingerprint import (
    domain_fingerprint,
    graph_fingerprint,
    order_key,
    points_fingerprint,
)
from repro.service.routing import coerce_domain_as
from repro.service.store import ArtifactStore

Domain = Union[Grid, Graph]
ConfigLike = Optional[SpectralConfig]

# Registry mirrors of the per-service ServiceStats counters: the
# process-wide rollup every service contributes to, labelled by cache
# outcome, alongside the latency of the one expensive phase.  The
# per-instance ServiceStats stays the per-shard view (and the API the
# existing readers use); these are the fleet-wide aggregates
# ``repro.obs.dump_metrics`` renders.
_OUTCOMES = registry().counter(
    "repro_service_requests_total",
    "Ordering requests by cache outcome.")
_TOPOLOGY_BUILDS = registry().counter(
    "repro_service_topology_builds_total",
    "Grid-graph topology constructions (the quantity order_many "
    "amortizes).")
_SOLVE_SECONDS = registry().histogram(
    "repro_service_solve_seconds",
    "Wall time of one cache-miss compute (graph build + eigensolve + "
    "ordering).")


@dataclass(frozen=True)
class OrderRequest:
    """One item of an :meth:`OrderingService.order_many` batch."""

    domain: Domain
    config: SpectralConfig = SpectralConfig()

    def __post_init__(self):
        if not isinstance(self.domain, (Grid, Graph)):
            raise InvalidParameterError(
                f"domain must be a Grid or Graph, "
                f"got {type(self.domain).__name__}"
            )
        if not isinstance(self.config, SpectralConfig):
            raise InvalidParameterError(
                f"config must be a SpectralConfig, "
                f"got {type(self.config).__name__}"
            )


def normalize_requests(requests: Sequence) -> List[OrderRequest]:
    """Coerce a batch of :class:`OrderRequest` | ``(domain, config)``
    pairs into validated requests (``config=None`` means the paper's
    defaults).

    The one normalization every batching front uses — the service, the
    in-process sharded frontend, the process-pool dispatcher, and the
    worker loop — so their accepted spellings can never drift apart.
    """
    normalized: List[OrderRequest] = []
    for item in requests:
        if isinstance(item, OrderRequest):
            normalized.append(item)
        else:
            domain, config = item
            if config is None:
                normalized.append(OrderRequest(domain=domain))
            else:
                normalized.append(OrderRequest(domain=domain,
                                               config=config))
    return normalized


@dataclass
class ServiceStats:
    """Counters of where the service's answers came from.

    ``memory_hits`` / ``disk_hits`` / ``computed`` / ``coalesced``
    partition the requests (``coalesced`` are requests that waited on a
    concurrent identical miss instead of solving).  ``topology_builds``
    counts grid-graph topology constructions (the quantity
    :meth:`~OrderingService.order_many` amortizes) and ``solver_calls``
    accumulates the eigensolver invocations spent inside this service.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    computed: int = 0
    coalesced: int = 0
    topology_builds: int = 0
    solver_calls: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for logs and reports)."""
        return dataclasses.asdict(self)

    @classmethod
    def total(cls, parts: Sequence["ServiceStats"]) -> "ServiceStats":
        """Field-wise sum of ``parts`` — e.g. every shard's snapshot
        into one fleet-wide view."""
        combined = cls()
        for stats in parts:
            for name, value in stats.as_dict().items():
                setattr(combined, name, getattr(combined, name) + value)
        return combined


class OrderingService:
    """Cached, batched, persistable spectral ordering.

    Parameters
    ----------
    memory_entries:
        Capacity of the in-memory artifact LRU.
    store:
        Optional persistent tier: an
        :class:`~repro.service.store.ArtifactStore` or a directory path
        (wrapped in one).  ``None`` keeps the service memory-only.

    Examples
    --------
    >>> from repro.geometry import Grid
    >>> service = OrderingService()
    >>> a = service.order_grid(Grid((6, 6)))
    >>> b = service.order_grid(Grid((6, 6)))   # served from memory
    >>> a == b
    True
    """

    def __init__(self, memory_entries: int = 128,
                 store: Union[ArtifactStore, str, None] = None):
        # The memory tier is the service's shared hot path; the LRU's
        # own lock keeps hit/miss counters exact even for callers that
        # reach the cache outside the service lock.
        self._memory: LRUCache[str, OrderArtifact] = \
            LRUCache(memory_entries)
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self._store: Optional[ArtifactStore] = store
        self._stats = ServiceStats()  # guarded-by: _lock
        # Guards the memory tier and the stats; solves themselves run
        # outside it (different keys in parallel).
        self._lock = threading.RLock()
        self._flights: SingleFlight[str, OrderArtifact] = SingleFlight()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """Where this service's answers have come from so far.

        Returns an atomic :meth:`snapshot`, not the live counters — the
        migration shim for readers written against the pre-snapshot
        API: attribute reads on the returned object can never tear
        against a concurrent update.
        """
        return self.snapshot()

    def snapshot(self) -> ServiceStats:
        """An atomic copy of the counters, taken under the service lock.

        Mutating the returned object does not affect the service; two
        snapshots bracketing an operation give exact deltas even while
        other threads keep serving.
        """
        with self._lock:
            return dataclasses.replace(self._stats)

    @property
    def store(self) -> Optional[ArtifactStore]:
        """The persistent tier, when configured."""
        return self._store

    # ------------------------------------------------------------------
    # Public ordering API
    # ------------------------------------------------------------------
    def order_grid(self, grid: Grid,
                   config: ConfigLike = None) -> LinearOrder:
        """The spectral order of a full grid, served from cache when warm.

        ``config`` is a :class:`SpectralConfig`, or ``None`` for the
        paper's defaults; anything else raises
        :class:`~repro.errors.InvalidParameterError`.
        """
        return self.grid_artifact(grid, config).order

    def grid_artifact(self, grid: Grid,
                      config: ConfigLike = None) -> OrderArtifact:
        """:meth:`order_grid` with full provenance attached."""
        grid = coerce_domain_as(grid, Grid)
        config = self._resolve(config)
        key = order_key(config, domain_fingerprint(grid))
        return self._cached_or_compute(
            key, lambda: self._compute_grid(key, grid, config, graph=None))

    def order_graph(self, graph: Graph,
                    config: ConfigLike = None) -> LinearOrder:
        """The spectral order of an arbitrary user graph (Section 4)."""
        return self.graph_artifact(graph, config).order

    def graph_artifact(self, graph: Graph,
                       config: ConfigLike = None) -> OrderArtifact:
        """:meth:`order_graph` with full provenance attached.

        Graphs are keyed by content hash, so two structurally identical
        graphs built independently share cache entries.  Note the
        ``connectivity`` / ``radius`` / ``weight`` fields of the config
        do not influence a prebuilt graph (they describe grid builds);
        they still participate in the key, conservatively.
        """
        graph = coerce_domain_as(graph, Graph)
        config = self._resolve(config)
        # Content is hashed once (O(edges)) and reused for both the key
        # and the human-readable descriptor.
        content = graph.content_fingerprint()
        key = order_key(config, graph_fingerprint(graph, content=content))
        return self._cached_or_compute(
            key,
            lambda: self._compute_graph(key, graph, config,
                                        _describe_graph(graph, content)),
        )

    def points_artifact(self, points: PointSet,
                        config: ConfigLike = None) -> OrderArtifact:
        """The spectral order of a sparse point set, with provenance.

        Mirrors :meth:`SpectralLPM.order_points`: the artifact's order
        is over positions in ``points.cells`` (the ascending distinct
        flat indices).
        """
        points = coerce_domain_as(points, PointSet)
        grid, cells = points.grid, points.cells
        config = self._resolve(config)
        key = order_key(config, points_fingerprint(grid, cells))

        def compute() -> OrderArtifact:
            graph, _ = induced_grid_graph(
                grid, cells, connectivity=config.connectivity,
                radius=config.radius, weight=config.weight,
            )
            return self._compute_graph(key, graph, config,
                                       _describe_points(grid, cells))

        return self._cached_or_compute(key, compute)

    def order_many(self, requests: Sequence) -> List[LinearOrder]:
        """Order a batch of domains, amortizing shared work.

        ``requests`` is a sequence of :class:`OrderRequest` (or
        ``(domain, config)`` pairs).  Grid requests are grouped by graph
        topology — ``(shape, connectivity, radius)`` — and each group
        pays **one** topology build regardless of how many weight models
        it spans.  Cache hits (memory or disk) skip even that.  Results
        align with the input order.
        """
        normalized = normalize_requests(requests)
        results: List[Optional[LinearOrder]] = [None] * len(normalized)

        # Partition: grid requests group by the topology of their
        # canonical config; graphs go direct.
        groups: Dict[Tuple, List[Tuple[int, SpectralConfig]]] = {}
        for i, request in enumerate(normalized):
            if isinstance(request.domain, Grid):
                config = self._resolve(request.config)
                group = (request.domain.shape, config.connectivity,
                         config.radius)
                groups.setdefault(group, []).append((i, config))
            else:
                results[i] = self.order_graph(request.domain,
                                              request.config)

        for members in groups.values():
            # Built lazily and shared by every miss in the group: a
            # fully-warm (or fully-coalesced) group never builds it.
            topology_box: List = [None]
            for i, config in members:
                grid = normalized[i].domain
                key = order_key(config, domain_fingerprint(grid))
                compute = self._grouped_compute(key, grid, config,
                                                topology_box)
                results[i] = self._cached_or_compute(key, compute).order
        return results

    def _grouped_compute(self, key: str, grid: Grid,
                         config: SpectralConfig,
                         topology_box: List) -> Callable[[], OrderArtifact]:
        """A compute closure sharing one topology across a batch group."""

        def compute() -> OrderArtifact:
            if topology_box[0] is None:
                topology_box[0] = grid_graph_topology(
                    grid, connectivity=config.connectivity,
                    radius=config.radius,
                )
                with self._lock:
                    self._stats.topology_builds += 1
                _TOPOLOGY_BUILDS.inc()
            graph = grid_graph_from_topology(topology_box[0], config.weight)
            return self._compute_grid(key, grid, config, graph=graph)

        return compute

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve(self, config: ConfigLike) -> SpectralConfig:
        """The canonical config a request is keyed and computed by."""
        if config is None:
            return SpectralConfig()
        if not isinstance(config, SpectralConfig):
            raise InvalidParameterError(
                "config must be a SpectralConfig or None, "
                f"got {type(config).__name__}"
            )
        # A config lifted off a callable-weight SpectralLPM carries
        # "callable:<name>"; refuse it rather than compute a same-named
        # registry model it never meant.
        if config.weight not in weight_names():
            raise InvalidParameterError(
                f"config.weight {config.weight!r} is not a registered "
                f"weight model {weight_names()}; callable weights are "
                "never cached: order with the SpectralLPM itself"
            )
        # Keyed by the canonical config: a bad field raises before any
        # key exists, and each connectivity has one spelling, so its
        # aliases share one key.
        return canonical_config(config)

    def _cached_or_compute(self, key: str,
                           compute: Callable[[], OrderArtifact]
                           ) -> OrderArtifact:
        """Serve ``key`` from cache, computing at most once concurrently.

        A memory hit returns at once.  A miss goes through the
        service's :class:`~repro.caching.SingleFlight`: its leader
        performs the disk lookup and (on a true miss) ``compute`` —
        both *outside* the service lock, so distinct keys load and
        solve in parallel and memory hits never wait on another key's
        I/O.  Concurrent requests for the same key wait on the leader
        and receive its artifact with ``source="coalesced"``.  If the
        leader fails, waiters retry — one of them becomes the next
        leader — so a transient failure never wedges the key.
        """
        sp = span("service.order", key=key[:12])
        with sp:
            artifact = self._serve_cached(key, compute)
            sp.set_attribute("source", artifact.source)
            return artifact

    def _serve_cached(self, key: str,
                      compute: Callable[[], OrderArtifact]
                      ) -> OrderArtifact:
        artifact = self._memory_hit(key)
        if artifact is not None:
            return artifact
        artifact, shared = self._flights.do(
            key, lambda: self._lead(key, compute))
        if not shared:
            return artifact
        with self._lock:
            self._stats.coalesced += 1
        _OUTCOMES.inc(outcome="coalesced")
        return dataclasses.replace(artifact, solver_calls=0,
                                   source="coalesced")

    def _lead(self, key: str,
              compute: Callable[[], OrderArtifact]) -> OrderArtifact:
        # A flight may have landed between the caller's memory check
        # and its do() call, leaving its artifact in memory.
        artifact = self._memory_hit(key)
        if artifact is None:
            artifact = self._disk_lookup(key)
        if artifact is None:
            artifact = compute()
        return artifact

    def _memory_hit(self, key: str) -> Optional[OrderArtifact]:
        with self._lock:
            artifact = self._memory.get(key)
            if artifact is None:
                return None
            self._stats.memory_hits += 1
        _OUTCOMES.inc(outcome="memory")
        return dataclasses.replace(artifact, solver_calls=0,
                                   source="memory")

    def _disk_lookup(self, key: str) -> Optional[OrderArtifact]:
        """Disk-tier load; runs outside the lock (only a flight's
        leader loads, so there is one load per key at a time)."""
        if self._store is None:
            return None
        with span("service.disk_load", key=key[:12]) as sp:
            artifact = self._store.load(key)
            sp.set_attribute("hit", artifact is not None)
        if artifact is None:
            return None
        with self._lock:
            self._stats.disk_hits += 1
            self._memory.put(key, artifact)
        _OUTCOMES.inc(outcome="disk")
        return artifact

    def _compute_grid(self, key: str, grid: Grid, config: SpectralConfig,
                      graph: Optional[Graph]) -> OrderArtifact:
        algorithm = SpectralLPM.from_config(config)
        if graph is None:
            graph = algorithm.build_grid_graph(grid)
        return self._finish(
            key, graph, _describe_grid(grid), config,
            lambda: algorithm.order_grid_with_fiedler(grid, graph),
        )

    def _compute_graph(self, key: str, graph: Graph,
                       config: SpectralConfig, domain: str
                       ) -> OrderArtifact:
        algorithm = SpectralLPM.from_config(config)
        return self._finish(
            key, graph, domain, config,
            lambda: algorithm.order_graph_with_fiedler(graph),
        )

    def _finish(self, key: str, graph: Graph, domain: str,
                config: SpectralConfig,
                solve: Callable[[], Tuple[LinearOrder, list]]
                ) -> OrderArtifact:
        # Thread-local delta: concurrent solves on other keys must not
        # leak into this artifact's provenance (or double-count stats).
        with span("service.solve", key=key[:12], domain=domain) as sp:
            before = thread_solver_invocations()
            with Timer() as timer:
                order, fiedlers = solve()
            solver_calls = thread_solver_invocations() - before
            provenance = _provenance(graph, fiedlers)
            sp.set_attribute("solver_calls", solver_calls)
            if "backend" in provenance:
                sp.set_attribute("backend", provenance["backend"])
        _SOLVE_SECONDS.observe(timer.seconds)
        artifact = OrderArtifact(
            key=key, config=config, domain=domain, order=order,
            solver_calls=solver_calls, source="computed", **provenance,
        )
        with self._lock:
            self._stats.computed += 1
            self._stats.solver_calls += solver_calls
            self._memory.put(key, artifact)
        _OUTCOMES.inc(outcome="computed")
        if self._store is not None:
            self._store.save(artifact)
        return artifact


def _describe_grid(grid: Grid) -> str:
    return f"grid{grid.shape}"


def _describe_graph(graph: Graph, content: str | None = None) -> str:
    suffix = f", {content[:12]}" if content is not None else ""
    return f"graph[n={graph.num_vertices}, m={graph.num_edges}{suffix}]"


def _describe_points(grid: Grid, cells: np.ndarray) -> str:
    return f"points{grid.shape}[k={len(cells)}]"


def _provenance(graph: Graph, fiedlers: list) -> Dict:
    """Solve provenance from the recorded Fiedler results.

    The full story only exists for a connected domain (one result over
    the whole graph); there the relative residual of the returned pair
    is measured against the actual Laplacian — one matvec, negligible
    next to the solve it certifies.  Disconnected domains keep the first
    non-trivial component's pair, without a residual (the vector does
    not span the whole graph).
    """
    if not fiedlers:
        return {}
    first = fiedlers[0]
    info = {
        "lambda2": float(first.value),
        "multiplicity": int(first.multiplicity),
        "backend": str(first.backend),
        "eigenvalues": tuple(float(v) for v in first.eigenvalues),
    }
    if len(fiedlers) == 1 and len(first.vector) == graph.num_vertices:
        residual = float(np.linalg.norm(
            laplacian_matvec(graph, first.vector)
            - first.value * first.vector
        ))
        info["residual"] = residual / max(abs(first.value), 1e-300)
    return info
