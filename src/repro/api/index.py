"""SpectralIndex: the one front door over the whole pipeline.

The paper's pitch is that the spectral order is a drop-in replacement
for fractal orders; this facade makes the drop-in literal.  One call —

    index = SpectralIndex.build((32, 32))

— composes the domain (:mod:`repro.api.domains`), the mapping
(:mod:`repro.api.mappings`), the caching/batching
:class:`~repro.service.OrderingService`, the page layout and B+-tree
(:class:`~repro.query.LinearStore`), and the query machinery behind one
object with ``range(...)``, ``nn(...)``, ``join(...)``, and the
vectorized ``query_many([...])``.

Batch-first by construction: every order the index needs flows through
the service (concurrent misses on one fingerprint coalesce into a
single eigensolve), and ``query_many`` routes order acquisition through
:meth:`~repro.service.OrderingService.order_many`, so a batch spanning
K same-topology spectral configurations pays one graph build instead of
K.  Non-default mappings are materialized lazily and cached per index,
so comparing mappings over one domain — the shape of every figure
harness — is a loop over ``ranks_for(name)``.

The index is safe to share across threads (and is what the
thread-pooled ``query_many(parallelism=...)`` and the asyncio
:class:`~repro.api.aio.AsyncSpectralIndex` front execute against): the
lazily materialized per-mapping views are **single-flight**
(:class:`~repro.caching.SingleFlight`) — two threads missing the same
view elect one materializer, the other waits and reuses its result, so
a non-cacheable mapping never pays a duplicate eigensolve — the first
view published for a mapping is the one kept, and the lazy
store/coordinate state is built exactly once behind per-object locks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.domains import Domain, DomainLike, as_domain
from repro.api.executor import map_in_threads, resolve_parallelism
from repro.api.mappings import MappingSpec, make_mapping
from repro.api.queries import (
    JoinQuery,
    NNQuery,
    NNResult,
    Query,
    RangeQuery,
)
from repro.caching import SingleFlight
from repro.core.ordering import LinearOrder
from repro.core.spectral import SpectralConfig
from repro.errors import DomainError, InvalidParameterError
from repro.geometry.boxes import Box
from repro.geometry.grid import Grid
from repro.geometry.pointset import PointSet
from repro.graph.adjacency import Graph
from repro.mapping.interface import LocalityMapping, SpectralMapping
from repro.obs import Timer, registry, span
from repro.query.engine import LinearStore, QueryExecution, WorkloadReport
from repro.query.join import JoinReport, window_join_report
from repro.query.nn import window_candidates
from repro.service.artifacts import OrderArtifact
from repro.service.ordering import OrderingService, OrderRequest
from repro.storage.buffer import BufferStats
from repro.storage.disk import DiskCostModel

# Facade-level latency, labelled by query op.  Always on (a histogram
# observation per query, the same order of cost as the pre-existing
# buffer-pool counters); spans add detail only when tracing is enabled.
_QUERY_SECONDS = registry().histogram(
    "repro_query_seconds",
    "Per-query facade latency by op (range/nn/join).")


@dataclass
class _MappingView:
    """One mapping materialized against the index's domain."""

    mapping: LocalityMapping
    order: LinearOrder
    artifact: Optional[OrderArtifact] = None
    store: Optional[LinearStore] = None
    # Guards the lazy store build only (the view itself is published
    # fully formed); per-view so two mappings' stores never serialize.
    store_lock: threading.Lock = field(default_factory=threading.Lock,
                                       repr=False, compare=False)

    @property
    def ranks(self) -> np.ndarray:
        return self.order.ranks


class SpectralIndex:
    """A built index over one domain: ordering, layout, and queries.

    Construct with :meth:`build`; the constructor itself is the worker
    behind it and expects pre-coerced arguments.

    Examples
    --------
    >>> index = SpectralIndex.build((6, 6))
    >>> int(index.ranks.shape[0])
    36
    >>> index.mapping.name
    'spectral'
    """

    def __init__(self, domain: Domain, mapping: LocalityMapping,
                 service: OrderingService,
                 config: Optional[SpectralConfig],
                 page_size: int, tree_order: int,
                 buffer_capacity: Optional[int],
                 cost_model: Optional[DiskCostModel]):
        self._domain = domain
        self._service = service
        self._config = config
        self._page_size = int(page_size)
        self._tree_order = int(tree_order)
        self._buffer_capacity = buffer_capacity
        self._cost_model = cost_model
        self._views: Dict[Tuple, _MappingView] = {}  # guarded-by: _lock
        self._coords: Optional[np.ndarray] = None  # guarded-by: _lock
        # Guards _views / _coords.  Materialization itself
        # (eigensolves, store builds) runs outside it.
        self._lock = threading.RLock()
        self._flights: SingleFlight[Tuple, _MappingView] = SingleFlight()
        # The default order is materialized on first access, not here:
        # an index used only to compare curve mappings must not pay a
        # spectral eigensolve at build time.
        self._default = mapping

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, domain: DomainLike, mapping: MappingSpec = "spectral",
              *, config: Optional[SpectralConfig] = None,
              service: Optional[OrderingService] = None,
              page_size: int = 16, tree_order: int = 32,
              buffer_capacity: Optional[int] = None,
              cost_model: Optional[DiskCostModel] = None
              ) -> "SpectralIndex":
        """Build an index over ``domain`` — the unified entry point.

        Parameters
        ----------
        domain:
            A :class:`~repro.geometry.Grid`, a
            :class:`~repro.geometry.PointSet`, a
            :class:`~repro.graph.Graph`, or a plain shape tuple
            (promoted to a grid).
        mapping:
            The default mapping: a registry name, a
            :class:`~repro.core.spectral.SpectralConfig`, or a mapping
            instance.  Defaults to the paper's spectral mapping.
        config:
            Spectral configuration applied to every spectral-family
            mapping this index resolves by name (including per-query
            mappings in :meth:`query_many`); curve names ignore it.
        service:
            The :class:`~repro.service.OrderingService` to route
            eigensolves through.  ``None`` creates a private
            memory-only service; pass a shared one to pool solves
            across indexes (and give it a store for persistence).
        page_size, tree_order, buffer_capacity, cost_model:
            Storage-engine knobs, forwarded to the underlying
            :class:`~repro.query.LinearStore` (grid domains only; they
            are never touched unless a range query runs).
        """
        return cls(
            domain=as_domain(domain),
            mapping=(mapping if isinstance(mapping, LocalityMapping)
                     else make_mapping(mapping, config=config)),
            service=service if service is not None else OrderingService(),
            config=config,
            page_size=page_size,
            tree_order=tree_order,
            buffer_capacity=buffer_capacity,
            cost_model=cost_model,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def domain(self) -> Domain:
        """The indexed domain."""
        return self._domain

    @property
    def service(self) -> OrderingService:
        """The ordering service every spectral solve routes through."""
        return self._service

    @property
    def mapping(self) -> LocalityMapping:
        """The default mapping."""
        return self._default

    @property
    def order(self) -> LinearOrder:
        """The default mapping's order over the domain (lazy)."""
        return self._materialize(self._default).order

    @property
    def ranks(self) -> np.ndarray:
        """The default mapping's rank array.

        For grids, indexed by flat cell index; for point sets, by
        position in :attr:`~repro.geometry.PointSet.cells`; for graphs,
        by vertex id.
        """
        return self.order.ranks

    @property
    def provenance(self) -> Optional[OrderArtifact]:
        """Solve provenance of the default order, when available.

        Populated for cacheable spectral mappings served through the
        service (``capabilities.provenance``); ``None`` otherwise.
        """
        view = self._materialize(self._default)
        if view.artifact is None:
            # Idempotent (the service coalesces identical requests), so
            # a concurrent duplicate lookup resolves to the same value.
            view.artifact = self._artifact_for(view.mapping)
        return view.artifact

    @property
    def stats(self):
        """The service's :class:`~repro.service.ordering.ServiceStats`."""
        return self._service.stats

    def order_for(self, mapping: MappingSpec) -> LinearOrder:
        """The order of any mapping over this domain (cached per index).

        Resolution follows :func:`~repro.api.mappings.make_mapping` with
        the index's ``config`` applied to spectral names — so comparing
        mappings over one domain is a loop over names.  Thread-safe:
        concurrent first calls for one mapping materialize exactly one
        view (and, for non-cacheable mappings, pay exactly one solve).
        """
        mapping = self._resolve(mapping)
        return self._materialize(mapping).order

    def ranks_for(self, mapping: MappingSpec) -> np.ndarray:
        """:meth:`order_for` as a rank array."""
        return self.order_for(mapping).ranks

    def buffer_stats(self, mapping: Optional[MappingSpec] = None
                     ) -> Optional[BufferStats]:
        """Buffer-pool accounting of one mapping's store, if it exists.

        ``None`` when the index was built without ``buffer_capacity``
        or the mapping's store has not served a range query yet.  A
        pure observer: it only *peeks* at the view table (never
        materializes a view or store, so it can never trigger a
        solve).  Under concurrent queries the snapshot obeys the
        conservation law ``hits + misses == accesses`` exactly (the
        pool is locked).
        """
        resolved = (self._default if mapping is None
                    else self._resolve(mapping))
        with self._lock:
            view = self._views.get(self._view_key(resolved))
        if view is None or view.store is None:
            return None
        return view.store.buffer_stats()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range(self, box, *, plan: str = "span-scan",
              mapping: Optional[MappingSpec] = None) -> QueryExecution:
        """Execute one axis-aligned range query (grid domains).

        ``box`` is a :class:`~repro.geometry.Box` or a ``(lo, hi)``
        corner pair.  See :meth:`~repro.query.LinearStore.range_query`
        for plans and accounting.
        """
        view = self._view_for(mapping)
        return self._range_on(view, box, plan)

    def workload(self, boxes: Sequence, *, plan: str = "span-scan",
                 mapping: Optional[MappingSpec] = None,
                 parallelism: Optional[int] = None) -> WorkloadReport:
        """Run a range-query stream and aggregate the I/O accounting.

        ``parallelism`` (default: ``REPRO_QUERY_WORKERS``, else
        sequential) fans the stream across worker threads; see
        :meth:`~repro.query.LinearStore.execute_workload` for the
        accounting contract under concurrency.
        """
        view = self._view_for(mapping)
        store = self._store_for(view)
        return store.execute_workload(
            [self._as_box(b) for b in boxes], plan=plan,
            parallelism=resolve_parallelism(parallelism),
        )

    def nn(self, cell, k: int, *, window: Optional[int] = None,
           mapping: Optional[MappingSpec] = None) -> NNResult:
        """k-nearest-neighbour search through the rank window.

        Served on grid domains (``cell`` is a flat index or coordinate
        tuple) and point-set domains (``cell`` must be one of the
        occupied cells; neighbours are drawn from the occupied cells
        only, and the returned indices are flat *grid* indices).  With
        ``window=None`` the examined window doubles until it holds at
        least ``k`` candidates; candidates are re-ranked by true
        Manhattan distance and the nearest ``k`` returned.
        """
        view = self._view_for(mapping)
        return self._nn_on(view, cell, k, window)

    def join(self, cells_a: Sequence[int], cells_b: Sequence[int], *,
             epsilon: int, window: int,
             mapping: Optional[MappingSpec] = None) -> JoinReport:
        """Window spatial join of two cell sets, scored against truth.

        Served on grid domains and point-set domains; on a point set
        both cell lists must be subsets of the occupied cells (ranks
        exist only for those).
        """
        view = self._view_for(mapping)
        return self._join_on(view, cells_a, cells_b, epsilon, window)

    def query_many(self, queries: Sequence[Query], *,
                   parallelism: Optional[int] = None) -> List:
        """Execute a heterogeneous query batch; results align with input.

        Order acquisition is batched: every not-yet-materialized
        cacheable spectral mapping the batch references goes through
        :meth:`~repro.service.OrderingService.order_many` in one call,
        so K same-topology configurations share a single graph build
        (and cache hits skip even that).

        Parameters
        ----------
        parallelism:
            Worker threads executing the batch after order acquisition.
            ``None`` defers to the ``REPRO_QUERY_WORKERS`` environment
            variable, else runs sequentially; an explicit integer >= 1
            wins over both.  Query *results* are bit-identical to the
            sequential path at any worker count (each query reads only
            immutable orders and per-store structures).  The one
            interleaving-dependent quantity is shared-buffer
            attribution when the index was built with
            ``buffer_capacity``: which query a buffer hit lands on
            depends on execution order, while the pool totals stay
            exact (``hits + misses == accesses``).
        """
        queries = self._coerce_queries(queries)
        workers = resolve_parallelism(parallelism)
        with span("api.query_many", batch=len(queries),
                  parallelism=workers):
            views = self._views_for(queries, parallelism=workers)

            def run(pair) -> object:
                view, query = pair
                return self._execute_query(view, query)

            return map_in_threads(run, list(zip(views, queries)),
                                  workers)

    # ------------------------------------------------------------------
    # Batch internals (shared with the asyncio facade)
    # ------------------------------------------------------------------
    def _coerce_queries(self, queries: Sequence[Query]) -> List[Query]:
        queries = list(queries)
        for query in queries:
            if not isinstance(query, (RangeQuery, NNQuery, JoinQuery)):
                raise InvalidParameterError(
                    f"unknown query type {type(query).__name__}; expected "
                    "RangeQuery, NNQuery or JoinQuery"
                )
        return queries

    def _views_for(self, queries: Sequence[Query],
                   parallelism: int = 1) -> List[_MappingView]:
        """Resolve and materialize every view a coerced batch needs.

        Order acquisition batches through the service; stores backing
        range queries are prebuilt here so worker threads execute pure
        query code (first-touch store builds never serialize the pool).
        ``parallelism`` also fans the *non-batchable* materializations
        (non-cacheable mappings, per-mapping services, curve encodes)
        across workers — eigensolves spend their time in GIL-releasing
        BLAS kernels, so a batch spanning K independent mappings scales
        with cores even though each solve is single-threaded Python.
        """
        mappings = [self._default if query.mapping is None
                    else self._resolve(query.mapping)
                    for query in queries]
        self._materialize_many(mappings, parallelism=parallelism)
        views = [self._materialize(mapping) for mapping in mappings]
        for query, view in zip(queries, views):
            if isinstance(query, RangeQuery):
                self._store_for(view)
        return views

    def _execute_query(self, view: _MappingView, query: Query):
        if isinstance(query, RangeQuery):
            return self._range_on(view, query.box, query.plan)
        if isinstance(query, NNQuery):
            return self._nn_on(view, query.cell, query.k, query.window)
        return self._join_on(view, query.cells_a, query.cells_b,
                             query.epsilon, query.window)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve(self, spec: MappingSpec) -> LocalityMapping:
        if isinstance(spec, LocalityMapping):
            return spec
        if isinstance(spec, SpectralConfig):
            # The spec *is* the full spectral configuration; the
            # index-level config only fills in for bare names.
            return make_mapping(spec)
        return make_mapping(spec, config=self._config)

    def _view_key(self, mapping: LocalityMapping) -> Tuple:
        identity = mapping.cache_identity()
        if identity is not None:
            return identity
        return ("instance", id(mapping))

    def _artifact_for(self, mapping: LocalityMapping
                      ) -> Optional[OrderArtifact]:
        """Provenance for a cacheable spectral mapping, else ``None``."""
        if not (isinstance(mapping, SpectralMapping)
                and mapping.algorithm.cacheable):
            return None
        service = mapping.service or self._service
        if isinstance(self._domain, Grid):
            return service.grid_artifact(self._domain, mapping.algorithm)
        if isinstance(self._domain, Graph):
            return service.graph_artifact(self._domain, mapping.algorithm)
        return None

    def _build_view(self, mapping: LocalityMapping) -> _MappingView:
        """Compute and publish one view, as a flight's leader (so with
        the index lock released)."""
        key = self._view_key(mapping)
        # A flight (or an order_many batch) may have published the view
        # between the caller's check and its do() call.
        with self._lock:
            view = self._views.get(key)
        if view is not None:
            return view
        with span("api.materialize", mapping=mapping.name):
            artifact = self._artifact_for(mapping)
            if artifact is not None:
                order = artifact.order
            else:
                order = mapping.order_domain(self._domain,
                                             service=self._service)
            return self._publish_view(key, _MappingView(
                mapping=mapping, order=order, artifact=artifact))

    def _materialize(self, mapping: LocalityMapping) -> _MappingView:
        """The view for ``mapping``, materialized at most once.

        Single-flight (a :class:`~repro.caching.SingleFlight`, as in
        the service): concurrent first requests elect a leader that
        computes outside the lock; waiters reuse its view.  This is
        what keeps *non-cacheable* mappings — which the service cannot
        coalesce — at exactly one solve per index, and prevents
        duplicate :class:`~repro.query.LinearStore` materializations
        for everything else.
        """
        key = self._view_key(mapping)
        with self._lock:
            view = self._views.get(key)
        if view is None:
            view, _ = self._flights.do(key, lambda: self._build_view(mapping))
        return view

    def _materialize_many(self, mappings: Sequence[LocalityMapping],
                          parallelism: int = 1) -> None:
        """Materialize a batch's missing views.

        Cacheable spectral mappings the index's service can order go
        through one :meth:`~repro.service.OrderingService.order_many`
        call (one graph build per topology) and are published directly:
        the service already coalesces their misses with any concurrent
        request, so they hold no flight here.  Everything else goes
        through :meth:`_materialize`, across ``parallelism`` workers.
        """
        missing: Dict[Tuple, LocalityMapping] = {}
        with self._lock:
            for mapping in mappings:
                key = self._view_key(mapping)
                if key not in self._views:
                    missing.setdefault(key, mapping)
        batch: List[Tuple[Tuple, SpectralMapping]] = []
        if isinstance(self._domain, (Grid, Graph)):
            batch = [
                (key, m) for key, m in missing.items()
                if isinstance(m, SpectralMapping)
                and m.algorithm.cacheable and m.service is None
            ]
        if len(batch) > 1:
            requests = [OrderRequest(self._domain, m.algorithm.config)
                        for _, m in batch]
            orders = self._service.order_many(requests)
            for (key, m), order in zip(batch, orders):
                self._publish_view(key, _MappingView(mapping=m, order=order))
                del missing[key]
        map_in_threads(self._materialize, list(missing.values()), parallelism)

    def _publish_view(self, key: Tuple, view: _MappingView) -> _MappingView:
        """Publish ``view`` unless one is already present; returns the
        published view.  The first publish wins, so a store built on
        it is never orphaned by a later duplicate."""
        with self._lock:
            return self._views.setdefault(key, view)

    def _view_for(self, spec: Optional[MappingSpec]) -> _MappingView:
        mapping = (self._default if spec is None else self._resolve(spec))
        return self._materialize(mapping)

    def _coordinates(self) -> np.ndarray:
        """The (n, ndim) coordinate matrix of the domain's cells.

        Cached: the domain is immutable and a batch of nn queries must
        not rebuild it per query.  Built under the index lock so
        concurrent first queries compute it once.
        """
        with self._lock:
            if self._coords is None:
                self._coords = self._domain.coordinates()
            return self._coords

    def _require_grid(self, operation: str) -> Grid:
        if not isinstance(self._domain, Grid):
            raise DomainError(
                f"{operation} queries require a Grid domain; this index "
                f"holds a {type(self._domain).__name__} (order/ranks are "
                "still available)"
            )
        return self._domain

    @staticmethod
    def _as_box(box) -> Box:
        if isinstance(box, Box):
            return box
        if isinstance(box, (tuple, list)) and len(box) == 2:
            lo, hi = box
            return Box(lo, hi)
        raise InvalidParameterError(
            "box must be a Box or a (lo, hi) corner pair, "
            f"got {type(box).__name__}"
        )

    def _store_for(self, view: _MappingView) -> LinearStore:
        grid = self._require_grid("range")
        store = view.store
        if store is None:
            with view.store_lock:
                if view.store is None:
                    with span("api.store_build",
                              mapping=view.mapping.name):
                        view.store = LinearStore(
                            grid, view.mapping, order=view.order,
                            page_size=self._page_size,
                            tree_order=self._tree_order,
                            buffer_capacity=self._buffer_capacity,
                            cost_model=self._cost_model,
                        )
                store = view.store
        return store

    def _range_on(self, view: _MappingView, box, plan: str
                  ) -> QueryExecution:
        store = self._store_for(view)
        with span("api.range", plan=plan), Timer() as timer:
            execution = store.range_query(self._as_box(box), plan=plan)
        _QUERY_SECONDS.observe(timer.seconds, op="range")
        return execution

    def _nn_on(self, view: _MappingView, cell, k: int,
               window: Optional[int]) -> NNResult:
        with span("api.nn", k=k), Timer() as timer:
            result = self._nn_impl(view, cell, k, window)
        _QUERY_SECONDS.observe(timer.seconds, op="nn")
        return result

    def _nn_impl(self, view: _MappingView, cell, k: int,
                 window: Optional[int]) -> NNResult:
        domain = self._domain
        if isinstance(domain, Grid):
            grid, cells = domain, None
        elif isinstance(domain, PointSet):
            grid, cells = domain.grid, domain.cells
        else:
            raise DomainError(
                "nn queries require a Grid or PointSet domain; this "
                f"index holds a {type(domain).__name__} (order/ranks "
                "are still available)"
            )
        if not isinstance(cell, (int, np.integer)):
            cell = grid.index_of(cell)
        cell = int(cell)
        if cells is None:
            if not 0 <= cell < grid.size:
                raise DomainError(
                    f"cell {cell} outside grid of size {grid.size}"
                )
            pos, n = cell, grid.size
        else:
            pos = int(np.searchsorted(cells, cell))
            if pos == len(cells) or int(cells[pos]) != cell:
                raise DomainError(
                    f"cell {cell} is not occupied in this point set"
                )
            n = len(cells)
        if not 1 <= k < n:
            raise InvalidParameterError(
                f"k must be in [1, {n - 1}], got {k}"
            )
        ranks = view.ranks
        if window is None:
            width = max(int(k), 1)
            candidates = window_candidates(ranks, pos, width)
            while len(candidates) < k and width < n:
                width *= 2
                candidates = window_candidates(ranks, pos, width)
        else:
            width = int(window)
            candidates = window_candidates(ranks, pos, width)
        coords = self._coordinates()
        distances = np.abs(coords[candidates] - coords[pos]).sum(axis=1)
        nearest = candidates[np.lexsort((candidates, distances))][:k]
        if cells is not None:
            # Positions -> flat grid indices; ascending position equals
            # ascending flat index (cells is sorted), so tie-breaking by
            # position above is tie-breaking by cell id.
            nearest = cells[nearest]
        return NNResult(neighbors=nearest, window=width,
                        candidates=len(candidates))

    def _join_on(self, view: _MappingView, cells_a, cells_b,
                 epsilon: int, window: int) -> JoinReport:
        with span("api.join", epsilon=epsilon,
                  window=window), Timer() as timer:
            report = self._join_impl(view, cells_a, cells_b, epsilon,
                                     window)
        _QUERY_SECONDS.observe(timer.seconds, op="join")
        return report

    def _join_impl(self, view: _MappingView, cells_a, cells_b,
                   epsilon: int, window: int) -> JoinReport:
        domain = self._domain
        if isinstance(domain, Grid):
            for name, arr in (("cells_a", cells_a), ("cells_b", cells_b)):
                values = np.asarray(arr, dtype=np.int64)
                outside = values[(values < 0) | (values >= domain.size)]
                if outside.size:
                    raise DomainError(
                        f"{name} must be flat cell indices in "
                        f"[0, {domain.size}); {outside[:5].tolist()} "
                        "are not"
                    )
            return window_join_report(domain, view.ranks, cells_a,
                                      cells_b, epsilon, window)
        if isinstance(domain, PointSet):
            grid = domain.grid
            occupied = domain.cells
            full = np.full(grid.size, -1, dtype=np.int64)
            full[occupied] = view.ranks
            for name, arr in (("cells_a", cells_a), ("cells_b", cells_b)):
                values = np.asarray(arr, dtype=np.int64)
                pos = np.searchsorted(occupied, values)
                member = ((pos < len(occupied))
                          & (occupied[np.minimum(pos, len(occupied) - 1)]
                             == values))
                if not member.all():
                    missing = values[~member]
                    raise DomainError(
                        f"{name} must be occupied cells of this point "
                        f"set; {missing[:5].tolist()} are not"
                    )
            # The sentinel ranks of unoccupied cells are never read:
            # both cell lists were just proven subsets of the occupied
            # set, whose ranks were scattered above.
            return window_join_report(grid, full, cells_a, cells_b,
                                      epsilon, window)
        raise DomainError(
            "join queries require a Grid or PointSet domain; this "
            f"index holds a {type(domain).__name__} (order/ranks are "
            "still available)"
        )

    def __repr__(self) -> str:
        domain = (f"grid{self._domain.shape}"
                  if isinstance(self._domain, Grid)
                  else type(self._domain).__name__)
        with self._lock:
            views = len(self._views)
        return (f"SpectralIndex(domain={domain}, "
                f"mapping={self._default.name!r}, "
                f"views={views})")
