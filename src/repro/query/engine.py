"""LinearStore: an executable end-to-end spatial store.

The paper's architecture, assembled: a :class:`LinearStore` maps grid
cells through a :class:`~repro.mapping.LocalityMapping` into 1-D keys
(their ranks), indexes the keys in a B+-tree, and lays the records onto
fixed-size pages.  Range queries run the way Section 5 models them:

``"span-scan"``
    Descend the B+-tree to the query's minimum key and walk the leaf
    chain to its maximum key, "eliminating the records that lie outside
    the range query" (the paper's own description).  Cost tracks the
    Figure-6 span.
``"page-fetch"``
    Fetch exactly the pages containing qualifying records (an index
    union plan).  Cost tracks pages + seeks.

The keys are the dense ranks ``0..N-1``, so the Section-5 B+-tree is
priced in closed form rather than walked: a packed tree of fanout
``tree_order`` keeps rank ``r`` in leaf ``r // tree_order``, a search
reads one node per level (:func:`~repro.index.bplustree.bulk_load_height`),
and a leaf-chain scan from ``lo`` to ``hi`` reads one more leaf per
leaf boundary it crosses.  The span-scan likewise reads the single page
run ``lo // page_size .. hi // page_size``.  No pointer tree is built;
:class:`~repro.index.BPlusTree` remains the reference model the tests
check these counts against.

Both plans return identical result sets; the engine reports per-plan
I/O so their trade-off is measurable per mapping, and an optional LRU
buffer absorbs repeated pages across a query stream.  A built store is
immutable (layout, ranks) and its buffer pool locks per batch of page
accesses, so one store may serve queries from many threads
concurrently — the facade's asyncio front and plain threads sharing one
index rely on exactly that.

The :class:`~repro.api.SpectralIndex` facade builds stores lazily
behind its ``range(...)`` / ``query_many(...)`` methods;
``LinearStore(grid, mapping, ...)`` builds one directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.ordering import LinearOrder
from repro.errors import InvalidParameterError
from repro.geometry.boxes import Box
from repro.geometry.grid import Grid
from repro.index.bplustree import bulk_load_height
from repro.mapping.interface import LocalityMapping
from repro.obs import Timer, registry, span
from repro.storage.buffer import BufferStats, LRUBufferPool
from repro.storage.disk import DiskCostModel
from repro.storage.pages import PageLayout

# Engine-level latency, labelled by plan — separates storage-engine
# time from the facade's per-op totals in ``repro_query_seconds``.
_RANGE_SECONDS = registry().histogram(
    "repro_engine_range_seconds",
    "LinearStore.range_query latency by plan.")

PLANS = ("span-scan", "page-fetch")


@dataclass(frozen=True)
class QueryExecution:
    """Result set and I/O accounting of one range query."""

    results: np.ndarray         # qualifying flat cell indices, ascending
    plan: str
    index_node_accesses: int    # B+-tree nodes touched
    pages_fetched: int          # data pages read (before buffering)
    seeks: int                  # contiguous page runs
    buffer_hits: int
    cost: float                 # modelled disk cost of the misses


class LinearStore:
    """Grid cells stored in mapping order behind a (modelled) B+-tree.

    Parameters
    ----------
    grid:
        The domain.
    mapping:
        Any :class:`~repro.mapping.LocalityMapping`; its order defines
        both the B+-tree keys and the page layout.
    order:
        ``mapping``'s order over ``grid`` when the caller already has
        it; ``None`` computes it.
    page_size:
        Records per data page.
    tree_order:
        Fanout of the modelled B+-tree (>= 3).
    buffer_capacity:
        Pages held in the LRU pool; ``None`` disables buffering.
    cost_model:
        Seek/transfer costs for the accounting.
    """

    def __init__(self, grid: Grid, mapping: LocalityMapping,
                 order: Optional[LinearOrder] = None,
                 page_size: int = 16, tree_order: int = 32,
                 buffer_capacity: Optional[int] = None,
                 cost_model: Optional[DiskCostModel] = None):
        self._grid = grid
        self._mapping = mapping
        if order is None:
            order = mapping.order_domain(grid)
        self._ranks = order.ranks
        self._layout = PageLayout(order, page_size)
        self._tree_order = int(tree_order)
        self._tree_height = bulk_load_height(grid.size, self._tree_order)
        self._buffer = (LRUBufferPool(buffer_capacity)
                        if buffer_capacity else None)
        self._model = cost_model or DiskCostModel()

    # ------------------------------------------------------------------
    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def mapping_name(self) -> str:
        return self._mapping.name

    @property
    def layout(self) -> PageLayout:
        return self._layout

    # ------------------------------------------------------------------
    def range_query(self, box: Box,
                    plan: str = "span-scan") -> QueryExecution:
        """Execute an axis-aligned range query under the chosen plan."""
        if plan not in PLANS:
            raise InvalidParameterError(
                f"unknown plan {plan!r}; expected one of {PLANS}"
            )
        with span("engine.range_query", plan=plan) as sp, \
                Timer() as timer:
            execution = self._range_query_impl(box, plan)
            sp.set_attribute("pages", execution.pages_fetched)
        _RANGE_SECONDS.observe(timer.seconds, plan=plan)
        return execution

    def _range_query_impl(self, box: Box, plan: str) -> QueryExecution:
        # Ascending already, so the cells are the result set as is.
        results = box.cell_indices(self._grid)
        if plan == "span-scan":
            ranks = self._ranks[results]
            lo, hi = int(ranks.min()), int(ranks.max())
            # Packed leaves hold ``tree_order`` consecutive ranks: descend
            # one node per level to lo's leaf, then walk the chain until
            # a key above hi (or the end of the last leaf) is read.
            fanout = self._tree_order
            node_accesses = (self._tree_height
                             + min(hi + 1, self._grid.size - 1) // fanout
                             - lo // fanout)
            page_size = self._layout.page_size
            pages = range(lo // page_size, hi // page_size + 1)
            runs = 1
        else:  # page-fetch
            node_accesses = 0
            page_ids = self._layout.pages_for_items(results)
            # A box holds at least one cell, so one run, and each gap
            # between consecutive page ids starts another.
            runs = 1 + int(np.count_nonzero(np.diff(page_ids) > 1))
            pages = page_ids.tolist()
        fetched = len(pages)
        hits = 0
        if self._buffer is not None:
            hits = self._buffer.access_many(pages)
        misses = fetched - hits
        # Seeks only apply to pages actually read from disk; buffered
        # runs are approximated by scaling runs with the miss fraction.
        effective_runs = runs if misses == fetched else min(runs, misses)
        cost = self._model.cost(misses, effective_runs)
        return QueryExecution(
            results=results,
            plan=plan,
            index_node_accesses=node_accesses,
            pages_fetched=fetched,
            seeks=runs,
            buffer_hits=hits,
            cost=cost,
        )

    def point_query(self, point: Sequence[int]) -> Tuple[bool, int]:
        """Whether a cell exists (always true on a full grid) and the
        B+-tree node accesses spent proving it: one per level."""
        self._grid.index_of(point)
        return True, self._tree_height

    def buffer_stats(self) -> Optional[BufferStats]:
        """The buffer pool's accounting snapshot (``None`` unbuffered).

        The pool locks each access, so the snapshot satisfies
        ``hits + misses == accesses`` exactly even while queries are
        executing on other threads.
        """
        if self._buffer is None:
            return None
        return self._buffer.stats()

    def execute_workload(self, boxes: Sequence[Box],
                         plan: str = "span-scan") -> "WorkloadReport":
        """Run a query stream in order on the calling thread and
        aggregate the accounting.

        A range query is a few microseconds of GIL-holding numpy glue,
        so fanning a stream out over threads only slows it down.
        """
        boxes = list(boxes)
        with span("engine.workload", queries=len(boxes), plan=plan):
            executions = [self.range_query(box, plan=plan)
                          for box in boxes]
        return WorkloadReport(
            plan=plan,
            queries=len(executions),
            results=sum(len(e.results) for e in executions),
            index_node_accesses=sum(e.index_node_accesses
                                    for e in executions),
            pages_fetched=sum(e.pages_fetched for e in executions),
            seeks=sum(e.seeks for e in executions),
            buffer_hits=sum(e.buffer_hits for e in executions),
            cost=sum(e.cost for e in executions),
        )


@dataclass(frozen=True)
class WorkloadReport:
    """Aggregated accounting of a query stream."""

    plan: str
    queries: int
    results: int
    index_node_accesses: int
    pages_fetched: int
    seeks: int
    buffer_hits: int
    cost: float
