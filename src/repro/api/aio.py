"""AsyncSpectralIndex: the asyncio front of the serving facade.

An async service embedding the index (an aiohttp/FastAPI handler, a
worker consuming a queue) must not block its event loop on a range scan
or — far worse — a cold eigensolve.  :class:`AsyncSpectralIndex` wraps
a :class:`~repro.api.SpectralIndex` and exposes the same query surface
as coroutines that run the synchronous engine on a thread-pool
executor, so the loop stays responsive and concurrent requests overlap:

    index = AsyncSpectralIndex.build((64, 64))
    execution = await index.range(((4, 4), (9, 9)))
    results = await index.query_many([...])      # gather-friendly
    await index.aclose()

Safety comes from the layers below, not from here: the wrapped index's
lazy state is single-flight, the ordering service coalesces identical
solves, and the buffer pool locks per access — so any number of
in-flight coroutines (or a mix of async and plain-thread callers
sharing one ``SpectralIndex``) see exactly-once materialization and
exact accounting.  Every call, ``query_many`` included, is one executor
job: a batch runs on one thread exactly as the sync path runs it, and
concurrent batches overlap with each other.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.api.domains import Domain, DomainLike
from repro.api.index import SpectralIndex
from repro.api.mappings import MappingSpec
from repro.api.queries import NNResult, Query
from repro.core.ordering import LinearOrder
from repro.errors import InvalidParameterError
from repro.parallel import ensure_workers
from repro.query.engine import QueryExecution, WorkloadReport
from repro.query.join import JoinReport


class AsyncSpectralIndex:
    """Asyncio facade over a :class:`~repro.api.SpectralIndex`.

    Parameters
    ----------
    index:
        The synchronous index to serve.  It may simultaneously be used
        directly from other threads; all shared state is locked there.
    workers:
        Width of the owned executor; ``None`` takes
        :class:`~concurrent.futures.ThreadPoolExecutor`'s own default
        (``min(32, cpus + 4)``).  Ignored when ``executor`` is supplied.
    executor:
        An externally owned :class:`~concurrent.futures.ThreadPoolExecutor`
        to run on instead; the caller keeps responsibility for shutting
        it down (:meth:`aclose` will not touch it).
    """

    def __init__(self, index: SpectralIndex, *,
                 workers: Optional[int] = None,
                 executor: Optional[ThreadPoolExecutor] = None):
        if not isinstance(index, SpectralIndex):
            raise InvalidParameterError(
                f"index must be a SpectralIndex, got {type(index).__name__}"
            )
        self._index = index
        if executor is not None:
            self._executor = executor
            self._owns_executor = False
        else:
            width = (None if workers is None
                     else ensure_workers(workers, name="workers"))
            self._executor = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-aio")
            self._owns_executor = True

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, domain: DomainLike,
              mapping: MappingSpec = "spectral", *,
              workers: Optional[int] = None,
              executor: Optional[ThreadPoolExecutor] = None,
              **build_kwargs) -> "AsyncSpectralIndex":
        """:meth:`SpectralIndex.build` wrapped for asyncio serving.

        ``build_kwargs`` are forwarded verbatim (``config``,
        ``service``, ``page_size``, ...).  Building is cheap and lazy —
        no solve happens until the first query — so this stays a plain
        classmethod, not a coroutine.
        """
        return cls(SpectralIndex.build(domain, mapping, **build_kwargs),
                   workers=workers, executor=executor)

    # ------------------------------------------------------------------
    @property
    def index(self) -> SpectralIndex:
        """The wrapped synchronous index."""
        return self._index

    @property
    def domain(self) -> Domain:
        return self._index.domain

    @property
    def service(self):
        return self._index.service

    @property
    def stats(self):
        return self._index.stats

    # ------------------------------------------------------------------
    async def _run(self, fn, *args, **kwargs):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args, **kwargs))

    async def order(self) -> LinearOrder:
        """The default mapping's order (may pay the first eigensolve)."""
        return await self._run(lambda: self._index.order)

    async def ranks(self) -> np.ndarray:
        """The default mapping's rank array."""
        return await self._run(lambda: self._index.ranks)

    async def order_for(self, mapping: MappingSpec) -> LinearOrder:
        return await self._run(self._index.order_for, mapping)

    async def ranks_for(self, mapping: MappingSpec) -> np.ndarray:
        return await self._run(self._index.ranks_for, mapping)

    async def range(self, box, *, plan: str = "span-scan",
                    mapping: Optional[MappingSpec] = None
                    ) -> QueryExecution:
        """Awaitable :meth:`SpectralIndex.range`."""
        return await self._run(self._index.range, box, plan=plan,
                               mapping=mapping)

    async def nn(self, cell, k: int, *, window: Optional[int] = None,
                 mapping: Optional[MappingSpec] = None) -> NNResult:
        """Awaitable :meth:`SpectralIndex.nn`."""
        return await self._run(self._index.nn, cell, k, window=window,
                               mapping=mapping)

    async def join(self, cells_a, cells_b, *, epsilon: int, window: int,
                   mapping: Optional[MappingSpec] = None) -> JoinReport:
        """Awaitable :meth:`SpectralIndex.join`."""
        return await self._run(self._index.join, cells_a, cells_b,
                               epsilon=epsilon, window=window,
                               mapping=mapping)

    async def workload(self, boxes, *, plan: str = "span-scan",
                       mapping: Optional[MappingSpec] = None
                       ) -> WorkloadReport:
        """Awaitable :meth:`SpectralIndex.workload`, as one executor
        job."""
        return await self._run(self._index.workload, boxes, plan=plan,
                               mapping=mapping)

    async def query_many(self, queries: Sequence[Query], *,
                         parallelism: Optional[int] = None) -> List:
        """Awaitable :meth:`SpectralIndex.query_many`, as one executor
        job.

        The batch runs on one executor thread exactly as the sync path
        runs it (``parallelism`` keeps its meaning there: the width of
        the cold batch's non-batchable view solves), so results and
        accounting match it field for field, and
        ``asyncio.gather(index.query_many(a), index.query_many(b))``
        overlaps the two batches.
        """
        return await self._run(self._index.query_many, queries,
                               parallelism=parallelism)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the owned executor (no-op for a borrowed one)."""
        if self._owns_executor:
            self._executor.shutdown(wait=True)

    async def aclose(self) -> None:
        """Awaitable :meth:`close` (shutdown waits off the event loop)."""
        if self._owns_executor:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, functools.partial(self._executor.shutdown,
                                        wait=True))

    async def __aenter__(self) -> "AsyncSpectralIndex":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        return f"AsyncSpectralIndex({self._index!r})"
