"""AsyncSpectralIndex: the asyncio front of the serving facade.

An async service embedding the index (an aiohttp/FastAPI handler, a
worker consuming a queue) must not block its event loop on a range scan
or — far worse — a cold eigensolve.  :class:`AsyncSpectralIndex` wraps
a :class:`~repro.api.SpectralIndex` and exposes the same query surface
as coroutines that run the synchronous engine on one private executor
thread, so the loop stays responsive:

    index = AsyncSpectralIndex.build((64, 64))
    execution = await index.range(((4, 4), (9, 9)))
    results = await index.query_many([...])      # gather-friendly
    await index.aclose()

Every call, ``query_many`` included, is one job on that thread, and
jobs run in submission order: a batch runs exactly as the sync path
runs it, and gathered batches run back to back.  Query execution holds
the GIL, so a wider executor only made them contend — four gathered
600-query batches took about twice as long on six threads as on one.
A cold solve therefore delays the calls queued behind it; callers who
want overlap share the wrapped index with their own threads, which is
safe because the layers below lock their state: the index's lazy views
are single-flight, the ordering service coalesces identical solves, and
the buffer pool locks per access.
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
from repro.query.engine import QueryExecution, WorkloadReport
from repro.query.join import JoinReport


class AsyncSpectralIndex:
    """Asyncio facade over a :class:`~repro.api.SpectralIndex`.

    Parameters
    ----------
    index:
        The synchronous index to serve.  It may simultaneously be used
        directly from other threads; all shared state is locked there.
    """

    def __init__(self, index: SpectralIndex):
        if not isinstance(index, SpectralIndex):
            raise InvalidParameterError(
                f"index must be a SpectralIndex, got {type(index).__name__}"
            )
        self._index = index
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-aio")

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, domain: DomainLike,
              mapping: MappingSpec = "spectral",
              **build_kwargs) -> "AsyncSpectralIndex":
        """:meth:`SpectralIndex.build` wrapped for asyncio serving.

        ``build_kwargs`` are forwarded verbatim (``config``,
        ``service``, ``page_size``, ...).  Building is cheap and lazy —
        no solve happens until the first query — so this stays a plain
        classmethod, not a coroutine.
        """
        return cls(SpectralIndex.build(domain, mapping, **build_kwargs))

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

    async def query_many(self, queries: Sequence[Query]) -> List:
        """Awaitable :meth:`SpectralIndex.query_many`, as one executor
        job, so results and accounting match the sync path field for
        field."""
        return await self._run(self._index.query_many, queries)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the executor once its queued calls finish."""
        self._executor.shutdown(wait=True)

    async def aclose(self) -> None:
        """Awaitable :meth:`close` (shutdown waits off the event loop)."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, functools.partial(self._executor.shutdown, wait=True))

    async def __aenter__(self) -> "AsyncSpectralIndex":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        return f"AsyncSpectralIndex({self._index!r})"
