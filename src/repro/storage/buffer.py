"""An LRU buffer pool.

Completes the storage stack: query streams hit the buffer first, and a
mapping that clusters co-accessed items onto few pages gets a higher hit
rate for the same buffer size.  The implementation is a textbook
ordered-dict LRU with hit/miss/eviction accounting.  A batch of pages
is one loop of LRU steps that writes the counters once, and a single
:meth:`LRUBufferPool.access` is a batch of one.

One pool may be shared by every query running against one
:class:`~repro.query.LinearStore` — including queries from plain
threads and ``AsyncSpectralIndex`` fronts sharing one index — so
each access, and each ``access_many`` batch, is atomic: an internal
lock guards the recency order and the counters, keeping the
conservation law ``hits + misses == accesses`` exact under any
interleaving.  Which *individual* accesses hit depends on the
interleaving (that is inherent to a shared LRU), but the totals never
drift.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class BufferStats:
    """Access accounting of a buffer run."""

    accesses: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        """Hits per access (0.0 for an untouched buffer)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class LRUBufferPool:
    """Fixed-capacity page buffer with least-recently-used eviction."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidParameterError(
                f"capacity must be >= 1, got {capacity}"
            )
        self._capacity = int(capacity)
        self._pages: OrderedDict[int, None] = OrderedDict()  # guarded-by: _lock
        # Each access mutates the recency dict and two counters as one
        # transaction; the lock makes that atomic so pools shared by
        # concurrent queries never corrupt the LRU order or the
        # accounting (hits + misses == accesses always).
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def resident(self) -> int:
        """Pages currently buffered."""
        with self._lock:
            return len(self._pages)

    def access(self, page: int) -> bool:
        """Touch one page; returns True on a hit.  Atomic."""
        return self.access_many((page,)) == 1

    def access_many(self, pages: Iterable[int]) -> int:
        """Touch pages in order; returns the number of hits.

        Each page is one LRU step: a resident page moves to the most
        recent end, any other page is admitted there, evicting the least
        recent page when the pool is full.  The lock is taken once for
        the whole batch, so the batch is atomic.  ``pages`` may be any
        iterable; it is read into a list before the lock is taken.
        """
        batch = list(map(int, pages))
        with self._lock:
            resident = self._pages
            refresh = resident.move_to_end
            evict = resident.popitem
            free = self._capacity - len(resident)
            hits = evictions = 0
            for page in batch:
                if page in resident:
                    refresh(page)
                    hits += 1
                    continue
                if free:
                    free -= 1
                else:
                    evict(last=False)
                    evictions += 1
                resident[page] = None
            self._hits += hits
            self._misses += len(batch) - hits
            self._evictions += evictions
        return hits

    def contains(self, page: int) -> bool:
        """Whether a page is resident (does not touch recency)."""
        with self._lock:
            return int(page) in self._pages

    def stats(self) -> BufferStats:
        """Accounting snapshot (internally consistent under threads)."""
        with self._lock:
            return BufferStats(
                accesses=self._hits + self._misses,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )

    def reset(self) -> None:
        """Empty the buffer and zero the counters."""
        with self._lock:
            self._pages.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0


def replay_query_stream(capacity: int,
                        page_requests: Sequence[Sequence[int]]
                        ) -> BufferStats:
    """Run a stream of per-query page-id lists through a fresh LRU pool."""
    pool = LRUBufferPool(capacity)
    for pages in page_requests:
        pool.access_many(int(p) for p in pages)
    return pool.stats()
