"""A small generic LRU cache and a single-flight table, shared by every
caching layer.

The ordering service's in-memory artifact tier
(:mod:`repro.service.ordering`), the sharded frontend's index table and
the eigensolver's preconditioner cache (:mod:`repro.linalg.backends`)
need the same mechanics — ordered-dict recency, capacity eviction,
hit/miss counters — and the linalg layer cannot import the service
layer, so the shared implementation lives here next to
:mod:`repro.errors`.  Capacity counts
entries, not bytes: values of wildly different sizes each occupy one
slot, which keeps the policy predictable for callers that know their
workload mix.

Thread contract: every cache is shared across threads, so every
operation locks, keeping the recency order and the hit/miss counters
exact under concurrent ``get``/``put`` — the counters are asserted to
exact deltas by the service-cache benchmarks, which also run threaded.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import (Callable, Dict, Generic, Hashable, Iterator, Optional,
                    Tuple, TypeVar)

from repro.errors import InvalidParameterError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A minimal ordered-dict LRU with hit/miss counters.

    Parameters
    ----------
    capacity:
        Maximum number of entries held.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise InvalidParameterError(
                f"capacity must be >= 1, got {capacity}"
            )
        self._capacity = int(capacity)
        self._entries: "OrderedDict[K, V]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.RLock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock

    @property
    def capacity(self) -> int:
        """Maximum number of entries held."""
        return self._capacity

    def get(self, key: K) -> Optional[V]:
        """The cached value, refreshed as most-recently-used; else None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) an entry, evicting the LRU beyond capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[K]:
        # Iterates a snapshot: a locked cache must not hand out a live
        # OrderedDict iterator that a concurrent put() would invalidate.
        with self._lock:
            return iter(list(self._entries))

    def counters(self) -> Tuple[int, int]:
        """A ``(hits, misses)`` snapshot taken under the lock.

        External readers must come through here: the raw counters are
        guarded, and RPR007 flags any cross-class touch of them.
        """
        with self._lock:
            return self.hits, self.misses

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()


class _Call(Generic[V]):
    """One running computation; ``waiters`` is guarded by the owning
    :class:`SingleFlight`'s lock."""

    __slots__ = ("done", "value", "ok", "waiters")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: V
        self.ok = False
        self.waiters = 0


class SingleFlight(Generic[K, V]):
    """At most one running computation per key (the service's solves,
    the index's views and the socket server's orders each use one).

    The first caller of :meth:`do` for a key leads: it runs ``compute``
    with no lock held, so distinct keys compute in parallel.  Callers
    arriving meanwhile wait and share its value.  A leader that raises
    re-raises to its own caller only; its waiters retry and one of them
    leads next, so a transient failure never wedges a key.  A key is
    held only while it computes: keeping values is the caller's cache's
    job, so ``compute`` should check that cache once more first (a
    flight may land between the caller's check and its :meth:`do`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls: Dict[K, _Call[V]] = {}  # guarded-by: _lock

    def do(self, key: K, compute: Callable[[], V], *,
           deadline: Optional[float] = None) -> Tuple[V, bool]:
        """``(value, shared)``: ``shared`` is False for the leader, which
        ran ``compute``, and True for a waiter given the leader's value.

        ``deadline`` is a :func:`time.monotonic` instant; a waiter still
        waiting at it raises :class:`TimeoutError`.  A leader's own
        computation is never cut short.
        """
        while True:
            with self._lock:
                call = self._calls.get(key)
                if call is None:
                    mine: _Call[V] = _Call()
                    self._calls[key] = mine
                else:
                    call.waiters += 1
            if call is None:
                try:
                    mine.value = compute()
                    mine.ok = True
                    return mine.value, False
                finally:
                    with self._lock:
                        del self._calls[key]
                    mine.done.set()
            try:
                timeout = (None if deadline is None
                           else max(0.0, deadline - time.monotonic()))
                landed = call.done.wait(timeout)
            finally:
                with self._lock:
                    call.waiters -= 1
            if not landed:
                raise TimeoutError(
                    f"computation for {key!r} outlived the deadline")
            if call.ok:
                return call.value, True
            # The leader failed: loop, and one waiter leads next.

    def waiters(self) -> int:
        """Callers currently waiting on another caller's computation."""
        with self._lock:
            return sum(call.waiters for call in self._calls.values())
