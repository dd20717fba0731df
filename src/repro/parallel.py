"""Shared thread fan-out: one worker-count rule, one map implementation.

Threads run only where they overlap work that leaves the GIL: the
sharded frontend, the process pool and the fleet supervisor fan
``order_many`` / ``broadcast`` across shards, worker pipes and
processes.  Query batches never fan out: ``query_many`` runs on the
caller's thread on every front.  The fan-outs must agree on what a
valid worker count is and on the sequential-below-two fast path, so
both live here, next to :mod:`repro.errors`, importable from any layer
without cycles.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import InvalidParameterError
from repro.obs.tracing import current_context, tracing_enabled, use_context

T = TypeVar("T")
R = TypeVar("R")


def _with_context(fn: Callable[[T], R],
                  ctx: Tuple[str, str]) -> Callable[[T], R]:
    """``fn`` with ``ctx`` attached for the duration of each call."""
    def wrapper(item: T) -> R:
        with use_context(ctx):
            return fn(item)
    return wrapper


def ensure_workers(parallelism: Optional[int]) -> int:
    """Validate a worker count: ``None`` means 1, else an int >= 1.

    Floats and bools are rejected rather than coerced — ``int(2.7)``
    silently truncating or ``True`` meaning 1 would make the same knob
    behave differently across entry points.
    """
    if parallelism is None:
        return 1
    if isinstance(parallelism, bool) or not isinstance(parallelism, int):
        raise InvalidParameterError(
            "parallelism must be an integer >= 1 or None, "
            f"got {parallelism!r}"
        )
    if parallelism < 1:
        raise InvalidParameterError(
            f"parallelism must be >= 1, got {parallelism}"
        )
    return parallelism


def map_in_threads(fn: Callable[[T], R], items: Sequence[T],
                   workers: int, *,
                   thread_name_prefix: str = "repro-worker"
                   ) -> List[R]:
    """Apply ``fn`` over ``items``, results aligned with the input.

    ``workers <= 1`` (or a batch of one) runs inline — the sequential
    path stays byte-for-byte the pre-parallelism code path, with no pool
    construction.  Otherwise a private thread pool executes the items
    and the call **fails fast**: as soon as any item raises, every
    not-yet-started item is cancelled, and the raising item earliest in
    submission order propagates (deterministic even when several items
    fail concurrently).  Items already running are allowed to finish —
    threads cannot be interrupted — but a poisoned batch of K slow
    items no longer runs all K to completion before the caller hears
    about the failure.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Trace propagation: capture the caller's span context once at
    # submission and re-attach it in each pool thread, so spans opened
    # inside ``fn`` stitch into the caller's trace instead of starting
    # orphan traces.  Free when tracing is off (one boolean check).
    call = fn
    if tracing_enabled():
        ctx = current_context()
        if ctx is not None:
            call = _with_context(fn, ctx)
    with ThreadPoolExecutor(
            max_workers=min(int(workers), len(items)),
            thread_name_prefix=thread_name_prefix) as pool:
        futures = [pool.submit(call, item) for item in items]
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        if any(not f.cancelled() and f.exception() is not None
               for f in done):
            # Fail fast: stop queued items, let running ones drain
            # (threads cannot be interrupted), then report the failure
            # earliest in submission order — deterministic even when
            # several items fail concurrently.
            for future in not_done:
                future.cancel()
            wait(futures)
            for future in futures:
                if not future.cancelled():
                    exc = future.exception()
                    if exc is not None:
                        raise exc
        return [future.result() for future in futures]
