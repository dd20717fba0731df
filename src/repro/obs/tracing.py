"""Context-manager span tracing with cross-thread and cross-process
propagation.

The model is a trimmed-down OpenTelemetry: a *span* is a named, timed
unit of work with attributes; spans nest via a thread-local stack; all
spans sharing a ``trace_id`` form one *trace*.  The context propagates

- across ``map_in_threads`` fan-out (``repro.parallel`` captures
  :func:`current_context` at submit time and re-attaches it in worker
  threads), and
- across the pickle IPC boundary (``repro.serve`` ships the
  ``(trace_id, span_id)`` context tuple inside ``TracedRequest`` and
  returns finished :class:`SpanRecord` objects inside
  ``TracedResponse``),

so a single ``ProcessPoolFrontend.query_many`` call yields one stitched
trace from dispatcher to solver.

Overhead contract
-----------------
Tracing is **off by default**.  When disabled, :func:`span` performs a
single module-level boolean check and returns a shared no-op singleton
whose ``__enter__``/``__exit__``/``set_attribute`` do nothing — no
allocation, no clock read, no lock.  Instrumented hot paths therefore
cost one predicate per span site when tracing is off; the query-path
benchmark (``benchmarks/test_bench_tracing_overhead.py``) pins the
end-to-end overhead below 5%.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union, cast

#: Anything ``open()`` accepts for the JSONL import/export helpers.
_PathLike = Union[str, "os.PathLike[str]"]

__all__ = [
    "SpanRecord",
    "TraceCollector",
    "span",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
    "tracing",
    "current_context",
    "use_context",
    "capture_spans",
    "remote_capture",
    "collector",
    "export_jsonl",
    "load_jsonl",
    "trace_tree",
    "format_trace",
    "phase_totals",
]


def _new_id() -> str:
    # A per-thread 64-bit counter seeded once from os.urandom: the same
    # uniqueness (random base per thread, monotone within it) without
    # paying a syscall on every span — ID generation is on the traced
    # hot path twice per root span.
    count = getattr(_LOCAL, "id_count", None)
    if count is None:
        _LOCAL.id_base = int.from_bytes(os.urandom(8), "big")
        count = 0
    count += 1
    _LOCAL.id_count = count
    return "%016x" % ((_LOCAL.id_base + count) & 0xFFFFFFFFFFFFFFFF)


@dataclass
class SpanRecord:
    """A span and, once it has exited, its record.  Use via :func:`span`::

        with span("service.solve", key=key) as sp:
            ...
            sp.set_attribute("backend", result.backend)

    Entering stamps ``start_time`` and pushes the thread-local span
    stack.  Exiting sets ``duration``, ``status``, ``error`` and ``pid``,
    pops the stack and publishes the object itself to the process
    collector and any active capture sinks.  An exception escaping the
    body marks ``status="error"`` and is not swallowed.

    The ten fields are plain picklable data, and they are the whole
    instance state: the object is also the IPC and JSONL wire format.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_time: float          # epoch seconds (time.time)
    duration: float            # seconds (perf_counter delta)
    attributes: Dict[str, object] = field(default_factory=dict)
    status: str = "ok"
    error: Optional[str] = None
    pid: int = 0

    is_recording = True

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    @property
    def context(self) -> Tuple[str, str]:
        """``(trace_id, span_id)``: the context a child or a traced
        request carries."""
        return (self.trace_id, self.span_id)

    def __enter__(self) -> "SpanRecord":
        self.start_time = time.time()
        _stack().append(self)
        # The running clock lives in ``duration`` itself, so no field
        # beyond the ten is ever set (or pickled).
        self.duration = -time.perf_counter()
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> bool:
        self.duration += time.perf_counter()
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.status = "error"
            self.error = repr(exc)
        self.pid = _PID
        _STATE.collector.add(self)
        if _STATE.sinks:
            with _STATE.sink_lock:
                for sink in _STATE.sinks:
                    sink.append(self)
        return False

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_time": self.start_time,
            "duration": self.duration,
            "attributes": self.attributes,
            "status": self.status,
            "error": self.error,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanRecord":
        """Build a record from a possibly sparse dict.

        Optional fields absent from the input (hand-written JSONL,
        exports from an older schema) fall back to their dataclass
        defaults instead of landing as ``None`` — a record with
        ``attributes=None`` or ``status=None`` breaks every consumer
        that iterates or compares them.
        """
        def pick(key: str, default: Any) -> Any:
            value = data.get(key)
            return default if value is None else value

        return cls(
            trace_id=pick("trace_id", ""),
            span_id=pick("span_id", ""),
            parent_id=cast(Optional[str], data.get("parent_id")),
            name=pick("name", ""),
            start_time=pick("start_time", 0.0),
            duration=pick("duration", 0.0),
            attributes=pick("attributes", {}),
            status=pick("status", "ok"),
            error=cast(Optional[str], data.get("error")),
            pid=pick("pid", 0),
        )


class TraceCollector:
    """Bounded, thread-safe ring of finished spans with JSONL export."""

    def __init__(self, maxlen: int = 4096) -> None:
        self._lock = threading.Lock()
        self._records: "deque[SpanRecord]" = deque(maxlen=maxlen)  # guarded-by: _lock

    def add(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    def ingest(self, records: Iterable[SpanRecord]) -> None:
        """Merge foreign spans (e.g. shipped back from a worker process).

        Ingested spans also feed any active :func:`capture_spans`
        sinks: a capture scope that dispatches into the process fleet
        sees the workers' spans exactly as it sees local ones, so a
        socket server can forward a complete stitched trace.
        """
        records = list(records)
        with self._lock:
            self._records.extend(records)
        if _STATE.sinks:
            with _STATE.sink_lock:
                for sink in _STATE.sinks:
                    sink.extend(records)

    def spans(self, trace_id: Optional[str] = None) -> List[SpanRecord]:
        with self._lock:
            records = list(self._records)
        if trace_id is not None:
            records = [r for r in records if r.trace_id == trace_id]
        return records

    def drain(self) -> List[SpanRecord]:
        with self._lock:
            records = list(self._records)
            self._records.clear()
        return records

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def export_jsonl(self, path: _PathLike) -> int:
        return export_jsonl(self.spans(), path)


class _TracerState:
    def __init__(self) -> None:
        # ``enabled`` is what span() reads: the process's own setting
        # (``wanted``) or any open remote_capture scope forcing it on.
        self.enabled = False
        self.wanted = False  # guarded-by: sink_lock
        self.remote_scopes = 0  # guarded-by: sink_lock
        self.collector = TraceCollector()
        self.sink_lock = threading.Lock()
        self.sinks: List[List[SpanRecord]] = []

    def refresh_locked(self) -> None:
        """Recompute ``enabled``; the caller holds ``sink_lock``."""
        self.enabled = self.wanted or self.remote_scopes > 0


_STATE = _TracerState()
_LOCAL = threading.local()

# The pid is stamped on every record; cache it and refresh after fork
# (spawned workers re-import and get their own value anyway).
_PID = os.getpid()
if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(
        after_in_child=lambda: globals().__setitem__("_PID", os.getpid()))


def _stack() -> List[SpanRecord]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def tracing_enabled() -> bool:
    return _STATE.enabled


def _set_wanted(wanted: bool) -> bool:
    """Set the process's own tracing setting; returns the old one."""
    with _STATE.sink_lock:
        prev, _STATE.wanted = _STATE.wanted, wanted
        _STATE.refresh_locked()
    return prev


def enable_tracing() -> None:
    _set_wanted(True)


def disable_tracing() -> None:
    _set_wanted(False)


class tracing:
    """Context manager enabling tracing for a scope (tests, benchmarks)."""

    def __enter__(self) -> TraceCollector:
        self._prev = _set_wanted(True)
        return _STATE.collector

    def __exit__(self, *exc: object) -> bool:
        _set_wanted(self._prev)
        return False


def collector() -> TraceCollector:
    """The process-wide trace collector."""
    return _STATE.collector


def current_context() -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` of the innermost open span on this
    thread, falling back to an attached remote parent (see
    :func:`use_context`)."""
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        return stack[-1].context
    return getattr(_LOCAL, "remote_parent", None)


class use_context:
    """Attach ``ctx`` as this thread's parent context for root spans.

    Used by ``map_in_threads`` (so fan-out threads continue the caller's
    trace) and by workers resuming a trace shipped over IPC.
    """

    def __init__(self, ctx: Optional[Tuple[str, str]]) -> None:
        self._ctx = ctx

    def __enter__(self) -> "use_context":
        self._prev = getattr(_LOCAL, "remote_parent", None)
        if self._ctx is not None:
            _LOCAL.remote_parent = self._ctx
        return self

    def __exit__(self, *exc: object) -> bool:
        _LOCAL.remote_parent = self._prev
        return False


class _NoopSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    is_recording = False

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, **attributes: object) -> Union[SpanRecord, _NoopSpan]:
    """Open a span named ``name`` with initial ``attributes``.

    When tracing is disabled this is a no-op: one boolean check, then a
    shared singleton whose enter/exit do nothing (see the module
    docstring's overhead contract).  Enabled, it is one
    :class:`SpanRecord` that keeps the keyword dict as its attributes,
    parented on :func:`current_context` or, without one, a new trace.
    """
    if not _STATE.enabled:
        return _NOOP
    trace_id, parent_id = current_context() or (_new_id(), None)
    return SpanRecord(trace_id, _new_id(), parent_id, name, 0.0, 0.0,
                      attributes)


class capture_spans:
    """Capture every span finished process-wide while the scope is open.

    ``with capture_spans() as records: ...`` — ``records`` is a plain
    list that fills as spans close, including spans finished on other
    threads (``map_in_threads`` fan-out).  Intended for single-request
    scopes (worker processes handle one request at a time) and tests.
    """

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []

    def __enter__(self) -> List[SpanRecord]:
        with _STATE.sink_lock:
            _STATE.sinks.append(self.records)
        return self.records

    def __exit__(self, *exc: object) -> bool:
        # By identity: list.remove matches by equality, and two scopes'
        # lists are equal while both are empty.
        with _STATE.sink_lock:
            sinks = _STATE.sinks
            for i, sink in enumerate(sinks):
                if sink is self.records:
                    del sinks[i]
                    break
        return False


class remote_capture:
    """Worker-side scope for one trace-carrying IPC request.

    Enables tracing while any such scope is open (regardless of the
    process's own setting), attaches the shipped ``(trace_id, span_id)``
    context as the parent for root spans, and captures every span
    finished while handling the request so the worker can ship them
    back in the response.  The forced-on state is a count of open
    scopes, not a saved flag, so concurrent scopes (the socket server's
    dispatcher threads) may close in any order and tracing falls back
    to the process's setting when the last one closes.
    """

    def __init__(self, wire_ctx: Optional[Tuple[str, str]]) -> None:
        self._capture = capture_spans()
        self._use = use_context(wire_ctx)

    def __enter__(self) -> List[SpanRecord]:
        with _STATE.sink_lock:
            _STATE.remote_scopes += 1
            _STATE.refresh_locked()
        self._use.__enter__()
        return self._capture.__enter__()

    def __exit__(self, *exc: object) -> bool:
        self._capture.__exit__(*exc)
        self._use.__exit__(*exc)
        with _STATE.sink_lock:
            _STATE.remote_scopes -= 1
            _STATE.refresh_locked()
        return False


# ---------------------------------------------------------------------------
# Export / inspection helpers


#: One node of a rendered trace forest: a record and its children.
TraceNode = Tuple[SpanRecord, List["TraceNode"]]


def export_jsonl(records: Iterable[SpanRecord], path: _PathLike) -> int:
    """Write span records to ``path`` as JSON Lines.  Returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.as_dict(), sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def load_jsonl(path: _PathLike) -> List[SpanRecord]:
    records: List[SpanRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(SpanRecord.from_dict(json.loads(line)))
    return records


def trace_tree(records: Iterable[SpanRecord]
               ) -> Dict[str, List[TraceNode]]:
    """Group records into ``(root, children)`` forests per trace.

    Returns ``{trace_id: [(record, [child_nodes...]), ...]}`` where each
    node is a ``(record, children)`` pair sorted by start time.  Spans
    whose parent is missing from the record set are treated as roots.
    """
    ordered = sorted(records, key=lambda r: (r.start_time, r.span_id))
    by_trace: Dict[str, List[SpanRecord]] = {}
    for record in ordered:
        by_trace.setdefault(record.trace_id, []).append(record)
    forests: Dict[str, List[TraceNode]] = {}
    for trace_id, group in by_trace.items():
        nodes: Dict[str, TraceNode] = {r.span_id: (r, [])
                                       for r in group}
        roots: List[TraceNode] = []
        for r in group:
            node = nodes[r.span_id]
            parent = nodes.get(r.parent_id) if r.parent_id else None
            if parent is not None:
                parent[1].append(node)
            else:
                roots.append(node)
        forests[trace_id] = roots
    return forests


def _format_node(node: TraceNode, depth: int,
                 lines: List[str]) -> None:
    record, children = node
    attrs = ""
    if record.attributes:
        attrs = "  " + " ".join(
            "%s=%s" % (k, v) for k, v in sorted(record.attributes.items()))
    marker = "" if record.status == "ok" else "  [%s]" % record.status
    lines.append("%s%-s  %.3fms  pid=%d%s%s" % (
        "  " * depth, record.name, record.duration * 1e3, record.pid,
        attrs, marker))
    for child in children:
        _format_node(child, depth + 1, lines)


def format_trace(records: Iterable[SpanRecord]) -> str:
    """Render records as indented per-trace trees (``repro-stats trace``)."""
    lines: List[str] = []
    for trace_id, roots in trace_tree(records).items():
        lines.append("trace %s" % trace_id)
        for root in roots:
            _format_node(root, 1, lines)
    return "\n".join(lines)


def phase_totals(records: Iterable[SpanRecord],
                 prefix: str = "") -> Dict[str, float]:
    """Total seconds per span name (optionally filtered by prefix).

    The per-phase breakdown recorded into ``BENCH_spectral.json`` by
    ``benchmarks/conftest.py``.
    """
    totals: Dict[str, float] = {}
    for record in records:
        if prefix and not record.name.startswith(prefix):
            continue
        totals[record.name] = totals.get(record.name, 0.0) + record.duration
    return totals
