"""``repro.obs`` — zero-dependency observability for the serving stack.

Three pieces, all standard library only:

- :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  thread-safe counters, gauges, and fixed-bucket latency histograms,
  rendered in Prometheus text format by :func:`dump_metrics`.
- :mod:`repro.obs.tracing` — a context-manager :func:`span` API whose
  trace context propagates across ``map_in_threads`` fan-out and the
  pickle IPC boundary to ``repro.serve`` workers, producing stitched
  traces with JSONL export.
- :mod:`repro.obs.timers` — the shared monotonic :class:`Timer` used by
  the serving stack, the serve CLI, and benchmarks.

Tracing is off by default and free when off (one boolean check per span
site); metric updates are always on and cost one lock + add.  The
registry is the process-wide scrape.  It sits beside, not in place of,
the per-instance ``ServiceStats`` and ``FleetStats`` counters, which
give exact deltas for one service, shard or fleet.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS,
    registry,
    dump_metrics,
)
from repro.obs.tracing import (
    SpanRecord,
    TraceCollector,
    span,
    tracing,
    tracing_enabled,
    enable_tracing,
    disable_tracing,
    current_context,
    use_context,
    capture_spans,
    remote_capture,
    collector,
    export_jsonl,
    load_jsonl,
    trace_tree,
    format_trace,
    phase_totals,
)
from repro.obs.timers import Timer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "registry",
    "dump_metrics",
    "SpanRecord",
    "TraceCollector",
    "span",
    "tracing",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
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
    "Timer",
]
