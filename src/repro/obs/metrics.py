"""Process-wide metrics: thread-safe counters, gauges, and histograms.

Zero dependencies beyond the standard library.  The registry is the
aggregation point for every layer of the serving stack — solver
invocations, cache-tier outcomes, dispatch latency — and renders in
Prometheus text exposition format via :func:`dump_metrics`.

Overhead contract
-----------------
Metric updates are always on (there is no disable switch, mirroring the
pre-existing ``ServiceStats`` counters): a counter increment is one
lock acquisition plus a float add, a histogram observation adds one
``bisect``.  Both are O(100ns) and safe on every hot path instrumented
by this package.  Snapshots and rendering take the registry lock and
each family lock, so they never observe a torn update.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "registry",
    "dump_metrics",
]

# Latency buckets (seconds) spanning sub-100µs cache hits and warm
# queries (10-100 µs) up to multi-second cold eigensolves.  Fixed at
# family creation: histograms never resize, so observation cost is
# constant.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.000025, 0.00005,
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: Mapping[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: Tuple[Tuple[str, str], ...]) -> str:
    if not key:
        return ""
    parts = []
    for name, value in key:
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append('%s="%s"' % (name, escaped))
    return "{%s}" % ",".join(parts)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Base class: a named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    # Subclasses implement ``_snapshot_locked()`` / ``_render_locked()``
    # under ``self._lock``.

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append("# HELP %s %s" % (self.name, self.help.replace("\n", " ")))
        lines.append("# TYPE %s %s" % (self.name, self.kind))
        with self._lock:
            lines.extend(self._render_locked())
        return lines

    def _snapshot_locked(self) -> Dict[str, object]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _render_locked(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError


_M = TypeVar("_M", bound=_Metric)


class _ValueMetric(_Metric):
    """Shared storage + rendering for one-number-per-series families
    (the former ``Gauge._render_locked = Counter._render_locked``
    cross-class method grafts, made an honest base class)."""

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}  # guarded-by: _lock

    def value(self, **labels: object) -> float:
        key = _label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _snapshot_locked(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "help": self.help,
            "series": {_format_labels(k) or "": v for k, v in self._values.items()},
        }

    def _render_locked(self) -> List[str]:
        return [
            "%s%s %s" % (self.name, _format_labels(key), _format_value(value))
            for key, value in sorted(self._values.items())
        ]


class Counter(_ValueMetric):
    """Monotonically increasing counter, optionally labelled.

    ``inc()`` is thread-safe; concurrent increments never lose counts
    (verified by the 8-thread hammer in ``tests/obs/test_metrics.py``).
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_ValueMetric):
    """A value that can go up and down (pool sizes, inflight counts)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class _HistogramEntry:
    """One label-keyed series: per-bucket counts (plus ``+Inf``), the
    running sum, and the observation count."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, bucket_count: int) -> None:
        self.counts = [0] * (bucket_count + 1)
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus cumulative rendering.

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    tail.  ``observe`` is one lock + one binary search, independent of
    bucket count.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._series: Dict[Tuple[Tuple[str, str], ...], _HistogramEntry] = {}  # guarded-by: _lock

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        idx = bisect_right(self.buckets, value)
        with self._lock:
            entry = self._series.get(key)
            if entry is None:
                entry = _HistogramEntry(len(self.buckets))
                self._series[key] = entry
            entry.counts[idx] += 1
            entry.total += value
            entry.count += 1

    def count(self, **labels: object) -> int:
        key = _label_key(labels)
        with self._lock:
            entry = self._series.get(key)
            return entry.count if entry else 0

    def total_count(self) -> int:
        """Observations summed over every label set."""
        with self._lock:
            return sum(entry.count for entry in self._series.values())

    def sum(self, **labels: object) -> float:
        key = _label_key(labels)
        with self._lock:
            entry = self._series.get(key)
            return entry.total if entry else 0.0

    def _snapshot_locked(self) -> Dict[str, object]:
        series = {}
        for key, entry in self._series.items():
            cumulative = []
            running = 0
            for c in entry.counts:
                running += c
                cumulative.append(running)
            series[_format_labels(key) or ""] = {
                "buckets": list(self.buckets),
                "cumulative": cumulative,
                "sum": entry.total,
                "count": entry.count,
            }
        return {"type": self.kind, "help": self.help, "series": series}

    def _render_locked(self) -> List[str]:
        lines = []
        for key, entry in sorted(self._series.items()):
            running = 0
            for bound, c in zip(self.buckets, entry.counts):
                running += c
                labels: Dict[str, object] = dict(key)
                labels["le"] = _format_value(bound)
                lines.append("%s_bucket%s %d" % (
                    self.name, _format_labels(_label_key(labels)), running))
            labels = dict(key)
            labels["le"] = "+Inf"
            running += entry.counts[-1]
            lines.append("%s_bucket%s %d" % (
                self.name, _format_labels(_label_key(labels)), running))
            lines.append("%s_sum%s %s" % (
                self.name, _format_labels(key), _format_value(entry.total)))
            lines.append("%s_count%s %d" % (
                self.name, _format_labels(key), entry.count))
        return lines


class MetricsRegistry:
    """Thread-safe collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice
    with the same name returns the same family (a name registered as a
    different kind raises), so modules can grab handles at import time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Metric]" = {}  # guarded-by: _lock

    def _get_or_create(self, cls: Type[_M], name: str, help: str,
                       **kwargs: Any) -> _M:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        "metric %r already registered as %s" % (name, existing.kind))
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def families(self) -> List[_Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time copy of every family (never torn mid-update)."""
        out = {}
        for metric in self.families():
            with metric._lock:
                out[metric.name] = metric._snapshot_locked()
        return out

    def render(self) -> str:
        """Prometheus text exposition format (``text/plain; version=0.0.4``)."""
        lines: List[str] = []
        for metric in self.families():
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def dump_metrics(reg: Optional[MetricsRegistry] = None) -> str:
    """Render a registry (default: the process-wide one) in Prometheus
    text exposition format."""
    return (reg or _REGISTRY).render()
