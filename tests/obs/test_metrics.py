"""MetricsRegistry contracts: exactness, atomicity, Prometheus text."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    dump_metrics,
    registry,
)


def test_counter_exact_under_thread_hammer():
    """8 threads x 1000 increments lose nothing and tear nothing."""
    reg = MetricsRegistry()
    counter = reg.counter("hits_total", "test counter")
    threads = 8
    per_thread = 1000
    barrier = threading.Barrier(threads)

    def hammer(i: int) -> None:
        barrier.wait()
        for _ in range(per_thread):
            counter.inc()
            counter.inc(2.0, shard=str(i % 2))

    pool = [threading.Thread(target=hammer, args=(i,))
            for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()

    snap = reg.snapshot()["hits_total"]
    assert snap["type"] == "counter"
    assert snap["series"][""] == threads * per_thread
    assert snap["series"]['{shard="0"}'] == 2.0 * 4 * per_thread
    assert snap["series"]['{shard="1"}'] == 2.0 * 4 * per_thread


def test_histogram_exact_under_thread_hammer():
    reg = MetricsRegistry()
    hist = reg.histogram("lat_seconds", "test histogram",
                         buckets=(0.1, 1.0))
    threads = 8
    per_thread = 500
    barrier = threading.Barrier(threads)

    def hammer() -> None:
        barrier.wait()
        for i in range(per_thread):
            hist.observe(0.05 if i % 2 else 0.5)

    pool = [threading.Thread(target=hammer) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()

    series = reg.snapshot()["lat_seconds"]["series"][""]
    assert series["count"] == threads * per_thread
    # Cumulative per-bucket counts: <= 0.1, <= 1.0, <= +Inf.
    assert series["cumulative"] == [
        threads * per_thread // 2,
        threads * per_thread,
        threads * per_thread,
    ]
    assert series["sum"] == pytest.approx(
        threads * (250 * 0.05 + 250 * 0.5))
    assert hist.count() == threads * per_thread
    assert hist.sum() == pytest.approx(series["sum"])


def test_counter_rejects_negative_and_gauge_moves_both_ways():
    reg = MetricsRegistry()
    counter = reg.counter("ops_total", "counter")
    with pytest.raises(ValueError):
        counter.inc(-1.0)
    gauge = reg.gauge("depth", "gauge")
    gauge.set(5.0)
    gauge.inc(-2.0)
    gauge.inc(1.0)
    assert gauge.value() == 4.0
    assert reg.snapshot()["depth"]["series"][""] == 4.0


def test_get_or_create_and_kind_mismatch():
    reg = MetricsRegistry()
    a = reg.counter("x_total", "x")
    assert reg.counter("x_total", "x") is a
    with pytest.raises(ValueError):
        reg.gauge("x_total", "x")
    with pytest.raises(ValueError):
        reg.histogram("x_total", "x")


def test_prometheus_render_format():
    """The dump parses as Prometheus text: HELP/TYPE headers, label
    rendering, cumulative buckets, sum and count lines."""
    reg = MetricsRegistry()
    counter = reg.counter("req_total", "requests served")
    counter.inc(3.0, outcome="memory")
    counter.inc(1.0)
    hist = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(2.0)

    text = reg.render()
    lines = text.strip().splitlines()
    assert "# HELP req_total requests served" in lines
    assert "# TYPE req_total counter" in lines
    assert "# TYPE lat_seconds histogram" in lines
    assert 'req_total{outcome="memory"} 3' in text
    assert "req_total 1" in text
    # Cumulative buckets: each le-line includes everything below it,
    # +Inf equals the count.
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert "lat_seconds_count 3" in text
    assert any(line.startswith("lat_seconds_sum ") for line in lines)
    # Every non-comment line is "name{labels} value" with a float value.
    for line in lines:
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        assert name
        float(value)


def test_process_registry_is_shared_and_dumpable():
    assert registry() is registry()
    text = dump_metrics()
    assert "# HELP" in text
    # The instrumented layers register their families at import time.
    assert "repro_service_requests_total" in text
    assert "repro_linalg_solve_seconds" in text


def test_default_buckets_ascend():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
        DEFAULT_LATENCY_BUCKETS)
    assert len(set(DEFAULT_LATENCY_BUCKETS)) == len(
        DEFAULT_LATENCY_BUCKETS)


def test_default_buckets_resolve_the_first_100_microseconds():
    # Warm queries and cache hits finish in tens of microseconds; a
    # default histogram must tell them apart.
    reg = MetricsRegistry()
    hist = reg.histogram("warm_seconds")
    hist.observe(20e-6)
    hist.observe(90e-6)
    series = reg.snapshot()["warm_seconds"]["series"][""]
    per_bucket = [b - a for a, b in zip([0] + series["cumulative"],
                                        series["cumulative"])]
    filled = [bound for bound, n in zip(series["buckets"], per_bucket)
              if n]
    assert filled == [0.000025, 0.0001]
