"""Trace propagation across the serving IPC boundary.

The synchronous tests drive :meth:`ShardWorker.handle` directly with
:class:`TracedRequest` envelopes — the worker logic including span
capture, without processes.  The ``multiproc``-marked tests then pin
the stitched end-to-end trace through a real
:class:`ProcessPoolFrontend`: one ``trace_id`` from the dispatcher's
span, across the pickle pipe, down to the eigensolver's iteration
counts — spanning two pids.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.spectral import SpectralConfig
from repro.geometry import Grid
from repro.api import NNQuery, RangeQuery
from repro.obs import collector, tracing, tracing_enabled
from repro.serve.protocol import (
    ErrorResponse,
    HealthRequest,
    IndexQueryMessage,
    MetricsRequest,
    OkResponse,
    OrderRequestMessage,
    TracedRequest,
    TracedResponse,
)
from repro.serve.worker import ShardWorker


@pytest.fixture(autouse=True)
def clean_collector():
    collector().clear()
    yield
    collector().clear()


def worker() -> ShardWorker:
    return ShardWorker(0, (0, 1), 2, {})


CTX = ("f" * 16, "d" * 16)
TRACE_ID, SPAN_ID = CTX


def traced(request) -> TracedRequest:
    return TracedRequest(request=request, trace_context=CTX)


def test_traced_request_ships_spans_back():
    response, keep = worker().handle(
        traced(OrderRequestMessage(Grid((6, 6)))))
    assert keep
    assert isinstance(response, TracedResponse)
    assert isinstance(response.response, OkResponse)
    assert response.response.payload.n == 36

    spans = response.spans
    assert spans, "traced request produced no spans"
    # Every worker-side span continues the dispatcher's trace, and the
    # envelope span parents directly on the shipped context.
    assert {r.trace_id for r in spans} == {TRACE_ID}
    envelope = next(r for r in spans if r.name == "serve.worker")
    assert envelope.parent_id == SPAN_ID
    assert envelope.attributes["request"] == "OrderRequestMessage"
    names = {r.name for r in spans}
    assert "service.order" in names
    assert "linalg.solve" in names


def test_traced_request_does_not_leak_tracing_state():
    """The capture scope force-enables tracing for the request only."""
    w = worker()
    assert not tracing_enabled()
    w.handle(traced(OrderRequestMessage(Grid((5, 5)))))
    assert not tracing_enabled()
    # After the capture scope closes, new work records nothing.
    collector().clear()
    w.handle(OrderRequestMessage(Grid((7, 7))))
    assert collector().spans() == []


def test_traced_error_response_still_ships_spans():
    response, keep = worker().handle(
        traced(IndexQueryMessage(Grid((6, 6)), "drop_tables", ())))
    assert keep
    assert isinstance(response, TracedResponse)
    assert isinstance(response.response, ErrorResponse)
    assert response.spans, "error path dropped the spans"
    envelope = next(r for r in response.spans
                    if r.name == "serve.worker")
    assert envelope.attributes["error"] == response.response.kind


def test_untraced_wire_format_is_the_bare_response():
    response, _ = worker().handle(OrderRequestMessage(Grid((6, 6))))
    assert isinstance(response, OkResponse)
    assert not isinstance(response, TracedResponse)


def test_traced_response_pickles_whole():
    """The envelope crosses a real pipe: everything must pickle."""
    response, _ = worker().handle(
        traced(OrderRequestMessage(Grid((6, 6)))))
    clone = pickle.loads(pickle.dumps(response))
    assert clone.spans == response.spans
    assert clone.response.payload == response.response.payload


def test_health_request_reports_stores_and_uptime():
    response, keep = worker().handle(HealthRequest())
    assert keep
    health = response.payload
    assert health.worker_id == 0
    assert health.pid == os.getpid()
    assert health.shard_ids == (0, 1)
    assert health.uptime_seconds >= 0.0
    assert set(health.stores) == {0, 1}


def test_metrics_request_returns_prometheus_text():
    w = worker()
    w.handle(OrderRequestMessage(Grid((6, 6))))
    response, keep = w.handle(MetricsRequest())
    assert keep
    text = response.payload
    assert "# TYPE repro_service_requests_total counter" in text
    for line in text.strip().splitlines():
        if not line.startswith("#"):
            float(line.rsplit(" ", 1)[1])


# ---------------------------------------------------------------------------
# Real processes: the stitched cross-process trace.
# ---------------------------------------------------------------------------


@pytest.mark.multiproc
def test_query_many_yields_one_stitched_trace():
    """The issue's acceptance pin: a single traced
    ``ProcessPoolFrontend.query_many`` produces one trace spanning
    dispatcher -> worker -> service tier -> eigensolver, with the
    solver's iteration counts as span attributes."""
    from repro.api.process_pool import ProcessPoolFrontend

    config = SpectralConfig(backend="lanczos")
    with ProcessPoolFrontend(shards=2,
                             index_defaults={"config": config}) as front:
        grid = Grid((12, 12))
        with tracing():
            collector().clear()
            results = front.query_many(
                grid, [RangeQuery(((1, 1), (5, 5))), NNQuery(10, k=4)])
            records = collector().drain()

    assert len(results) == 2

    # One trace: every span — local and shipped back over the pipe —
    # shares the root's trace_id.
    trace_ids = {r.trace_id for r in records}
    assert len(trace_ids) == 1

    by_name = {}
    for r in records:
        by_name.setdefault(r.name, []).append(r)
    for name in ("pool.index_op", "serve.dispatch", "serve.worker",
                 "api.query_many", "service.order", "service.solve",
                 "linalg.solve"):
        assert name in by_name, f"missing {name} span"

    # The trace crosses the process boundary: dispatcher-side spans
    # carry this pid, worker-side spans a different one.
    here = os.getpid()
    assert by_name["serve.dispatch"][0].pid == here
    worker_span = by_name["serve.worker"][0]
    assert worker_span.pid != here
    # ...and the parent chain stitches across it.
    assert worker_span.parent_id == by_name["serve.dispatch"][0].span_id

    solves = by_name["linalg.solve"]
    assert any(s.attributes.get("backend") == "lanczos" for s in solves)
    lanczos = next(s for s in solves
                   if s.attributes.get("backend") == "lanczos")
    assert lanczos.attributes["restart_cycles"] >= 1
    assert lanczos.attributes["basis_size"] >= 1
    assert lanczos.attributes["residual_history"]


@pytest.mark.multiproc
def test_restarted_worker_still_traces(tmp_path):
    """The crash-retry path keeps the trace: the retried request on the
    replacement worker ships its spans like any other."""
    from repro.api.process_pool import ProcessPoolFrontend

    with ProcessPoolFrontend(shards=1,
                             cache_dir=tmp_path / "fleet") as front:
        grid = Grid((8, 8))
        first = front.order_grid(grid)

        handle = front.fleet._handles[0]
        handle.process.kill()
        handle.process.join()

        with tracing():
            collector().clear()
            again = front.order_grid(grid)
            records = collector().drain()

        assert again == first
        assert front.fleet.stats.worker_restarts == 1
        names = {r.name for r in records}
        assert "serve.dispatch" in names
        assert "serve.worker" in names      # from the replacement
        assert len({r.trace_id for r in records}) == 1
        assert {r.pid for r in records if r.name == "serve.worker"} != {
            os.getpid()}
