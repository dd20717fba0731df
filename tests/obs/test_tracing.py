"""Span tracing contracts: nesting, propagation, export, no-op cost."""

from __future__ import annotations

import dataclasses
import pickle
import threading

import pytest

from repro.obs import (
    SpanRecord,
    TraceCollector,
    capture_spans,
    collector,
    current_context,
    export_jsonl,
    format_trace,
    load_jsonl,
    phase_totals,
    remote_capture,
    span,
    trace_tree,
    tracing,
    tracing_enabled,
    use_context,
)
from repro.obs.tracing import _NOOP, _STATE
from repro.parallel import map_in_threads


@pytest.fixture(autouse=True)
def clean_collector():
    collector().clear()
    yield
    collector().clear()


def test_disabled_span_is_shared_noop_singleton():
    assert not tracing_enabled()
    sp = span("anything", key=1)
    assert sp is _NOOP
    assert sp is span("something.else")
    assert not sp.is_recording
    with sp:
        sp.set_attribute("k", "v")   # a no-op
    assert collector().spans() == []


def test_tracing_scope_restores_prior_state():
    assert not tracing_enabled()
    with tracing() as coll:
        assert tracing_enabled()
        assert coll is collector()
        with tracing():
            assert tracing_enabled()
        assert tracing_enabled()  # inner exit restores *its* prior state
    assert not tracing_enabled()


def test_nesting_builds_parent_child_ids():
    with tracing():
        with span("outer", layer="api") as outer:
            assert current_context() == outer.context
            with span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert current_context() is None

    records = {r.name: r for r in collector().drain()}
    assert records["inner"].parent_id == records["outer"].span_id
    assert records["outer"].parent_id is None
    assert records["outer"].attributes == {"layer": "api"}
    # inner closed first, so durations nest.
    assert records["inner"].duration <= records["outer"].duration


def test_sibling_roots_get_distinct_traces():
    with tracing():
        with span("a"):
            pass
        with span("b"):
            pass
    a, b = collector().drain()
    assert a.trace_id != b.trace_id
    assert a.span_id != b.span_id


def test_error_status_recorded_and_exception_propagates():
    with tracing():
        with pytest.raises(ValueError, match="boom"):
            with span("failing") as sp:
                sp.set_attribute("phase", "pre")
                raise ValueError("boom")
    (record,) = collector().drain()
    assert record.status == "error"
    assert "boom" in record.error
    assert record.attributes["phase"] == "pre"


def test_set_attribute_after_entry():
    with tracing():
        with span("solve", n=100) as sp:
            sp.set_attribute("backend", "lanczos")
            sp.set_attribute("iterations", 7)
            sp.set_attribute("converged", True)
    (record,) = collector().drain()
    assert record.attributes == {"n": 100, "backend": "lanczos",
                                 "iterations": 7, "converged": True}


def test_map_in_threads_propagates_trace_context():
    """Fan-out threads continue the caller's trace: every span recorded
    inside the pool shares the root's trace_id and parents on it."""
    def work(i: int) -> int:
        with span("pool.item", index=i):
            return i * i

    with tracing():
        with span("fanout") as root:
            results = map_in_threads(work, list(range(8)), workers=4)
    assert results == [i * i for i in range(8)]

    records = collector().drain()
    items = [r for r in records if r.name == "pool.item"]
    assert len(items) == 8
    assert {r.trace_id for r in items} == {root.trace_id}
    assert {r.parent_id for r in items} == {root.span_id}


def test_use_context_parents_root_spans():
    ctx = ("t" * 16, "s" * 16)
    with tracing():
        with use_context(ctx):
            assert current_context() == ctx
            with span("adopted"):
                pass
        assert current_context() is None
    (record,) = collector().drain()
    assert (record.trace_id, record.parent_id) == ctx


def test_capture_spans_sees_other_threads():
    def work() -> None:
        with span("threaded"):
            pass

    with tracing():
        with capture_spans() as records:
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
            with span("local"):
                pass
    assert sorted(r.name for r in records) == ["local", "threaded"]


def test_remote_capture_enables_adopts_and_restores():
    """The worker-side scope: tracing forced on, the shipped context
    adopted as parent, spans captured — then everything restored."""
    assert not tracing_enabled()
    wire = ("a" * 16, "b" * 16)
    with remote_capture(wire) as captured:
        assert tracing_enabled()
        with span("worker.op"):
            pass
    assert not tracing_enabled()
    (record,) = captured
    assert record.trace_id == "a" * 16
    assert record.parent_id == "b" * 16
    assert current_context() is None


@pytest.mark.parametrize("first", ["outer", "inner"])
def test_capture_scopes_drop_their_own_list_in_any_exit_order(first):
    """Two open scopes' lists are equal while both are empty, so an
    exit must drop its own list by identity: a span lands only in the
    scope still open, and no list outlives its scope."""
    outer, inner = capture_spans(), capture_spans()
    with tracing():
        records = {"outer": outer.__enter__(), "inner": inner.__enter__()}
        closing, staying = ((outer, inner) if first == "outer"
                            else (inner, outer))
        closing.__exit__(None, None, None)
        with span("between"):
            pass
        staying.__exit__(None, None, None)
        with span("after"):
            pass
    last = "inner" if first == "outer" else "outer"
    assert records[first] == []
    assert [r.name for r in records[last]] == ["between"]
    assert _STATE.sinks == []


class _ScopeOnThread:
    """A remote_capture held open on its own thread, as the socket
    server's dispatcher threads hold one per traced request."""

    def __init__(self, wire: tuple) -> None:
        self._entered = threading.Event()
        self._close = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(wire,))
        self._thread.start()
        assert self._entered.wait(5)

    def _run(self, wire: tuple) -> None:
        with remote_capture(wire):
            self._entered.set()
            self._close.wait(5)

    def exit(self) -> None:
        self._close.set()
        self._thread.join(5)
        assert not self._thread.is_alive()


def test_remote_captures_closing_out_of_order_turn_tracing_off():
    """Enter A then B, exit A then B: tracing stays on while B is open
    and is off once both are closed, so later untraced requests record
    nothing."""
    assert not tracing_enabled()
    a = _ScopeOnThread(("a" * 16, "1" * 16))
    b = _ScopeOnThread(("b" * 16, "2" * 16))
    try:
        assert tracing_enabled()
        a.exit()
        assert tracing_enabled()
    finally:
        a.exit()
        b.exit()
    assert not tracing_enabled()
    assert span("untraced") is _NOOP
    assert _STATE.sinks == []


def test_remote_capture_without_context_still_captures():
    with remote_capture(None) as captured:
        with span("orphan"):
            pass
    (record,) = captured
    assert record.parent_id is None


def test_span_record_and_context_pickle_round_trip():
    """The IPC payloads must survive pickling unchanged."""
    record = SpanRecord(trace_id="t", span_id="s", parent_id="p",
                        name="x", start_time=1.0, duration=0.5,
                        attributes={"k": [1, 2]}, status="error",
                        error="ValueError('x')", pid=42)
    assert pickle.loads(pickle.dumps(record)) == record
    ctx = record.context
    assert pickle.loads(pickle.dumps(ctx)) == ctx == ("t", "s")


def test_span_is_its_own_record():
    """An enabled span is one object: the record the collector keeps,
    whose ``(trace_id, span_id)`` is the context a traced request
    ships.  Its pickled state is the ten fields and nothing else."""
    with tracing():
        with span("outer", n=3) as sp:
            assert current_context() == (sp.trace_id, sp.span_id)
            assert current_context() == sp.context
    (record,) = collector().spans()
    assert record is sp
    assert record.duration >= 0.0 and record.pid > 0
    assert sorted(vars(record)) == sorted(
        f.name for f in dataclasses.fields(SpanRecord))
    assert pickle.loads(pickle.dumps(record)) == record


def test_jsonl_round_trip(tmp_path):
    with tracing():
        with span("outer", n=3):
            with span("inner"):
                pass
    records = collector().drain()
    path = tmp_path / "trace.jsonl"
    assert export_jsonl(records, path) == 2
    loaded = load_jsonl(path)
    assert loaded == records


def test_collector_is_bounded_ring():
    coll = TraceCollector(maxlen=4)
    for i in range(10):
        coll.add(SpanRecord(trace_id="t", span_id=str(i), parent_id=None,
                            name="s", start_time=0.0, duration=0.0))
    kept = coll.spans()
    assert [r.span_id for r in kept] == ["6", "7", "8", "9"]
    assert coll.drain() == kept
    assert coll.spans() == []


def test_collector_trace_filter_and_ids():
    coll = TraceCollector()
    for tid in ("a", "b", "a"):
        coll.add(SpanRecord(trace_id=tid, span_id=tid + "1",
                            parent_id=None, name="s", start_time=0.0,
                            duration=0.0))
    assert len(coll.spans(trace_id="a")) == 2


def test_trace_tree_and_format():
    with tracing():
        with span("root", n=9):
            with span("child"):
                pass
    records = collector().drain()
    forests = trace_tree(records)
    ((root, children),) = forests[records[0].trace_id]
    assert root.name == "root"
    assert [c[0].name for c in children] == ["child"]

    text = format_trace(records)
    lines = text.splitlines()
    assert lines[0].startswith("trace ")
    assert "root" in lines[1] and "n=9" in lines[1]
    # The child renders indented one level deeper than the root.
    assert lines[2].startswith("  " + lines[1][:2].strip() or "  ")
    assert "child" in lines[2]


def test_trace_tree_orphan_parent_becomes_root():
    record = SpanRecord(trace_id="t", span_id="s", parent_id="gone",
                        name="orphan", start_time=0.0, duration=0.0)
    ((root, children),) = trace_tree([record])["t"]
    assert root is record and children == []


def test_phase_totals_sums_and_filters():
    def rec(name, duration):
        return SpanRecord(trace_id="t", span_id=name, parent_id=None,
                          name=name, start_time=0.0, duration=duration)

    records = [rec("service.solve", 0.25), rec("service.solve", 0.25),
               rec("api.range", 0.1)]
    totals = phase_totals(records)
    assert totals == {"service.solve": pytest.approx(0.5),
                      "api.range": pytest.approx(0.1)}
    assert phase_totals(records, prefix="service.") == {
        "service.solve": pytest.approx(0.5)}


def test_from_dict_defaults_missing_optional_fields():
    """Regression: sparse dicts (older JSONL schemas) used to land as
    ``None`` attributes/status, breaking every consumer that iterates
    or compares them."""
    record = SpanRecord.from_dict({
        "trace_id": "t1", "span_id": "s1", "name": "solve",
    })
    assert record.attributes == {}
    assert record.status == "ok"
    assert record.parent_id is None
    assert record.error is None
    assert record.start_time == 0.0
    assert record.duration == 0.0
    assert record.pid == 0
    # Still renders and groups like a fully populated record.
    assert "solve" in format_trace([record])
