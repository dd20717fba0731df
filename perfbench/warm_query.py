"""warm-query: one thread streams range, nn and join queries at one
128x128 index whose buffer pool is smaller than the pages the stream
touches.  The order is solved during set-up, so the timed stream pays
zero eigensolves: its time is in the facade, the query engine, the
B+-tree, the page layout and the buffer pool.  Its traced run also
measures the serving tiers (``serving.py``).
"""

from __future__ import annotations

import time

import numpy as np

from common import (Quality, best_of, join_pairs, latency_summary, nn_ok,
                    p50_ms, pass_summary, peak_rss_mb, range_ok, recall,
                    true_knn)
import serving
from inputs import (WARM_JOIN_EPSILON, WARM_JOIN_WINDOW, WARM_PASSES,
                    WARM_SHAPE)
from tracer import LayerTracer

BUFFER_PAGES = 256   # of 1,024 pages; the stream touches all of them
SEGMENT = 256        # answers are checked after every segment


def _execute(index, op):
    if op[0] == "range":
        return index.range((op[2], op[3]), plan=op[1])
    if op[0] == "nn":
        return index.nn(op[1], op[2])
    return index.join(op[1], op[2], epsilon=WARM_JOIN_EPSILON,
                      window=WARM_JOIN_WINDOW)


class _Tally:
    """Checks answers and keeps the exact per-answer counts."""

    def __init__(self, ranks) -> None:
        self.ranks = ranks
        self.cells = np.arange(len(ranks))
        self.coords = np.stack(np.divmod(self.cells, WARM_SHAPE[1]), axis=1)
        self.quality = Quality()
        self.span_nodes = 0
        self.span_results = 0
        self.nn_candidates_per_k = []
        self.join_ratios = []

    def check(self, op, answer) -> bool:
        if op[0] == "range":
            plan, lo, hi = op[1:]
            if not range_ok(answer, WARM_SHAPE, lo, hi, plan, self.ranks):
                return False
            self.quality.add_range(answer)
            if plan == "span-scan":
                self.span_nodes += answer.index_node_accesses
                self.span_results += len(answer.results)
            return True
        if op[0] == "nn":
            cell, k = op[1:]
            if not nn_ok(answer, k, cell, len(self.ranks)):
                return False
            self.quality.recalls.append(recall(
                answer.neighbors, true_knn(self.coords, self.cells, cell, k)))
            self.nn_candidates_per_k.append(answer.candidates / k)
            return True
        if answer.true_pairs != join_pairs(WARM_SHAPE, op[1], op[2],
                                           WARM_JOIN_EPSILON):
            return False
        self.join_ratios.append(answer.candidate_ratio)
        return True


def _run_pass(index, ops, tally):
    """Run ``ops`` in segments; check each segment with the clock
    stopped, so checking never counts as serving time.  ``times``
    aligns with ``ops`` (``None`` where a query failed)."""
    times = []
    wall = 0.0
    for base in range(0, len(ops), SEGMENT):
        chunk = ops[base:base + SEGMENT]
        answers = []
        segment_start = time.perf_counter()
        for op in chunk:
            start = time.perf_counter()
            try:
                answer = _execute(index, op)
            except Exception:  # an error is a failed query, not a crash
                answer = None
            answers.append((time.perf_counter() - start, answer))
        wall += time.perf_counter() - segment_start
        for op, (elapsed, answer) in zip(chunk, answers):
            ok = answer is not None and tally.check(op, answer)
            times.append(elapsed if ok else None)
    return {"times": times, "failed": times.count(None), "wall": wall}


def _per_layer(records, ops, tally, buffer_before, buffer_after):
    counts = {"ops": len(ops)}
    for op in ops:
        counts[op[0]] = counts.get(op[0], 0) + 1
    counts["span"] = sum(1 for op in ops
                         if op[0] == "range" and op[1] == "span-scan")

    def ms(label, per, kind="inclusive"):
        record = records.get(label)
        n = counts.get(per, 0)
        return getattr(record, kind) / n * 1e3 if record and n else 0.0

    search = records.get("index.search")
    accesses = buffer_after.accesses - buffer_before.accesses
    return {
        "api.self_ms": ms("api.query", "ops", "self_time"),
        "query.range_self_ms": ms("query.range", "range", "self_time"),
        "geometry.cells_ms": ms("geometry.cells", "range"),
        "index.search_ms": ms("index.search", "span"),
        "index.nodes_per_range": tally.span_nodes / max(counts["span"], 1),
        "storage.pages_ms": ms("storage.pages", "range"),
        "storage.buffer_ms": ms("storage.buffer", "range"),
        "storage.buffer_hit_ratio":
            (buffer_after.hits - buffer_before.hits) / max(accesses, 1),
        "query.scan_waste":
            (sum(search.captured) if search else 0)
            / max(tally.span_results, 1),
        "query.nn_window_ms": ms("query.nn_window", "nn"),
        "query.nn_candidates_per_k":
            float(np.mean(tally.nn_candidates_per_k or [0.0])),
        "query.join_truth_ms": ms("query.join_truth", "join"),
        "query.join_window_ms": ms("query.join_window", "join"),
        "query.join_candidate_ratio":
            float(np.mean(tally.join_ratios or [0.0])),
        "obs.observe_ms": ms("obs.observe", "ops"),
    }, {"buffer_accesses": accesses, "span_scans": counts["span"],
        "span_results": tally.span_results}


def run(data, start, opts):
    from repro import Grid, SpectralIndex
    from repro.graph.builders import grid_graph

    warmup, ops, (serving_ops, ladder_ops) = data
    grid = Grid(WARM_SHAPE)
    index = SpectralIndex.build(grid, buffer_capacity=BUFFER_PAGES)
    ranks = index.ranks
    for op in warmup:
        _execute(index, op)
    setup = time.perf_counter() - start
    if opts.setup_only:
        return {"setup_s": setup}

    # The stream runs WARM_PASSES times, every answer checked each time;
    # each query's fastest run is its latency (see common.best_of).
    tallies = [_Tally(ranks) for _ in range(WARM_PASSES)]
    passes = [_run_pass(index, ops, tally) for tally in tallies]
    rss = peak_rss_mb()
    best = best_of([p["times"] for p in passes])
    summary = latency_summary([t for t in best if t is not None])
    failed = sum(p["failed"] for p in passes)
    quality = tallies[0].quality
    quality.add_order(grid_graph(grid), index.order)

    def p50(kind):
        return p50_ms(t for t, op in zip(best, ops)
                      if t is not None and op[0] == kind)

    result = {
        "setup_s": setup,
        "attempted": len(ops) * WARM_PASSES,
        "failed": failed,
        "correct": failed == 0,
        "metrics": {
            "ops_per_s": summary["ops_per_s"],
            "latency_p50_ms": summary["latency_p50_ms"],
            "latency_tail_ms": summary["latency_tail_ms"],
            "rss_peak_mb": rss,
            **quality.metrics(),
        },
        "single_pass": pass_summary(passes),
        "diagnostics": {
            "tail_percentile": summary["tail_percentile"],
            "samples": summary["samples"],
            "passes": WARM_PASSES,
            "pass_ops_per_s": [
                (len(ops) - p["failed"]) / p["wall"] for p in passes],
            "range_p50_ms": p50("range"),
            "nn_p50_ms": p50("nn"),
            "join_p50_ms": p50("join"),
        },
    }
    if opts.trace:
        traced_tally = _Tally(ranks)
        buffer_before = index.buffer_stats()
        with LayerTracer() as tracer:
            traced = _run_pass(index, ops, traced_tally)
        result["per_layer"], bases = _per_layer(
            tracer.records(), ops, traced_tally, buffer_before,
            index.buffer_stats())
        result["diagnostics"].update(bases)
        result["traced"] = pass_summary([traced])
        layers, diagnostics, checked, failed = serving.measure(
            opts.work, serving_ops, ladder_ops)
        result["per_layer"].update(layers)
        result["diagnostics"].update(diagnostics)
        result["attempted"] += len(ops) + checked
        result["failed"] += traced["failed"] + failed
        result["correct"] = result["failed"] == 0
    return result
