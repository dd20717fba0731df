"""cold-order: distinct domains ordered once each through one service.

Every request misses every cache of a fresh ``OrderingService`` backed
by an ``ArtifactStore``, so the time is in the graph builds, the
eigensolves, the spectral pipeline and the service's miss-and-save
path.
"""

from __future__ import annotations

import time

import numpy as np

from common import (Quality, is_permutation, latency_summary, nn_ok,
                    p50_ms, pass_summary, peak_rss_mb, range_ok, recall,
                    true_knn)
from tracer import LayerTracer


def _materialize(requests):
    """Build the program's input objects before any clock runs."""
    from repro import Grid, PointSet, SpectralConfig
    from repro.service import OrderRequest

    built = []
    for request in requests:
        grid = Grid(request["shape"])
        if request["kind"] == "grid":
            built.append(grid)
        elif request["kind"] == "points":
            built.append(PointSet(grid, request["cells"]))
        else:
            built.append([OrderRequest(grid, SpectralConfig(weight=w))
                          for w in request["weights"]])
    return built


def _execute(service, domain):
    """One request: an index build's ranks, or one order_many batch."""
    from repro import SpectralIndex

    if isinstance(domain, list):
        return service.order_many(domain)
    index = SpectralIndex.build(domain, service=service)
    index.ranks
    return index


def _orders(answer):
    return answer if isinstance(answer, list) else [answer.order]


def _sizes(request):
    count = (len(request["cells"]) if request["kind"] == "points"
             else request["shape"][0] * request["shape"][1])
    return [count] * len(request.get("weights", (None,)))


def _run_pass(service, requests, domains):
    """Order every domain; check each order with the clock stopped.

    ``times`` and ``answers`` align with ``requests`` (``None`` where
    one failed).
    """
    times, answers = [], []
    wall = 0.0
    for request, domain in zip(requests, domains):
        start = time.perf_counter()
        try:
            answer = _execute(service, domain)
        except Exception:  # an error is a failed request, not a crash
            answer = None
        elapsed = time.perf_counter() - start
        wall += elapsed
        if answer is not None and not all(
                is_permutation(order.ranks, n)
                for order, n in zip(_orders(answer), _sizes(request))):
            answer = None
        answers.append(answer)
        times.append(None if answer is None else elapsed)
    return {"times": times, "answers": answers,
            "failed": answers.count(None), "wall": wall}


def _quality(served):
    """Theorem-1 stretch of every order; nn and range probes of every
    single-domain index (batches carry no index)."""
    from repro import Grid
    from repro.graph.builders import grid_graph, induced_grid_graph

    quality = Quality()
    checked = failed = 0
    for request, answer in served:
        shape = request["shape"]
        grid = Grid(shape)
        cells = request.get("cells")
        graph = (induced_grid_graph(grid, cells)[0] if cells is not None
                 else grid_graph(grid))
        for order in _orders(answer):
            quality.add_order(graph, order)
        if request["kind"] == "batch":
            continue
        domain_cells = (np.asarray(cells) if cells is not None
                        else np.arange(grid.size))
        coords = np.stack(np.divmod(domain_cells, shape[1]), axis=1)
        for cell in request["nn_cells"]:
            result = answer.nn(cell, 8)
            checked += 1
            if not nn_ok(result, 8, cell, grid.size, cells):
                failed += 1
                continue
            quality.recalls.append(recall(
                result.neighbors, true_knn(coords, domain_cells, cell, 8)))
        for lo, hi in request["boxes"]:
            execution = answer.range((lo, hi), plan="page-fetch")
            checked += 1
            if not range_ok(execution, shape, lo, hi, "page-fetch",
                            answer.ranks):
                failed += 1
                continue
            quality.add_range(execution)
    return quality.metrics(), checked, failed


def _solve_counts():
    from repro.linalg import solver_invocations
    from repro.obs import registry

    solves = registry().get("repro_linalg_solve_seconds")
    return (solver_invocations(),
            solves.count(backend="dense") if solves else 0,
            solves.count(backend="scipy") if solves else 0)


def _per_layer(records, orders, before, after, store_bytes):
    def ms(label, kind="inclusive"):
        record = records.get(label)
        return getattr(record, kind) / orders * 1e3 if record else 0.0

    return {
        "graph.build_ms": ms("graph.build"),
        "linalg.solve_ms": ms("linalg.solve"),
        "linalg.solves_per_order": (after[0] - before[0]) / orders,
        "linalg.solves_dense": after[1] - before[1],
        "linalg.solves_scipy": after[2] - before[2],
        "core.self_ms": ms("core.order", "self_time"),
        "service.fingerprint_ms": ms("service.fingerprint"),
        "service.store_save_ms": ms("service.store_save"),
        "service.store_bytes": store_bytes / orders,
    }


def run(data, start, opts):
    from repro import ArtifactStore, OrderingService

    warmup, requests = data

    def fresh_service(name):
        return OrderingService(store=ArtifactStore(opts.work / name))

    service = fresh_service("warmup")
    for domain in _materialize(warmup):
        _execute(service, domain)
    setup = time.perf_counter() - start
    if opts.setup_only:
        return {"setup_s": setup}

    # One pass over distinct domains, each a cold solve of tens to
    # hundreds of milliseconds.  Unlike warm-query's short queries, a
    # request this long never fits in a spell of the machine's full
    # speed, so a fastest-of-several-passes latency would only pick
    # whichever pass the drift spared (see README.md).
    domains = _materialize(requests)
    service = fresh_service("store")
    before = _solve_counts()
    timed = _run_pass(service, requests, domains)
    solves = _solve_counts()
    rss = peak_rss_mb()
    summary = latency_summary([t for t in timed["times"] if t is not None],
                              timed["wall"])
    served = [(r, a) for r, a in zip(requests, timed["answers"])
              if a is not None]
    quality, probes, probe_failures = _quality(served)
    orders = sum(len(_orders(a)) for _, a in served)
    failed = timed["failed"] + probe_failures

    def p50(batch):
        return p50_ms(t for t, r in zip(timed["times"], requests)
                      if t is not None and (r["kind"] == "batch") == batch)

    result = {
        "setup_s": setup,
        "attempted": len(requests) + probes,
        "failed": failed,
        "correct": failed == 0,
        "metrics": {
            "ops_per_s": summary["ops_per_s"],
            "latency_p50_ms": summary["latency_p50_ms"],
            "latency_tail_ms": summary["latency_tail_ms"],
            "rss_peak_mb": rss,
            **quality,
        },
        "single_pass": pass_summary([timed]),
        "diagnostics": {
            "tail_percentile": summary["tail_percentile"],
            "samples": summary["samples"],
            "orders": orders,
            "order_p50_ms": p50(False),
            "batch_p50_ms": p50(True),
            "solver_invocations": solves[0] - before[0],
            "solves_dense": solves[1] - before[1],
            "solves_scipy": solves[2] - before[2],
            "probes": probes,
        },
    }
    if opts.trace:
        traced_service = fresh_service("traced")
        before = _solve_counts()
        with LayerTracer() as tracer:
            traced = _run_pass(traced_service, requests, domains)
        after = _solve_counts()
        traced_orders = sum(len(_orders(a)) for a in traced["answers"]
                            if a is not None)
        result["per_layer"] = _per_layer(
            tracer.records(), traced_orders, before, after,
            traced_service.store.total_bytes())
        result["traced"] = pass_summary([traced])
        result["attempted"] += len(requests)
        result["failed"] += traced["failed"]
        result["correct"] = result["correct"] and traced["failed"] == 0
    return result
