"""The serving tiers, measured from warm-query's traced run.

An untimed pre-phase fills a cache directory through a process pool.
``python -m repro.serve.cli --listen`` then runs over that directory as
its own process; touching every grid once is a restart-warm start that
must cost zero eigensolves.  One ``RemoteFrontend`` client sends a
seeded closed-loop list of range, nn, warm order and ``query_many``
requests over eight grids that fit every worker cache, with the client
side traced; the server and its workers are observed only through
``metrics()``, ``worker_metrics()`` and ``combined_stats()``.  A shorter
warm list then goes through ``ShardedIndexFrontend``,
``ProcessPoolFrontend`` and ``RemoteFrontend`` in turn (the tier
ladder).  Teardown sends SIGINT, the CLI's documented stop.

Every answer must be bit-identical to an in-process ``SpectralIndex``
answer over the same grid, solved afresh in this process.

No gated workload runs over the socket: on the 2-vCPU virtual machine
this benchmark was built on, the wall time of identical 20-second
socket runs moved by 2.2x from run to run (316-685 requests/s), while
in-process work moved by about 10%.
"""

from __future__ import annotations

import pickle
import signal
import subprocess
import sys
import threading
import time

from common import (histogram_mean_ms, is_permutation, nn_ok, p50_ms,
                    range_ok, same_answer, scrape)
from inputs import SERVING_SHAPES
from tracer import LayerTracer

SHARDS = 2
STOP_TIMEOUT = 60.0   # seconds a stopped server may take to exit


class Server:
    """One ``repro-serve --listen`` process, timed from its launch."""

    def __init__(self, cache) -> None:
        self.launched = time.perf_counter()
        # Unbuffered, so "fleet up" arrives when the CLI prints it.
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.serve.cli", "--listen",
             "127.0.0.1:0", "--shards", str(SHARDS), "--cache-dir",
             str(cache)],
            stdout=subprocess.PIPE, text=True)
        self.spawn_s = None
        self.address = None
        self.teardown_s = None

    def wait_listening(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("fleet up") and self.spawn_s is None:
                self.spawn_s = time.perf_counter() - self.launched
            if line.startswith("listening on "):
                host, port = line.split()[-1].rsplit(":", 1)
                self.address = (host, int(port))
                break
        if self.address is None:
            raise RuntimeError("repro-serve exited before listening")
        # Keep reading so the server never blocks on a full pipe.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    def stop(self) -> None:
        """SIGINT, then wait for the exit (killing it past a timeout)."""
        if self.proc.poll() is None:
            stopped = time.perf_counter()
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT)
                self.teardown_s = time.perf_counter() - stopped
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def _touch(front, grid) -> None:
    front.order_grid(grid)
    front.range(grid, ((0, 0), (3, 3)))
    front.nn(grid, 0, 8)


def _calls(ops, grids):
    """Request tuples -> ``(method, grid, args, kwargs)``, built before
    the clock runs."""
    from repro.api.queries import NNQuery, RangeQuery

    calls = []
    for op in ops:
        grid = grids[op[1]]
        if op[0] == "range":
            calls.append(("range", grid, ((op[3], op[4]),),
                          {"plan": op[2]}))
        elif op[0] == "nn":
            calls.append(("nn", grid, (op[2], op[3]), {}))
        elif op[0] == "order":
            calls.append(("order_grid", grid, (), {}))
        else:
            queries = [RangeQuery(box=(q[2], q[3]), plan=q[1])
                       if q[0] == "range" else NNQuery(cell=q[1], k=q[2])
                       for q in op[2]]
            calls.append(("query_many", grid, (queries,), {}))
    return calls


def _run_pass(front, calls):
    """Send every call and wait for each reply (closed loop); returns
    ``[(seconds, answer)]``."""
    out = []
    for method, grid, args, kwargs in calls:
        start = time.perf_counter()
        try:
            answer = getattr(front, method)(grid, *args, **kwargs)
        except Exception as exc:  # a failed request, not a crash
            answer = exc
        out.append((time.perf_counter() - start, answer))
    return out


class _Checker:
    """Checks served answers against fresh in-process indexes and from
    first principles."""

    def __init__(self, grids) -> None:
        from repro import SpectralIndex

        self.refs = {id(grid): SpectralIndex.build(grid) for grid in grids}
        for ref in self.refs.values():
            ref.ranks
        self.checked = 0
        self.failed = 0

    def verify(self, calls, out):
        """Latencies of the correct answers; counts every answer."""
        latencies = []
        for call, (elapsed, answer) in zip(calls, out):
            self.checked += 1
            if self._check(call, answer):
                latencies.append(elapsed)
            else:
                self.failed += 1
        return latencies

    def _check(self, call, answer) -> bool:
        method, grid, args, kwargs = call
        if isinstance(answer, Exception):
            return False
        ref = self.refs[id(grid)]
        expected = (ref.order if method == "order_grid"
                    else getattr(ref, method)(*args, **kwargs))
        if not same_answer(answer, expected):
            return False
        if method == "order_grid":
            return is_permutation(answer.ranks, grid.size)
        if method == "range":
            return self._range(grid, args[0], kwargs["plan"], answer)
        if method == "nn":
            return self._nn(grid, args[0], args[1], answer)
        return all(
            self._range(grid, (q.box[0], q.box[1]), q.plan, a)
            if hasattr(q, "box") else self._nn(grid, q.cell, q.k, a)
            for q, a in zip(args[0], answer))

    def _range(self, grid, box, plan, execution) -> bool:
        return range_ok(execution, grid.shape, box[0], box[1], plan,
                        self.refs[id(grid)].ranks)

    def _nn(self, grid, cell, k, result) -> bool:
        return nn_ok(result, k, cell, grid.size)


def _ladder(cache, grids, calls, remote, checker):
    """One warm request list through each serving tier in turn."""
    from repro.api.process_pool import ProcessPoolFrontend
    from repro.serve import shard_store_dirs
    from repro.service import ArtifactStore, ShardedIndexFrontend

    dirs = shard_store_dirs(cache, SHARDS)
    sharded = ShardedIndexFrontend(
        shards=SHARDS, stores=[ArtifactStore(dirs[i]) for i in range(SHARDS)])
    p50s = {}
    with ProcessPoolFrontend(shards=SHARDS, cache_dir=str(cache)) as pool:
        for name, front in (("sharded", sharded), ("pool", pool),
                            ("remote", remote)):
            for grid in grids:
                _touch(front, grid)
            p50s[name] = p50_ms(checker.verify(calls,
                                               _run_pass(front, calls)))
    return p50s


def _traced(client, calls, checker):
    """The traced list: client-side wrappers plus the server's and the
    workers' metric deltas."""
    from repro.obs import registry

    trips = registry().get("repro_net_client_roundtrip_seconds")
    # Introspection (metrics, worker metrics, stats) bypasses the
    # server's request histogram, so its delta holds only the traced
    # requests; the client's round-trip totals are read just around them.
    workers0 = client.worker_metrics()
    stats0 = client.combined_stats()
    server0 = client.metrics()
    trips0 = (trips.sum(), trips.count())
    with LayerTracer() as tracer:
        out = _run_pass(client, calls)
    trips1 = (trips.sum(), trips.count())
    server1 = client.metrics()
    workers1 = client.worker_metrics()
    stats1 = client.combined_stats()
    latencies = checker.verify(calls, out)
    records = tracer.records()
    server_ms = histogram_mean_ms([server0], [server1],
                                  "repro_net_request_seconds")
    client_ms = (trips1[0] - trips0[0]) / max(trips1[1] - trips0[1], 1) * 1e3
    sent = records.get("net.send")
    received = records.get("net.recv")
    requests = sent.calls if sent else 0
    # send_frame writes a u32 length prefix and pickle((seq, payload)).
    bytes_out = sum(4 + len(pickle.dumps(pair, pickle.HIGHEST_PROTOCOL))
                    for pair in sent.captured) if sent else 0
    bytes_in = sum(received.captured) if received else 0
    orders = {name: getattr(stats1, name) - getattr(stats0, name)
              for name in ("memory_hits", "disk_hits", "computed",
                           "coalesced")}
    per_layer = {
        "net.server_ms": server_ms,
        "net.transport_ms": client_ms - server_ms,
        "net.bytes_out": bytes_out / requests if requests else 0.0,
        "net.bytes_in": bytes_in / requests if requests else 0.0,
        "serve.worker_query_ms": histogram_mean_ms(
            workers0, workers1, "repro_query_seconds"),
        "query.engine_range_ms": histogram_mean_ms(
            workers0, workers1, "repro_engine_range_seconds"),
        "service.memory_hit_ratio":
            orders["memory_hits"] / max(sum(orders.values()), 1),
    }
    diagnostics = {"serving_p50_ms": p50_ms(latencies),
                   "serving_requests": requests,
                   "serving_order_requests": sum(orders.values())}
    return per_layer, diagnostics


def measure(work, ops, ladder_ops):
    """Per-layer metrics and diagnostics of the serving tiers, plus how
    many answers were checked and how many of them failed."""
    from repro import Grid
    from repro.api.process_pool import ProcessPoolFrontend
    from repro.net import RemoteFrontend

    grids = [Grid(shape) for shape in SERVING_SHAPES]
    cache = work / "serving-cache"
    with ProcessPoolFrontend(shards=SHARDS, cache_dir=str(cache)) as pool:
        pool.order_many([(grid, None) for grid in grids],
                        parallelism=SHARDS)
    checker = _Checker(grids)
    server = Server(cache)
    try:
        server.wait_listening()
        client = RemoteFrontend(*server.address)
        for grid in grids:
            _touch(client, grid)
        setup_s = time.perf_counter() - server.launched
        after_setup = client.combined_stats()
        store_texts = client.worker_metrics()
        checker.checked += 1
        if after_setup.computed != 0:
            checker.failed += 1
        per_layer, diagnostics = _traced(client, _calls(ops, grids),
                                         checker)
        tiers = _ladder(cache, grids, _calls(ladder_ops, grids), client,
                        checker)
        client.close()
    finally:
        server.stop()
    per_layer.update({
        "tier.sharded_p50_ms": tiers["sharded"],
        "tier.pool_p50_ms": tiers["pool"],
        "tier.remote_p50_ms": tiers["remote"],
        "serve.ipc_ms": tiers["pool"] - tiers["sharded"],
        "net.socket_ms": tiers["remote"] - tiers["pool"],
        "serve.spawn_s": server.spawn_s,
        "service.store_load_ms": histogram_mean_ms(
            [], store_texts, "repro_store_seconds", op="load"),
        "service.disk_hits": after_setup.disk_hits,
    })
    diagnostics.update(
        serving_setup_s=setup_s,
        serving_teardown_s=server.teardown_s,
        serving_setup_computed=after_setup.computed,
        serving_store_loads=scrape(store_texts,
                                   "repro_store_seconds_count", op="load"))
    return per_layer, diagnostics, checker.checked, checker.failed
