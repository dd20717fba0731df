"""The full deployment shape: socket server fronting a process fleet.

Marked both ``net`` and ``multiproc`` — these spawn real worker
processes behind the socket, so they run in the slow CI lane.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core.spectral import SpectralLPM
from repro.geometry.grid import Grid
from repro.geometry.pointset import PointSet
from repro.api.process_pool import ProcessPoolFrontend
from repro.api.queries import NNQuery, RangeQuery
from repro.net import RemoteFrontend, SpectralServer
from repro.obs import registry

from tests.net.gating import GatedFrontend

pytestmark = [pytest.mark.net, pytest.mark.multiproc]


@pytest.fixture()
def pool():
    with ProcessPoolFrontend(shards=2, workers=2) as front:
        yield front


@pytest.fixture()
def fleet_server(pool):
    with SpectralServer(pool, dispatchers=2) as server:
        yield server


@pytest.fixture()
def fleet_remote(fleet_server):
    host, port = fleet_server.address
    with RemoteFrontend(host, port, read_timeout=120) as client:
        yield client


def test_remote_matches_pool_over_grid(fleet_remote, pool):
    grid = Grid((12, 12))
    assert fleet_remote.order_grid(grid) == pool.order_grid(grid)
    queries = [RangeQuery(box=((2, 2), (7, 7))), NNQuery(cell=(4, 4), k=6)]
    got = fleet_remote.query_many(grid, queries)
    want = pool.query_many(grid, queries)
    assert list(got[1].neighbors) == list(want[1].neighbors)


def test_remote_matches_pool_over_pointset(fleet_remote, pool):
    grid = Grid((8, 8))
    points = PointSet(grid, [grid.index_of(p) for p in
                             [(0, 0), (0, 5), (3, 1), (7, 7), (2, 6),
                              (5, 2), (6, 6), (1, 4)]])
    # PointSet indexes serve order-based queries (range needs a Grid).
    queries = [NNQuery(cell=grid.index_of((3, 1)), k=3),
               NNQuery(cell=grid.index_of((6, 6)), k=2)]
    got = fleet_remote.query_many(points, queries)
    want = pool.query_many(points, queries)
    for g, w in zip(got, want):
        assert list(g.neighbors) == list(w.neighbors)


def test_remote_topology_matches_pool(fleet_remote, pool):
    hello = fleet_remote.hello()
    assert hello.num_shards == pool.num_shards
    assert hello.num_workers == pool.num_workers
    grid = Grid((13, 9))
    assert fleet_remote.shard_of(grid) == pool.shard_of(grid)


def test_worker_kill_and_restart_through_the_socket(fleet_remote, pool):
    grid = Grid((11, 7))
    first = fleet_remote.order_grid(grid)
    # Kill a real worker process; the fleet restarts it on the next
    # dispatch, invisibly to the remote client.
    victim = pool.fleet._handles[0]
    victim.process.kill()
    victim.process.join()
    second = fleet_remote.order_grid(grid)
    assert first == second
    health = fleet_remote.health()
    assert health.status == "ok"
    assert len(health.workers) == pool.num_workers


def test_worker_killed_under_a_coalesced_flight(pool):
    """K clients wait on one cold flight whose worker is SIGKILLed
    before the leader dispatches: the fleet restarts the worker and
    retries once, and every waiter gets the one right answer."""
    k = 4
    grid = Grid((13, 10))  # cold: the pool is fresh and memory-only
    gated = GatedFrontend(pool)
    coalesced = registry().counter("repro_net_coalesced_total")
    coalesced_before = coalesced.value()
    with SpectralServer(gated, dispatchers=k) as server:
        host, port = server.address
        results = [None] * k
        errors = []

        def hit(i):
            try:
                with RemoteFrontend(host, port, read_timeout=120) as client:
                    results[i] = client.order_grid(grid)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(k)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        while (server.flight_waiters < k - 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert server.flight_waiters == k - 1, "waiters never piled up"
        # The leader holds the flight inside the gate; kill the worker
        # it is about to dispatch to, then let it go.
        victim = pool.fleet._handles[pool.worker_of(grid)].process
        victim.kill()
        victim.join(timeout=30)
        assert not victim.is_alive()
        gated.gate.set()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)

    assert not errors, errors
    want = SpectralLPM().order_grid(grid)
    assert all(r == want for r in results)
    assert gated.calls == 1
    assert pool.combined_stats().computed == 1
    assert pool.fleet.stats.worker_restarts == 1
    assert pool.fleet.stats.retried_requests == 1
    assert coalesced.value() - coalesced_before == k - 1


def test_worker_metrics_through_the_socket(fleet_remote, pool):
    fleet_remote.order_grid(Grid((10, 6)))
    dumps = fleet_remote.worker_metrics()
    assert len(dumps) == pool.num_workers
    assert all(isinstance(d, str) for d in dumps)


def test_cli_listen_end_to_end(tmp_path):
    """``repro-serve --listen 127.0.0.1:0`` prints its ephemeral port;
    a RemoteFrontend connects, works, and the server dies cleanly."""
    env = dict(os.environ)
    src_dir = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli",
         "--listen", "127.0.0.1:0", "--shards", "2", "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env)
    try:
        port = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                port = int(line.rsplit(":", 1)[1])
                break
        assert port, "server never printed its address"
        with RemoteFrontend("127.0.0.1", port, read_timeout=120) as client:
            order = client.order_grid(Grid((9, 9)))
            assert order.n == 81
            assert client.health().status == "ok"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()
            proc.wait(timeout=30)
