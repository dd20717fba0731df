"""Admission control: overload is a typed value, never a hang."""

import threading
import time

import pytest

from repro.geometry.grid import Grid
from repro.net import RemoteFrontend, ServerBusy, SpectralServer
from repro.obs import registry
from repro.service import ShardedIndexFrontend

from tests.net.gating import GatedFrontend

pytestmark = pytest.mark.net


def _saturate(server, gated, grids):
    """Start one blocked leader + queued requests; returns the threads."""
    host, port = server.address
    threads = []
    for grid in grids:
        client = RemoteFrontend(host, port, read_timeout=60)

        def hit(c=client, g=grid):
            try:
                c.order_grid(g)
            finally:
                c.close()

        thread = threading.Thread(target=hit)
        thread.start()
        threads.append(thread)
    return threads


def test_full_queue_rejects_with_queue_full():
    gated = GatedFrontend(ShardedIndexFrontend(shards=1))
    with SpectralServer(gated, dispatchers=1, queue_depth=1,
                        request_timeout=60) as server:
        host, port = server.address
        # Distinct grids: coalescing must not absorb the overflow.
        threads = _saturate(server, gated,
                            [Grid((16, 3)), Grid((16, 4))])
        deadline = time.monotonic() + 20
        while server.pending < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.pending == 2
        with RemoteFrontend(host, port, read_timeout=60) as client:
            with pytest.raises(ServerBusy) as excinfo:
                client.order_grid(Grid((16, 5)))
            assert excinfo.value.reason == "queue_full"
            # Introspection still answers while the queue is full —
            # that's the point of bypassing admission.
            assert client.health().status == "ok"
        gated.gate.set()
        for t in threads:
            t.join(timeout=60)


def test_stale_queued_request_rejects_with_deadline():
    gated = GatedFrontend(ShardedIndexFrontend(shards=1))
    with SpectralServer(gated, dispatchers=1, queue_depth=4,
                        request_timeout=0.2) as server:
        host, port = server.address
        threads = _saturate(server, gated, [Grid((17, 3))])
        deadline = time.monotonic() + 20
        while server.pending < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        with RemoteFrontend(host, port, read_timeout=60) as client:
            caught = []

            def late():
                try:
                    client.order_grid(Grid((17, 4)))
                except ServerBusy as exc:
                    caught.append(exc)

            thread = threading.Thread(target=late)
            thread.start()
            # Let the queued request age past its 0.2s deadline before
            # the dispatcher frees up.
            time.sleep(0.5)
            gated.gate.set()
            thread.join(timeout=60)
            for t in threads:
                t.join(timeout=60)
            assert len(caught) == 1
            assert caught[0].reason == "deadline"


def test_coalesced_wait_past_deadline_counts_as_rejection():
    """A request still waiting on another connection's in-flight order
    at its deadline is refused like a stale queued one: the same reply,
    counted as a rejection, not as a handled request."""
    gated = GatedFrontend(ShardedIndexFrontend(shards=1))
    grid = Grid((17, 5))
    rejected = registry().counter("repro_net_rejected_total")
    with SpectralServer(gated, dispatchers=2, queue_depth=4,
                        request_timeout=0.5) as server:
        host, port = server.address
        threads = _saturate(server, gated, [grid])
        deadline = time.monotonic() + 20
        while gated.calls < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gated.calls == 1, "the leader never reached the backend"
        with RemoteFrontend(host, port, read_timeout=60) as client:
            before = client.health()
            rejected_before = rejected.value(reason="deadline")
            with pytest.raises(ServerBusy) as excinfo:
                client.order_grid(grid)
            after = client.health()
        gated.gate.set()
        for t in threads:
            t.join(timeout=60)
    assert excinfo.value.reason == "deadline"
    assert "in flight" in str(excinfo.value)
    assert rejected.value(reason="deadline") - rejected_before == 1
    assert after.rejections - before.rejections == 1
    # The first health() call is the only request handled in between.
    assert after.requests_handled - before.requests_handled == 1


def test_draining_server_rejects_new_work():
    frontend = ShardedIndexFrontend(shards=1)
    server = SpectralServer(frontend, dispatchers=1).start()
    host, port = server.address
    client = RemoteFrontend(host, port, read_timeout=30)
    try:
        client.order_grid(Grid((18, 3)))
        server._draining = True  # drain begins; connection still open
        with pytest.raises(ServerBusy) as excinfo:
            client.order_grid(Grid((18, 4)))
        assert excinfo.value.reason == "draining"
    finally:
        client.close()
        server.close()


def test_graceful_drain_delivers_inflight_response():
    gated = GatedFrontend(ShardedIndexFrontend(shards=1))
    with SpectralServer(gated, dispatchers=1) as server:
        host, port = server.address
        client = RemoteFrontend(host, port, read_timeout=60)
        result = []

        def hit():
            result.append(client.order_grid(Grid((19, 3))))

        thread = threading.Thread(target=hit)
        thread.start()
        deadline = time.monotonic() + 20
        while server.pending < 1 and time.monotonic() < deadline:
            time.sleep(0.01)

        # Release the solve just after close() starts draining.
        def release():
            time.sleep(0.2)
            gated.gate.set()

        releaser = threading.Thread(target=release)
        releaser.start()
        server.close()  # must wait for the in-flight answer to flush
        thread.join(timeout=60)
        releaser.join(timeout=60)
        client.close()
        assert len(result) == 1  # the response made it out before teardown
