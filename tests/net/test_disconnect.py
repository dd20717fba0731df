"""Dead clients, dead servers, and peers that never spoke the protocol.

The satellite property: a client that connects, sends a request, and
dies must not wedge the server or leak its dispatcher slot — the
response is discarded, the connection reaped, and
``repro_net_connections_dropped_total`` ticks.
"""

import socket
import threading
import time

import pytest

import repro.net.framing as framing
from repro.geometry.grid import Grid
from repro.net import (
    ConnectionLostError,
    HandshakeError,
    RemoteFrontend,
    SpectralServer,
)
from repro.net.framing import handshake_bytes, recv_exact, send_frame
from repro.net.server import _peer_closed
from repro.obs import registry
from repro.serve.protocol import OrderRequestMessage
from repro.service import ShardedIndexFrontend

from tests.net.gating import GatedFrontend

pytestmark = pytest.mark.net


def _dropped() -> float:
    return registry().counter("repro_net_connections_dropped_total").value()


def test_client_death_mid_request_frees_the_slot():
    gated = GatedFrontend(ShardedIndexFrontend(shards=1))
    dropped_before = _dropped()
    # queue_depth=1, dispatchers=1: if the dead client's slot leaked,
    # the follow-up request could never be admitted.
    with SpectralServer(gated, dispatchers=1, queue_depth=1,
                        request_timeout=60) as server:
        host, port = server.address

        # A raw client that handshakes, sends one order, and dies.
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(handshake_bytes())
        recv_exact(sock, framing.HANDSHAKE_BYTES)
        send_frame(sock, 1, OrderRequestMessage(domain=Grid((21, 3))))
        deadline = time.monotonic() + 20
        while server.pending < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.pending == 1
        sock.close()  # dies with the request executing

        gated.gate.set()
        # The discarded response must release the slot: a healthy
        # client gets served afterwards.
        with RemoteFrontend(host, port, read_timeout=60) as client:
            order = client.order_grid(Grid((21, 4)))
        assert order is not None
        deadline = time.monotonic() + 20
        while _dropped() == dropped_before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _dropped() - dropped_before == 1


def test_peer_closed_sees_a_pending_eof_without_consuming_data():
    # The dispatcher's check before a reply: a peer that closed while
    # its request ran is seen before the send (which would succeed),
    # and a live peer's pending bytes stay for the reader.
    ours, theirs = socket.socketpair()
    try:
        assert not _peer_closed(ours)
        theirs.sendall(b"x")
        assert not _peer_closed(ours)
        assert ours.recv(1) == b"x"
        theirs.close()
        assert _peer_closed(ours)
    finally:
        ours.close()
        theirs.close()


def test_client_reconnects_after_server_drops_connections():
    frontend = ShardedIndexFrontend(shards=1)
    with SpectralServer(frontend, dispatchers=1) as server:
        host, port = server.address
        client = RemoteFrontend(host, port, read_timeout=30,
                                reconnect_attempts=5, backoff_base=0.01)
        try:
            first = client.order_grid(Grid((22, 3)))
            server.disconnect_all()
            # The next call hits a dead socket, reconnects, and succeeds.
            second = client.order_grid(Grid((22, 3)))
            assert first == second
        finally:
            client.close()


def test_idle_close_is_prompt_and_stops_accepting():
    """close() must wake the thread blocked in accept(): closing the
    listener alone does not on Linux, and close() then waited out its
    full drain grace."""
    server = SpectralServer(ShardedIndexFrontend(shards=1),
                            dispatchers=1).start()
    accept_thread = server._accept_thread
    assert accept_thread.is_alive()
    started = time.monotonic()
    server.close()
    assert time.monotonic() - started < 1.0
    assert not accept_thread.is_alive()


def test_client_fails_bounded_after_server_close():
    frontend = ShardedIndexFrontend(shards=1)
    server = SpectralServer(frontend, dispatchers=1).start()
    host, port = server.address
    client = RemoteFrontend(host, port, read_timeout=30,
                            reconnect_attempts=2, backoff_base=0.01)
    server.close()
    started = time.monotonic()
    with pytest.raises((OSError, ConnectionLostError)):
        client.order_grid(Grid((23, 3)))
    # Bounded: a handful of backoffs, not an unbounded retry loop.
    assert time.monotonic() - started < 20
    client.close()


def test_garbage_magic_is_rejected_at_handshake():
    frontend = ShardedIndexFrontend(shards=1)
    rejected = registry().counter("repro_net_handshake_rejected_total")
    before = rejected.value()
    with SpectralServer(frontend) as server:
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(b"GET / HTTP/1.1\r\n")  # an HTTP probe, say
        # The server hangs up without ever trusting a pickle byte
        # (EOF, or RST if our unread bytes were still buffered).
        sock.settimeout(5)
        try:
            assert sock.recv(64) == b""
        except ConnectionResetError:
            pass
        sock.close()
    assert rejected.value() - before == 1


def test_version_mismatch_raises_clean_handshake_error(monkeypatch):
    frontend = ShardedIndexFrontend(shards=1)
    with SpectralServer(frontend) as server:
        host, port = server.address
        monkeypatch.setattr(framing, "NET_PROTOCOL_VERSION",
                            framing.NET_PROTOCOL_VERSION + 1)
        with pytest.raises(HandshakeError) as excinfo:
            RemoteFrontend(host, port)
        # The error names both versions — actionable, not mysterious.
        message = str(excinfo.value)
        assert str(framing.NET_PROTOCOL_VERSION) in message
        assert str(framing.NET_PROTOCOL_VERSION - 1) in message


def test_mismatched_client_is_not_retried(monkeypatch):
    """A handshake mismatch is deterministic; the reconnect loop must
    not spin on it."""
    frontend = ShardedIndexFrontend(shards=1)
    with SpectralServer(frontend) as server:
        host, port = server.address
        monkeypatch.setattr(framing, "NET_PROTOCOL_VERSION", 999)
        started = time.monotonic()
        with pytest.raises(HandshakeError):
            RemoteFrontend(host, port, reconnect_attempts=50,
                           backoff_base=0.5)
        assert time.monotonic() - started < 5


def test_half_open_handshake_times_out_server_side():
    frontend = ShardedIndexFrontend(shards=1)
    with SpectralServer(frontend) as server:
        host, port = server.address
        # Connect but never send the hello: the server must not pin a
        # reader thread on us forever (it times the handshake out).
        sock = socket.create_connection((host, port), timeout=5)
        # A well-behaved client on the same server is unaffected.
        with RemoteFrontend(host, port, read_timeout=30) as client:
            assert client.hello().num_shards == 1
        sock.close()
