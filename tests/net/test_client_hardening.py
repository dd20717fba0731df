"""Client failure-path hardening: regression tests for two latent
bugs the strict-typing pass surfaced.

* A ``FrameError`` mid-response used to leave the (desynchronized)
  socket installed, so the *next* request would read this response's
  leftover bytes as its own reply.
* Calling a closed client used to spin through the full
  reconnect-backoff schedule against a deterministic failure before
  surfacing ``ConnectionLostError``.

It also pins the case of a server that dies mid-reply: the client
raises a typed error or, when it may reconnect, returns the reply to
the request it re-sent, never the bytes of another request's reply.
"""

import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.ordering import LinearOrder
from repro.geometry.grid import Grid
from repro.net import ConnectionLostError, FrameError, RemoteFrontend
from repro.net.framing import (
    HANDSHAKE_BYTES,
    NET_PROTOCOL_VERSION,
    handshake_bytes,
    recv_exact,
    recv_frame,
    send_frame,
)
from repro.net.messages import ServerHello
from repro.serve.protocol import OkResponse

pytestmark = pytest.mark.net


class _RogueServer:
    """Answers the construction ping correctly, then replies to the
    next request with a frame whose body does not unpickle."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        try:
            recv_exact(conn, HANDSHAKE_BYTES)
            conn.sendall(handshake_bytes())
            seq, _ = recv_frame(conn)  # the construction ping
            hello = ServerHello(
                net_protocol_version=NET_PROTOCOL_VERSION,
                serve_protocol_version=0, num_shards=1, num_workers=1,
                pid=0)
            send_frame(conn, seq, OkResponse(payload=hello))
            recv_frame(conn)  # the request under test
            body = b"\x00this is not a pickle"
            conn.sendall(struct.pack(">I", len(body)) + body)
            conn.recv(1)  # hold the connection until the client reacts
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self._listener.close()


def test_malformed_frame_drops_the_desynchronized_socket():
    rogue = _RogueServer()
    host, port = rogue.address
    client = RemoteFrontend(host, port, read_timeout=10,
                            reconnect_attempts=0)
    try:
        with pytest.raises(FrameError):
            client.order_grid(Grid((24, 3)))
        # The stream is desynchronized past the bad frame; keeping the
        # socket would feed its leftovers to the next request.
        assert client._sock is None
    finally:
        client.close()
        rogue.close()


def test_closed_client_fails_fast_not_through_backoff(server):
    host, port = server.address
    client = RemoteFrontend(host, port, read_timeout=30,
                            reconnect_attempts=50, backoff_base=0.5)
    client.close()
    started = time.monotonic()
    with pytest.raises(ConnectionLostError, match="closed"):
        client.order_grid(Grid((24, 4)))
    # Deterministic failure: no walk through 50 backoff sleeps.
    assert time.monotonic() - started < 5


def _hello():
    return ServerHello(net_protocol_version=NET_PROTOCOL_VERSION,
                       serve_protocol_version=0, num_shards=1,
                       num_workers=1, pid=0)


def _frame_bytes(seq, payload):
    body = pickle.dumps((seq, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack(">I", len(body)) + body


class _DiesMidReply:
    """Answers the construction ping, reads the next request, sends the
    first half of a valid reply frame and closes.  With
    ``answer_reconnect`` it then accepts the client's reconnect, reads
    the re-sent request, and sends a frame under the first request's
    sequence number before the reply to the re-sent one."""

    def __init__(self, answer_reconnect):
        self._answer_reconnect = answer_reconnect
        self.stale = LinearOrder(np.arange(12)[::-1])
        self.fresh = LinearOrder(np.arange(12))
        self.requests = []  # (seq, message), as received
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(2)
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _accept(self):
        conn, _ = self._listener.accept()
        recv_exact(conn, HANDSHAKE_BYTES)
        conn.sendall(handshake_bytes())
        return conn

    def _serve(self):
        try:
            with self._accept() as conn:
                seq, _ = recv_frame(conn)  # the construction ping
                send_frame(conn, seq, OkResponse(payload=_hello()))
                self.requests.append(recv_frame(conn))
                frame = _frame_bytes(self.requests[0][0],
                                     OkResponse(payload=self.stale))
                conn.sendall(frame[:len(frame) // 2])
            if not self._answer_reconnect:
                return
            with self._accept() as conn:
                self.requests.append(recv_frame(conn))
                first_seq, resent_seq = (seq for seq, _ in self.requests)
                send_frame(conn, first_seq, OkResponse(payload=self.stale))
                send_frame(conn, resent_seq, OkResponse(payload=self.fresh))
                conn.recv(1)  # hold the connection until the client closes
        except OSError:
            pass

    def close(self):
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


def test_server_dying_mid_reply_raises_and_drops_the_socket():
    rogue = _DiesMidReply(answer_reconnect=False)
    client = RemoteFrontend(*rogue.address, read_timeout=10,
                            reconnect_attempts=0)
    try:
        with pytest.raises(ConnectionLostError):
            client.order_grid(Grid((12, 1)))
        assert client._sock is None
    finally:
        client.close()
        rogue.close()


def test_reconnect_after_a_mid_reply_death_returns_the_resent_reply():
    rogue = _DiesMidReply(answer_reconnect=True)
    client = RemoteFrontend(*rogue.address, read_timeout=10,
                            reconnect_attempts=1, backoff_base=0.01)
    try:
        order = client.order_grid(Grid((12, 1)))
        # The re-sent request, under a new sequence number; the frame
        # still carrying the first one is skipped.
        (first_seq, first), (resent_seq, resent) = rogue.requests
        assert resent == first and resent_seq == first_seq + 1
        assert np.array_equal(order.permutation, rogue.fresh.permutation)
    finally:
        client.close()
        rogue.close()
