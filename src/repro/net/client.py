"""``RemoteFrontend`` — the socket transport of the serving surface.

The surface itself (:class:`~repro.serve.frontend.MessageFrontend`) is
shared with :class:`~repro.api.ProcessPoolFrontend`; this module
supplies the connection behind its ``_call``.  Server-side failures
re-raise here as their original types, and results are bit-identical —
the server runs the same service code, so
``remote.query_many(...) == local.query_many(...)`` holds element for
element.

One persistent connection per frontend, created eagerly so
misconfiguration fails at construction, not first use.  Transport
failures (server restart, dropped connection) are retried through a
bounded reconnect-with-backoff loop; a read timeout raises
:class:`~repro.net.errors.RequestTimeoutError` *without* retrying,
because the request may still be executing server-side and blind
resends would double the work.  A protocol-version mismatch raises
:class:`~repro.net.errors.HandshakeError` immediately — deterministic
failures are not retried.

Instances are not thread-safe per call — they serialize concurrent
calls over the single connection with an internal lock, which is
correct but unpipelined; concurrent *clients* (one ``RemoteFrontend``
per thread) are how the tests drive cross-client coalescing.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, List, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.net.errors import (
    ConnectionLostError,
    FrameError,
    HandshakeError,
    RequestTimeoutError,
)
from repro.net.framing import (
    HANDSHAKE_BYTES,
    NET_PROTOCOL_VERSION,
    handshake_bytes,
    parse_handshake,
    recv_exact,
    recv_frame,
    send_frame,
)
from repro.net.messages import ServerHealth, ServerHello, WorkerMetricsRequest
from repro.obs import registry, span, tracing_enabled
from repro.obs.tracing import current_context
from repro.serve.frontend import MessageFrontend
from repro.serve.protocol import (
    HealthRequest,
    MetricsRequest,
    PingRequest,
    StatsRequest,
    TracedRequest,
    unwrap_response,
)

_ROUNDTRIP_SECONDS = registry().histogram(
    "repro_net_client_roundtrip_seconds",
    "Client-observed latency of one remote request, send to reply.")
_RECONNECTS = registry().counter(
    "repro_net_client_reconnects_total",
    "Times the client rebuilt its connection after a transport failure.")


def _connect(host: str, port: int, connect_timeout: float,
             read_timeout: Optional[float]) -> Tuple[socket.socket,
                                                     Optional[int]]:
    """Dial, handshake, and return ``(socket, server_version)``.

    The returned version is what the server claimed; the caller decides
    whether a mismatch is fatal (it is).
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - best effort
        pass
    try:
        sock.sendall(handshake_bytes())
        server_version = parse_handshake(
            recv_exact(sock, HANDSHAKE_BYTES))
        sock.settimeout(read_timeout)
        return sock, server_version
    except BaseException:
        sock.close()
        raise


class RemoteFrontend(MessageFrontend):
    """Client to a :class:`~repro.net.server.SpectralServer`.

    Parameters
    ----------
    host, port:
        Where the server listens (``SpectralServer.address``, or the
        ``listening on HOST:PORT`` line ``repro-serve --listen``
        prints).
    connect_timeout:
        Seconds allowed for each TCP connect + handshake.
    read_timeout:
        Seconds to wait for any single response before raising
        :class:`RequestTimeoutError`.  Must comfortably exceed the
        slowest expected cold solve.
    reconnect_attempts:
        Transport-failure retries per request (connect and send/recv
        combined) before the failure propagates.
    backoff_base, backoff_max:
        Exponential backoff between reconnect attempts:
        ``min(backoff_max, backoff_base * 2**attempt)`` seconds.

    Examples
    --------
    >>> with RemoteFrontend("127.0.0.1", 45301) as remote:  # doctest: +SKIP
    ...     order = remote.order_grid(Grid(16, 16))
    """

    def __init__(self, host: str, port: int, *,
                 connect_timeout: float = 5.0,
                 read_timeout: float = 60.0,
                 reconnect_attempts: int = 3,
                 backoff_base: float = 0.05,
                 backoff_max: float = 2.0) -> None:
        if connect_timeout <= 0:
            raise InvalidParameterError(
                f"connect_timeout must be > 0, got {connect_timeout}")
        if read_timeout <= 0:
            raise InvalidParameterError(
                f"read_timeout must be > 0, got {read_timeout}")
        if reconnect_attempts < 0:
            raise InvalidParameterError(
                f"reconnect_attempts must be >= 0, "
                f"got {reconnect_attempts}")
        self._host = host
        self._port = int(port)
        self._connect_timeout = float(connect_timeout)
        self._read_timeout = float(read_timeout)
        self._reconnect_attempts = int(reconnect_attempts)
        self._backoff_base = float(backoff_base)
        self._backoff_max = float(backoff_max)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None  # guarded-by: _lock
        self._seq = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        with self._lock:
            self._ensure_connected_locked()
        self._hello: ServerHello = self._call(PingRequest())

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _ensure_connected_locked(self) -> socket.socket:
        """Dial + handshake under ``self._lock``; returns the live
        socket so callers never touch the ``Optional`` field."""
        if self._sock is not None:
            return self._sock
        if self._closed:
            raise ConnectionLostError("this RemoteFrontend is closed")
        sock, server_version = _connect(
            self._host, self._port, self._connect_timeout,
            self._read_timeout)
        if server_version != NET_PROTOCOL_VERSION:
            sock.close()
            raise HandshakeError(
                f"server at {self._host}:{self._port} speaks protocol "
                f"version {server_version}, this client speaks "
                f"{NET_PROTOCOL_VERSION}")
        self._sock = sock
        return sock

    def _drop_socket_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _roundtrip(self, message: Any) -> Any:
        """Send one request and read its response, reconnecting on
        transport failure; returns the raw response payload."""
        with self._lock:
            attempt = 0
            while True:
                if self._closed:
                    # Deterministic failure: retrying a closed client
                    # would just burn the full backoff schedule.
                    raise ConnectionLostError(
                        "this RemoteFrontend is closed")
                try:
                    sock = self._ensure_connected_locked()
                    self._seq += 1
                    seq = self._seq
                    send_frame(sock, seq, message)
                    while True:
                        got_seq, payload = recv_frame(sock)
                        if got_seq == seq:
                            return payload
                        # A response to a request whose reply we gave
                        # up on (never in the current strict
                        # send-then-receive discipline, but harmless to
                        # skip rather than corrupt the stream).
                except socket.timeout:
                    # The request may still be running server-side;
                    # the stream is now desynchronized, so drop it —
                    # but never blind-resend.
                    self._drop_socket_locked()
                    raise RequestTimeoutError(
                        f"no response from {self._host}:{self._port} "
                        f"within {self._read_timeout}s") from None
                except FrameError:
                    # A malformed frame leaves unread bytes on the
                    # stream; keeping the socket would hand the *next*
                    # request this response's leftovers.
                    self._drop_socket_locked()
                    raise
                except (ConnectionLostError, OSError):
                    self._drop_socket_locked()
                    if attempt >= self._reconnect_attempts:
                        raise
                    _RECONNECTS.inc()
                    time.sleep(min(self._backoff_max,
                                   self._backoff_base * (2 ** attempt)))
                    attempt += 1

    def _call(self, message: Any) -> Any:
        """One remote call: trace wrap, round trip, reply unwrap."""
        traced = tracing_enabled()
        if traced:
            with span("net.client",
                      request=type(message).__name__,
                      host=self._host, port=self._port):
                ctx = current_context()
                # No context means nothing to resume server-side; the
                # bare message keeps the untraced wire format (and the
                # server indexes trace_context, so never ship None).
                wire = (TracedRequest(request=message, trace_context=ctx)
                        if ctx is not None else message)
                start = time.monotonic()
                response = self._roundtrip(wire)
                _ROUNDTRIP_SECONDS.observe(time.monotonic() - start)
        else:
            start = time.monotonic()
            response = self._roundtrip(message)
            _ROUNDTRIP_SECONDS.observe(time.monotonic() - start)
        return unwrap_response(response)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def hello(self) -> ServerHello:
        """Re-ping the server; also the cheapest liveness probe."""
        self._hello = self._call(PingRequest())
        return self._hello

    def stats(self) -> Any:
        """Per-shard ``ServiceStats`` from the backing frontend."""
        return self._call(StatsRequest())

    def health(self) -> ServerHealth:
        return self._call(HealthRequest())

    def metrics(self) -> str:
        """The server process's Prometheus dump (``repro_net_*`` and
        everything else in its registry)."""
        return self._call(MetricsRequest())

    def worker_metrics(self) -> List[str]:
        """Per-worker Prometheus dumps when the server fronts a fleet."""
        return self._call(WorkerMetricsRequest())

    # ------------------------------------------------------------------
    # Topology (from the server's hello)
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self._hello.num_shards

    @property
    def num_workers(self) -> int:
        return self._hello.num_workers

    @property
    def address(self) -> Tuple[str, int]:
        return (self._host, self._port)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._drop_socket_locked()

    def __enter__(self) -> "RemoteFrontend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            state = "closed" if self._closed else "connected"
        return f"RemoteFrontend({self._host}:{self._port}, {state})"


def scrape_metrics(host: str, port: int, *, workers: bool = False,
                   connect_timeout: float = 5.0,
                   read_timeout: float = 30.0) -> str:
    """One-shot metrics scrape of a live server (``repro-stats metrics
    --connect``).  Returns the Prometheus text dump — the server's own
    registry, plus each worker's dump when ``workers`` is true."""
    client = RemoteFrontend(
        host, port, connect_timeout=connect_timeout,
        read_timeout=read_timeout, reconnect_attempts=0)
    try:
        parts = [client.metrics()]
        if workers:
            for i, dump in enumerate(client.worker_metrics()):
                parts.append(f"# ---- worker {i} ----\n{dump}")
        return "\n".join(parts)
    finally:
        client.close()
