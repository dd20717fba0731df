"""The socket front: threaded transport + admission + cross-client
coalescing over any serving frontend.

:class:`SpectralServer` listens on a TCP socket and answers framed
requests (:mod:`repro.net.framing`) from a backing frontend — the
multi-process :class:`~repro.api.ProcessPoolFrontend` in deployment,
the in-process :class:`~repro.service.ShardedIndexFrontend` (or any
duck-typed stand-in) in tests — through the same
:func:`~repro.serve.protocol.serve_message` table the fleet workers
use.  Three serving properties live at this tier, not in the
transport:

**Admission control.**  Ordering and query requests pass through a
bounded pending queue (``queue_depth``, default from
``REPRO_NET_QUEUE_DEPTH``) consumed by a fixed pool of dispatcher
threads.  An arrival finding the queue full, a request still queued
(or waiting on another connection's order) past its deadline
(``request_timeout``, default ``REPRO_NET_TIMEOUT``), and any request
arriving during shutdown are rejected with a typed
:class:`~repro.net.errors.ServerBusy` that travels back as a value —
overload degrades into fast, explicit rejections, never into hangs.
Introspection (ping/stats/health/metrics) bypasses the queue: health
checks must keep answering precisely when the queue is full.

**Cross-client coalescing.**  N connections cold-missing the same
fingerprint pay exactly one eigensolve *and* one backend round trip:
the ordering service's :class:`~repro.caching.SingleFlight`, lifted to
the connection-handling tier and keyed by the service's own
:func:`~repro.service.fingerprint.order_key`, so the key the flights
coalesce on is bit-for-bit the key the caches store under.

**Graceful drain.**  ``close()`` stops accepting, rejects new work,
lets every admitted request finish and its response reach the client,
then tears the connections down — a bounced server never strands an
in-flight answer it could have delivered.

A client that dies mid-request costs nothing but its own answer: the
dispatcher completes, the send fails, the response is discarded, the
connection is reaped, and ``repro_net_connections_dropped_total``
ticks — the queue slot and dispatcher thread are released exactly as
on the success path.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.caching import SingleFlight
from repro.core.spectral import SpectralConfig
from repro.errors import InvalidParameterError
from repro.net.config import NET_QUEUE_DEPTH, NET_TIMEOUT
from repro.net.errors import (
    ConnectionLostError,
    FrameError,
    HandshakeError,
    ServerBusy,
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
from repro.net.messages import (
    ServerHealth,
    ServerHello,
    WorkerMetricsRequest,
)
from repro.obs import Timer, dump_metrics, registry, remote_capture, span
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    SERVED_MESSAGES,
    ErrorResponse,
    HealthRequest,
    MetricsRequest,
    OkResponse,
    OrderRequestMessage,
    PingRequest,
    StatsRequest,
    TracedRequest,
    TracedResponse,
    error_response,
    serve_message,
)
from repro.service.fingerprint import domain_fingerprint, order_key
from repro.service.routing import coerce_domain
from repro.geometry.grid import Grid
from repro.graph.adjacency import Graph

#: How long a new connection gets to complete the handshake.
HANDSHAKE_TIMEOUT_SECONDS = 10.0

#: How long ``close()`` waits for admitted requests to finish before
#: tearing connections down anyway.
DRAIN_GRACE_SECONDS = 10.0

_CONNECTIONS = registry().counter(
    "repro_net_connections_total",
    "Client connections accepted by the socket server.")
_OPEN = registry().gauge(
    "repro_net_connections_open",
    "Client connections currently open.")
_DROPPED = registry().counter(
    "repro_net_connections_dropped_total",
    "Connections that died with requests in flight (responses "
    "discarded) or whose response send failed.")
_HANDSHAKE_REJECTED = registry().counter(
    "repro_net_handshake_rejected_total",
    "Connections refused at the handshake (bad magic or version).")
_REQUESTS = registry().counter(
    "repro_net_requests_total",
    "Requests received over the socket, by protocol message type.")
_REJECTED = registry().counter(
    "repro_net_rejected_total",
    "Requests refused by admission control, by reason.")
_QUEUE_DEPTH = registry().gauge(
    "repro_net_queue_depth",
    "Requests currently waiting in the admission queue.")
_HANDLE_SECONDS = registry().histogram(
    "repro_net_request_seconds",
    "Server-side latency of one admitted request, dequeue to reply.")
_COALESCED = registry().counter(
    "repro_net_coalesced_total",
    "Order requests served by another connection's in-flight solve.")


class _Connection:
    """One accepted socket, its send lock, and its in-flight count."""

    __slots__ = ("sock", "addr", "conn_id", "send_lock", "lock",
                 "inflight", "dropped", "closed")

    def __init__(self, sock: socket.socket, addr: Any,
                 conn_id: int) -> None:
        self.sock = sock
        self.addr = addr
        self.conn_id = conn_id
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()
        self.inflight = 0  # guarded-by: lock
        self.dropped = False  # guarded-by: lock
        self.closed = False  # guarded-by: lock


class _WorkItem:
    """One admitted request waiting for (or on) a dispatcher."""

    __slots__ = ("conn", "seq", "message", "deadline")

    def __init__(self, conn: _Connection, seq: int, message: Any,
                 deadline: float) -> None:
        self.conn = conn
        self.seq = seq
        self.message = message
        self.deadline = deadline


class SpectralServer:
    """Serve a frontend's surface over TCP with admission control.

    Parameters
    ----------
    frontend:
        The backing frontend — anything speaking the
        ``ShardedIndexFrontend`` surface (``grid_artifact`` /
        ``graph_artifact`` / ``order_many`` / ``query_many`` /
        ``range`` / ``nn`` / ``join`` / ``stats``).
    host, port:
        Bind address; port 0 picks an ephemeral port (read it back
        from :attr:`address` — the idiom every test uses so CI never
        collides).
    queue_depth:
        Capacity of the pending-request queue; default from
        ``REPRO_NET_QUEUE_DEPTH``.
    request_timeout:
        Per-request deadline in seconds, stamped at arrival; default
        from ``REPRO_NET_TIMEOUT``.
    dispatchers:
        Dispatcher threads executing admitted requests; bounds how
        many backend calls run concurrently.
    own_frontend:
        When true, ``close()`` also closes the frontend (the CLI sets
        this; tests usually keep their frontends).

    Examples
    --------
    >>> from repro.service import ShardedIndexFrontend
    >>> with SpectralServer(ShardedIndexFrontend(shards=2)) as server:
    ...     host, port = server.address        # doctest: +SKIP
    """

    def __init__(self, frontend: Any, host: str = "127.0.0.1",
                 port: int = 0, *, queue_depth: Optional[int] = None,
                 request_timeout: Optional[float] = None,
                 dispatchers: int = 4, backlog: int = 128,
                 own_frontend: bool = False) -> None:
        if queue_depth is None:
            queue_depth = NET_QUEUE_DEPTH
        if request_timeout is None:
            request_timeout = NET_TIMEOUT
        if queue_depth < 1:
            raise InvalidParameterError(
                f"queue_depth must be >= 1, got {queue_depth}")
        if request_timeout <= 0:
            raise InvalidParameterError(
                f"request_timeout must be > 0, got {request_timeout}")
        if dispatchers < 1:
            raise InvalidParameterError(
                f"dispatchers must be >= 1, got {dispatchers}")
        self._frontend = frontend
        self._own_frontend = bool(own_frontend)
        self._host = host
        self._port = int(port)
        self._queue_depth = int(queue_depth)
        self._request_timeout = float(request_timeout)
        self._dispatcher_count = int(dispatchers)
        self._backlog = int(backlog)
        self._queue: "queue.Queue[Optional[_WorkItem]]" = \
            queue.Queue(maxsize=self._queue_depth)
        self._flights: SingleFlight[str, Any] = SingleFlight()
        self._conns: Dict[int, _Connection] = {}  # guarded-by: _conns_lock
        self._conns_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending = 0  # guarded-by: _state_lock
        self._requests_handled = 0  # guarded-by: _state_lock
        self._rejections = 0  # guarded-by: _state_lock
        self._next_conn_id = 0  # guarded-by: _conns_lock
        # Monotonic False->True; the unlocked reads below are benign.
        self._draining = False  # guarded-by: _state_lock
        self._closed = False
        self._started_at = time.monotonic()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._dispatch_threads: List[threading.Thread] = []
        self._address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SpectralServer":
        """Bind, listen, and start the accept/dispatch threads."""
        if self._listener is not None:
            return self
        if self._closed:
            raise InvalidParameterError(
                "this server has been closed; build a new one")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(self._backlog)
        self._listener = listener
        self._address = listener.getsockname()[:2]
        self._started_at = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name="repro-net-accept", daemon=True)
        self._accept_thread.start()
        for i in range(self._dispatcher_count):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-net-dispatch-{i}", daemon=True)
            thread.start()
            self._dispatch_threads.append(thread)
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — the real port when bound to 0."""
        if self._address is None:
            raise InvalidParameterError("server is not started")
        return self._address

    @property
    def pending(self) -> int:
        """Requests admitted but not yet replied to (queued + running)."""
        with self._state_lock:
            return self._pending

    @property
    def flight_waiters(self) -> int:
        """Requests waiting on another connection's in-flight order."""
        return self._flights.waiters()

    def close(self) -> None:
        """Drain and shut down.  Idempotent.

        Stops accepting, rejects new requests (``ServerBusy``,
        reason ``"draining"``), waits up to ``DRAIN_GRACE_SECONDS``
        for admitted requests to finish and their responses to flush,
        then closes every connection (and the frontend, when owned).
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        if self._listener is not None:
            # On Linux, close() alone does not wake a thread blocked in
            # accept(); shutdown() does (accept then fails with EINVAL).
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # e.g. ENOTCONN where unsupported
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=DRAIN_GRACE_SECONDS)
        deadline = time.monotonic() + DRAIN_GRACE_SECONDS
        while time.monotonic() < deadline:
            with self._state_lock:
                if self._pending == 0:
                    break
            time.sleep(0.005)
        for _ in self._dispatch_threads:
            try:
                self._queue.put(None, timeout=DRAIN_GRACE_SECONDS)
            except queue.Full:  # pragma: no cover - wedged dispatcher
                break
        for thread in self._dispatch_threads:
            thread.join(timeout=DRAIN_GRACE_SECONDS)
        self.disconnect_all()
        if self._own_frontend:
            close = getattr(self._frontend, "close", None)
            if close is not None:
                close()

    def disconnect_all(self) -> None:
        """Close every client connection (used by drain and by tests
        exercising the client's reconnect path)."""
        with self._conns_lock:
            conns = list(self._conns.values())
        for conn in conns:
            self._reap(conn)

    def __enter__(self) -> "SpectralServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Accept / read
    # ------------------------------------------------------------------
    def _accept_loop(self, listener: socket.socket) -> None:
        # The listener arrives as an argument: ``self._listener`` is
        # Optional (None again after close) and this thread outlives
        # that transition.
        while True:
            try:
                sock, addr = listener.accept()
            except OSError:  # listener closed: shutdown
                return
            if self._draining:  # repro-lint: disable=RPR001
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - best effort
                pass
            with self._conns_lock:
                conn_id = self._next_conn_id
                self._next_conn_id += 1
                conn = _Connection(sock, addr, conn_id)
                self._conns[conn_id] = conn
                open_count = len(self._conns)
            _CONNECTIONS.inc()
            _OPEN.set(open_count)
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"repro-net-conn-{conn_id}", daemon=True,
            ).start()

    def _serve_connection(self, conn: _Connection) -> None:
        try:
            if not self._handshake(conn):
                return
            while True:
                try:
                    seq, message = recv_frame(conn.sock)
                except (ConnectionLostError, FrameError, OSError,
                        socket.timeout):
                    return
                self._route(conn, seq, message)
        finally:
            self._reap(conn)

    def _handshake(self, conn: _Connection) -> bool:
        """Exchange hellos; returns False (and counts the reject) on a
        peer that does not speak this protocol version."""
        try:
            conn.sock.settimeout(HANDSHAKE_TIMEOUT_SECONDS)
            try:
                version = parse_handshake(
                    recv_exact(conn.sock, HANDSHAKE_BYTES))
            except (HandshakeError, ConnectionLostError):
                _HANDSHAKE_REJECTED.inc()
                return False
            # Identify ourselves either way: a mismatched client reads
            # our version from this hello and raises a clean
            # HandshakeError naming both sides instead of seeing EOF.
            conn.sock.sendall(handshake_bytes())
            if version != NET_PROTOCOL_VERSION:
                _HANDSHAKE_REJECTED.inc()
                return False
            conn.sock.settimeout(None)
            return True
        except (OSError, socket.timeout):
            _HANDSHAKE_REJECTED.inc()
            return False

    # ------------------------------------------------------------------
    # Routing / admission
    # ------------------------------------------------------------------
    def _route(self, conn: _Connection, seq: int,
               message: Any) -> None:
        inner = (message.request if isinstance(message, TracedRequest)
                 else message)
        _REQUESTS.inc(request=type(inner).__name__)
        if isinstance(inner, (PingRequest, StatsRequest, HealthRequest,
                              MetricsRequest, WorkerMetricsRequest)):
            # Introspection bypasses admission: health and metrics must
            # answer precisely when the queue is full.
            self._reply(conn, seq, self._introspect(inner))
            with self._state_lock:
                self._requests_handled += 1
            return
        if not isinstance(inner, SERVED_MESSAGES):
            self._reply(conn, seq, error_response(InvalidParameterError(
                f"unknown request type {type(inner).__name__}")))
            return
        if self._draining:  # repro-lint: disable=RPR001
            self._reply(conn, seq, self._rejection(ServerBusy(
                "server is shutting down", reason="draining")))
            return
        item = _WorkItem(conn, seq, message,
                         time.monotonic() + self._request_timeout)
        with conn.lock:
            conn.inflight += 1
        with self._state_lock:
            self._pending += 1
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            with conn.lock:
                conn.inflight -= 1
            with self._state_lock:
                self._pending -= 1
            self._reply(conn, seq, self._rejection(ServerBusy(
                f"admission queue is at its {self._queue_depth}-request "
                "capacity", reason="queue_full")))
            return
        _QUEUE_DEPTH.set(self._queue.qsize())

    def _rejection(self, busy: ServerBusy) -> ErrorResponse:
        """Count one refused request and wrap its reply; every rejection
        comes through here, so the counts match what clients were told."""
        _REJECTED.inc(reason=busy.reason)
        with self._state_lock:
            self._rejections += 1
        return error_response(busy)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            _QUEUE_DEPTH.set(self._queue.qsize())
            rejected = False
            try:
                if time.monotonic() > item.deadline:
                    raise ServerBusy(
                        f"request waited in the queue past its "
                        f"{self._request_timeout:.3f}s deadline",
                        reason="deadline")
                with Timer() as timer:
                    response = self._execute(item.message, item.deadline)
                _HANDLE_SECONDS.observe(timer.seconds)
            except ServerBusy as busy:
                rejected = True
                response = self._rejection(busy)
            finally:
                # The request leaves "in flight" BEFORE the reply is
                # sent: a client that closes the moment its answer
                # lands must not race the reader's EOF into a false
                # dropped-connection count.
                with item.conn.lock:
                    item.conn.inflight -= 1
                with self._state_lock:
                    self._pending -= 1
            self._reply(item.conn, item.seq, response)
            if not rejected:
                with self._state_lock:
                    self._requests_handled += 1

    def _execute(self, message: Any, deadline: float) -> Any:
        if isinstance(message, TracedRequest):
            inner = message.request
            trace_id = message.trace_context[0]
            with remote_capture(message.trace_context) as captured:
                with span("net.server",
                          request=type(inner).__name__) as sp:
                    response = self._execute_bare(inner, deadline)
                    if isinstance(response, ErrorResponse):
                        sp.set_attribute("error", response.kind)
            # capture_spans is process-wide; concurrent connections may
            # interleave, so ship only this trace's spans.
            spans = tuple(r for r in captured if r.trace_id == trace_id)
            return TracedResponse(response=response, spans=spans)
        return self._execute_bare(message, deadline)

    def _execute_bare(self, message: Any, deadline: float) -> Any:
        try:
            if isinstance(message, OrderRequestMessage):
                payload = self._order(message, deadline)
            else:
                payload = serve_message(self._frontend, message)
            return OkResponse(payload)
        except ServerBusy:
            raise  # a refusal: the dispatcher counts and replies it
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return error_response(exc)

    # ------------------------------------------------------------------
    # Cross-client coalescing
    # ------------------------------------------------------------------
    def _order(self, message: OrderRequestMessage,
               deadline: float) -> Any:
        domain = coerce_domain(message.domain)
        config = message.config
        # Only plain-config grid/graph orders coalesce: a shipped
        # SpectralLPM instance may be non-cacheable, and only grids and
        # graphs have the order_key fingerprint the caches share.
        if not (isinstance(domain, (Grid, Graph))
                and (config is None
                     or isinstance(config, SpectralConfig))):
            return serve_message(self._frontend, message)
        key = order_key(config or SpectralConfig(),
                        domain_fingerprint(domain))
        # The leader always fetches the full artifact: the flight's
        # waiters may want either shape, and the order *is*
        # artifact.order, so bit-identity holds by construction.
        leader = dataclasses.replace(message, want_artifact=True)
        try:
            artifact, shared = self._flights.do(
                key, lambda: serve_message(self._frontend, leader),
                deadline=deadline)
        except TimeoutError:
            raise ServerBusy(
                "coalesced order still in flight at the request "
                "deadline", reason="deadline") from None
        if shared:
            _COALESCED.inc()
        return artifact if message.want_artifact else artifact.order

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _introspect(self, message: Any) -> Any:
        try:
            if isinstance(message, PingRequest):
                payload = self._hello()
            elif isinstance(message, StatsRequest):
                payload = self._frontend.stats()
            elif isinstance(message, HealthRequest):
                payload = self._health()
            elif isinstance(message, MetricsRequest):
                payload = dump_metrics()
            else:  # WorkerMetricsRequest
                worker_metrics = getattr(self._frontend,
                                         "worker_metrics", None)
                payload = (worker_metrics() if worker_metrics is not None
                           else [])
            return OkResponse(payload)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return error_response(exc)

    def _hello(self) -> ServerHello:
        return ServerHello(
            net_protocol_version=NET_PROTOCOL_VERSION,
            serve_protocol_version=PROTOCOL_VERSION,
            num_shards=int(getattr(self._frontend, "num_shards", 0)),
            num_workers=int(getattr(self._frontend, "num_workers", 1)),
            pid=os.getpid(),
        )

    def _health(self) -> ServerHealth:
        health = getattr(self._frontend, "health", None)
        workers = tuple(health()) if health is not None else ()
        with self._conns_lock:
            open_count = len(self._conns)
        with self._state_lock:
            handled = self._requests_handled
            rejections = self._rejections
            pending = self._pending
        host, port = self.address
        return ServerHealth(
            status="draining" if self._draining else "ok",  # repro-lint: disable=RPR001
            pid=os.getpid(),
            host=host,
            port=port,
            uptime_seconds=time.monotonic() - self._started_at,
            connections_open=open_count,
            requests_handled=handled,
            rejections=rejections,
            queue_capacity=self._queue_depth,
            queue_size=pending,
            workers=workers,
        )

    # ------------------------------------------------------------------
    # Replies / teardown
    # ------------------------------------------------------------------
    def _reply(self, conn: _Connection, seq: int,
               response: Any) -> None:
        try:
            with conn.send_lock:
                # Advisory read under send_lock, not conn.lock: a reply
                # racing the reaper at worst sends on a closing socket,
                # which the except below already absorbs.
                if conn.closed:  # repro-lint: disable=RPR007
                    raise ConnectionLostError("connection already reaped")
                send_frame(conn.sock, seq, response)
        except Exception:
            # The client is gone (or the payload will not frame): the
            # response is discarded; the slot was already released.
            self._mark_dropped(conn)
            self._reap(conn)

    def _mark_dropped(self, conn: _Connection) -> None:
        with conn.lock:
            if conn.dropped:
                return
            conn.dropped = True
        _DROPPED.inc()

    def _reap(self, conn: _Connection) -> None:
        with conn.lock:
            had_inflight = conn.inflight > 0
            already_closed = conn.closed
            conn.closed = True
        if had_inflight:
            # The peer died with requests executing: their responses
            # will be discarded when the dispatcher's send fails.
            self._mark_dropped(conn)
        try:
            conn.sock.close()
        except OSError:
            pass
        if not already_closed:
            with self._conns_lock:
                self._conns.pop(conn.conn_id, None)
                _OPEN.set(len(self._conns))

    def __repr__(self) -> str:
        state = ("closed" if self._closed
                 else "listening" if self._listener else "unstarted")
        addr = self._address or (self._host, self._port)
        return (f"SpectralServer({addr[0]}:{addr[1]}, "
                f"queue_depth={self._queue_depth}, "
                f"dispatchers={self._dispatcher_count}, {state})")
