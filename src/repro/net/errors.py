"""Exception types of the network serving tier.

All derive from :class:`~repro.errors.ReproError` through
:class:`NetError`, so callers keep their one-type catch.  Everything
here must survive a pickle round trip — rejections travel back to the
client as values inside the protocol's ``ErrorResponse``, exactly like
worker-side failures on the process fleet.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ReproError


class NetError(ReproError):
    """Base class for failures of the socket serving tier."""


class HandshakeError(NetError):
    """The peer does not speak this protocol (bad magic or version).

    Deliberately *not* an :class:`OSError`: the client's
    reconnect-with-backoff loop retries transport failures, but a
    handshake mismatch is deterministic — retrying it would loop
    forever against the same incompatible server.
    """


class FrameError(NetError):
    """A wire frame is malformed (oversized, truncated, or not a
    ``(seq, payload)`` envelope) — the stream cannot be trusted past
    this point, so the connection is torn down."""


class ConnectionLostError(NetError):
    """The transport died mid-conversation (EOF or a socket error)."""


class RequestTimeoutError(NetError):
    """No response arrived within the client's read timeout.

    The request may still complete server-side (a running eigensolve is
    not cancelled); the result lands in the server's caches, so a retry
    after the timeout is cheap.
    """


class ServerBusy(NetError):
    """The server refused admission; the typed overload rejection.

    ``reason`` says which limit fired:

    - ``"queue_full"`` — the bounded pending-request queue was at
      capacity when the request arrived;
    - ``"deadline"`` — the request waited past its per-request
      deadline, queued or on another connection's in-flight order;
    - ``"draining"`` — the server is shutting down and no longer
      admits new work.

    Travels back to the client as a value (pickled inside an
    ``ErrorResponse``) and re-raises there — overload looks like this
    exception, never like a hang or a dead socket.
    """

    def __init__(self, message: str, reason: str = "queue_full") -> None:
        super().__init__(message)
        self.reason = reason

    def __reduce__(self) -> "Tuple[type, Tuple[str, str]]":
        # Exception.__reduce__ would replay only args[0] and lose the
        # reason across the pickle boundary.
        return (ServerBusy, (self.args[0], self.reason))
