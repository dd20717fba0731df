"""Wire format of the socket tier: handshake + length-prefixed frames.

A connection opens with a fixed 8-byte handshake in each direction —
4-byte magic plus a big-endian ``u32`` protocol version — so a peer
speaking the wrong protocol (an HTTP probe, a stale client) is rejected
before any pickle bytes are trusted.  After the handshake, every
message is one *frame*::

    [u32 length][pickle((seq, payload))]

``seq`` is a per-connection sequence number chosen by the requester and
echoed on the response, so responses match requests even if a future
server interleaves them.  ``payload`` reuses the
:mod:`repro.serve.protocol` dataclasses — the same values that cross
the dispatcher/worker pipes cross the network unchanged.

Security note: frames are **pickles**.  Unpickling attacker-controlled
bytes is arbitrary code execution, so this transport must only ever
face trusted networks (the same trust boundary as the fleet's pipes —
see the README's remote-serving section).  The handshake is a protocol
check, not authentication.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Optional, Tuple

from repro.net.errors import ConnectionLostError, FrameError, HandshakeError

#: First bytes on the wire in both directions; "Spectral LPM".
NET_MAGIC = b"SLPM"

#: Bumped on any incompatible change to the framing or the payload
#: contract; both sides refuse to talk across versions.  v2: the
#: pickled :class:`~repro.core.spectral.SpectralConfig` has four fields;
#: a v1 client's extra fields would unpickle silently and be ignored.
NET_PROTOCOL_VERSION = 2

#: Upper bound on one frame's body.  Real payloads (orders, artifacts,
#: query batches) are kilobytes to low megabytes; anything larger is a
#: corrupt or hostile length prefix, rejected before allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")
_HANDSHAKE = struct.Struct(">4sI")

#: Full size of one handshake message.
HANDSHAKE_BYTES = _HANDSHAKE.size


def handshake_bytes(version: Optional[int] = None) -> bytes:
    """The 8-byte hello this side sends (tests may spoof ``version``)."""
    if version is None:
        version = NET_PROTOCOL_VERSION
    return _HANDSHAKE.pack(NET_MAGIC, version)


def parse_handshake(data: bytes) -> int:
    """Validate a peer's hello; returns its protocol version."""
    if len(data) != HANDSHAKE_BYTES:
        raise HandshakeError(
            f"short handshake: expected {HANDSHAKE_BYTES} bytes, "
            f"got {len(data)}"
        )
    magic, version = _HANDSHAKE.unpack(data)
    if magic != NET_MAGIC:
        raise HandshakeError(
            f"peer does not speak the repro protocol "
            f"(magic {magic!r}, expected {NET_MAGIC!r})"
        )
    return version


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionLostError`.

    ``socket.timeout`` propagates unchanged — the caller decides
    whether a timeout tears the connection down (the client does).
    """
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionLostError(
                f"peer closed the connection "
                f"({n - remaining} of {n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def send_frame(sock: socket.socket, seq: int, payload: object) -> None:
    """Pickle ``(seq, payload)`` and send it as one frame.

    The caller serializes concurrent senders (per-connection send
    lock); interleaved ``sendall`` calls would corrupt the stream.
    """
    body = pickle.dumps((seq, payload), protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    sock.sendall(_HEADER.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> Tuple[int, object]:
    """Read one frame; returns ``(seq, payload)``.

    Raises :class:`ConnectionLostError` on EOF and :class:`FrameError`
    on a length prefix or envelope that cannot be trusted.
    """
    (length,) = _HEADER.unpack(recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    try:
        envelope = pickle.loads(recv_exact(sock, length))
    except ConnectionLostError:
        raise
    except Exception as exc:
        raise FrameError(f"frame body failed to unpickle: {exc}") from exc
    if (not isinstance(envelope, tuple) or len(envelope) != 2
            or not isinstance(envelope[0], int)):
        raise FrameError(
            f"frame is not a (seq, payload) envelope: "
            f"{type(envelope).__name__}"
        )
    return envelope
