"""Deployment knobs of the network tier, resolved and validated once.

These are the only environment variables the library reads (see
:mod:`repro.knobs`).  Absent or empty variables mean the default,
anything else must parse — a silently ignored typo in a production
timeout is worse than a loud import-time failure.  Standard library
only, so :mod:`repro.net` stays importable without numpy.
"""

from __future__ import annotations

import math
import os
from typing import Tuple

from repro.errors import ConfigurationError, InvalidParameterError


def positive_int_from_env(name: str, default: int) -> int:
    """Resolve a positive-integer knob from the environment.

    Absent or blank values yield ``default``; anything else must parse
    as an integer >= 1 or :class:`~repro.errors.ConfigurationError` is
    raised naming the variable.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return int(default)
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"{name} must be a positive integer, got {value}"
        )
    return value


def positive_float_from_env(name: str, default: float) -> float:
    """Resolve a positive-seconds knob from the environment.

    Same contract as :func:`positive_int_from_env` but for durations:
    the value must parse as a finite number > 0.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return float(default)
    try:
        value = float(raw.strip())
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a positive number of seconds, got {raw!r}"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(
            f"{name} must be a positive number of seconds, got {raw!r}"
        )
    return value


#: Server-side per-request deadline (seconds): a request still queued
#: this long after arrival is rejected with ``ServerBusy("deadline")``.
#: Overridable via ``REPRO_NET_TIMEOUT``.
NET_TIMEOUT = positive_float_from_env("REPRO_NET_TIMEOUT", 30.0)

#: Capacity of the server's bounded pending-request queue; an arrival
#: finding it full is rejected immediately with
#: ``ServerBusy("queue_full")``.  Overridable via
#: ``REPRO_NET_QUEUE_DEPTH``.
NET_QUEUE_DEPTH = positive_int_from_env("REPRO_NET_QUEUE_DEPTH", 64)


def parse_address(spec: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` into ``(host, port)``, or raise.

    The port must be an integer in ``[0, 65535]``; port ``0`` means
    "pick an ephemeral port" when binding (and is meaningless to
    connect to, but that error surfaces naturally).  Policy beyond
    well-formedness — e.g. ``repro-serve`` refusing privileged ports —
    belongs to the caller.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise InvalidParameterError(
            f"address must look like HOST:PORT, got {spec!r}"
        )
    host, _, port_text = spec.rpartition(":")
    if not host:
        raise InvalidParameterError(
            f"address must name a host before the colon, got {spec!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise InvalidParameterError(
            f"port must be an integer, got {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise InvalidParameterError(
            f"port must be in [0, 65535], got {port}"
        )
    return host, port
