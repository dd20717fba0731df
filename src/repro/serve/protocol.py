"""The wire values of the multi-process serving harness.

Dispatcher and workers exchange pickled dataclasses over
``multiprocessing`` pipes — strictly request/response, one in flight
per pipe.  The payloads lean entirely on the pickle contract pinned by
``tests/service/test_ipc_pickle.py``: configs, domains, orders, and
artifacts round-trip with equality, stable fingerprints, and routing
agreement, so a worker can *independently* re-derive the cache key and
shard of any request and cross-check the dispatcher's routing instead
of trusting it.

Failures travel as values, never as a dead pipe: a worker catches the
exception, ships it back pickled when it survives pickling (the normal
case — the library's exception types are plain), and otherwise ships
its type name and traceback text inside a
:class:`~repro.errors.WorkerError`.  The dispatcher re-raises either
way (:func:`unwrap_response`), so a remote failure reads like a local
one.

Workers and the socket server answer ordering and query messages
through one table, :func:`serve_message`; its client-side mirror is
:class:`~repro.serve.frontend.MessageFrontend`.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import InvalidParameterError, WorkerError
from repro.geometry.grid import Grid
from repro.graph.adjacency import Graph
from repro.obs import collector
from repro.service.routing import coerce_domain

#: Bumped on any incompatible protocol change; worker and dispatcher
#: refuse to talk across versions (both sides are always deployed from
#: one code base, so a mismatch means a stale worker binary).
#: v2: trace-context envelopes (:class:`TracedRequest` /
#: :class:`TracedResponse`) and the :class:`HealthRequest` /
#: :class:`MetricsRequest` introspection pair.
#: v3: :class:`~repro.core.spectral.SpectralConfig` lost its tie-break,
#: disconnected-graph, component-arrangement and snap-tolerance fields.
#: A v2 config carrying them unpickles silently as the four-field config,
#: so a stale peer would get an order under rules it did not ask for;
#: the version check refuses it instead.
PROTOCOL_VERSION = 3


# ---------------------------------------------------------------------------
# Requests (dispatcher -> worker)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PingRequest:
    """Liveness probe; answered with the worker's identity payload."""


@dataclass(frozen=True)
class ShutdownRequest:
    """Graceful stop: the worker acknowledges, then exits its loop."""


@dataclass(frozen=True)
class StatsRequest:
    """Per-shard :class:`~repro.service.ServiceStats` snapshots."""


@dataclass(frozen=True)
class HealthRequest:
    """Liveness-plus: answered with a :class:`WorkerHealth` payload
    (identity, uptime, per-shard store reachability, request count) —
    the health endpoint the ROADMAP's socket transport will serve."""


@dataclass(frozen=True)
class MetricsRequest:
    """The worker's :func:`repro.obs.dump_metrics` output — Prometheus
    text exposition format, rendered worker-side so the dispatcher can
    concatenate per-process dumps without re-aggregation."""


@dataclass(frozen=True)
class OrderRequestMessage:
    """One ordering request: a domain (grid or graph) plus its config.

    ``want_artifact`` selects the full provenance-carrying
    :class:`~repro.service.OrderArtifact` over the bare
    :class:`~repro.core.ordering.LinearOrder`.
    """

    domain: object
    config: object = None
    want_artifact: bool = False


@dataclass(frozen=True)
class OrderManyMessage:
    """A batch of ``(domain, config)`` pairs, all owned by this worker.

    The dispatcher groups a cross-shard batch by owning worker; inside
    the worker the batch is re-grouped per owned shard so each shard's
    :meth:`~repro.service.OrderingService.order_many` keeps its
    one-topology-build amortization.
    """

    requests: Tuple[Tuple[object, object], ...]


@dataclass(frozen=True)
class IndexQueryMessage:
    """A query against the index of one domain.

    ``op`` is one of :data:`INDEX_OPS`, called on the serving surface as
    ``surface.<op>(domain, *args, **kwargs)`` — which runs it on the
    :class:`~repro.api.SpectralIndex` that surface builds (and caches)
    over the owning shard's service.
    """

    domain: object
    op: str
    args: Tuple = ()
    kwargs: Dict = field(default_factory=dict)


#: Operations :class:`IndexQueryMessage` accepts.
INDEX_OPS = ("range", "nn", "join", "query_many")


@dataclass(frozen=True)
class TracedRequest:
    """Envelope carrying a request plus the dispatcher's trace context.

    ``trace_context`` is the ``(trace_id, span_id)`` tuple of the
    dispatcher's open span (:func:`repro.obs.current_context`).  The
    dispatcher wraps outgoing requests in this envelope **only when
    tracing is enabled**, so the untraced wire format is byte-identical
    to the bare request; the worker unwraps it, resumes the trace for
    the duration of the request, and ships the spans back in a
    :class:`TracedResponse`.
    """

    request: object
    trace_context: Tuple[str, str]


# ---------------------------------------------------------------------------
# Responses (worker -> dispatcher)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OkResponse:
    """A successful result; ``payload`` is the method's return value."""

    payload: object = None


@dataclass(frozen=True)
class ErrorResponse:
    """A failure shipped as a value.

    ``exception`` carries the original exception when it pickles;
    otherwise ``None``, with ``kind`` / ``message`` / ``remote_traceback``
    preserving what can always be preserved.
    """

    kind: str
    message: str
    remote_traceback: str
    exception: Optional[BaseException] = None

    def raise_(self) -> None:
        # Pickling drops __traceback__, so the re-raised exception
        # alone would show no worker-side frames; chaining the shipped
        # traceback text as the cause keeps them in the dispatcher's
        # error output.
        if self.exception is not None:
            raise self.exception from WorkerError(
                f"remote worker traceback:\n{self.remote_traceback}",
                remote_traceback=self.remote_traceback,
            )
        raise WorkerError(
            f"worker failed with {self.kind}: {self.message}",
            remote_traceback=self.remote_traceback,
        )


def error_response(exc: BaseException) -> ErrorResponse:
    """Wrap a worker-side exception for the wire.

    The exception object itself is shipped only when it survives a
    pickle round-trip *in the worker* — discovering unpicklability at
    ``conn.send`` time would kill the reply entirely and surface as a
    crash instead of an error.
    """
    shippable: Optional[BaseException] = None
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        pass
    else:
        shippable = exc
    return ErrorResponse(
        kind=type(exc).__name__,
        message=str(exc),
        remote_traceback="".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__)),
        exception=shippable,
    )


@dataclass(frozen=True)
class TracedResponse:
    """Envelope around a response carrying the worker-side spans.

    ``spans`` is a tuple of finished :class:`repro.obs.SpanRecord`
    values (plain picklable dataclasses) produced while handling the
    traced request; the dispatcher ingests them into its local
    collector, stitching one cross-process trace.  Error responses are
    wrapped too — a failed request still ships the spans recorded up to
    the failure.
    """

    response: object
    spans: Tuple = ()


def unwrap_response(response: Any) -> Any:
    """The payload of a reply, or the shipped failure re-raised.

    Spans a :class:`TracedResponse` carries are ingested into this
    process's collector first, so the remote side's spans join the
    caller's trace whether the request succeeded or not.
    """
    if isinstance(response, TracedResponse):
        if response.spans:
            collector().ingest(response.spans)
        response = response.response
    if isinstance(response, ErrorResponse):
        response.raise_()
    if not isinstance(response, OkResponse):
        raise WorkerError(
            f"malformed response {type(response).__name__}"
        )
    return response.payload


@dataclass(frozen=True)
class WorkerHello:
    """The ping payload: who the worker is and what it owns."""

    worker_id: int
    shard_ids: Tuple[int, ...]
    num_shards: int
    protocol_version: int = PROTOCOL_VERSION
    pid: int = 0


@dataclass(frozen=True)
class WorkerHealth:
    """The health payload: identity plus liveness detail.

    ``stores`` maps shard id to ``"ok"`` or an error string from
    probing that shard's artifact-store directory, so an unreachable
    disk tier surfaces in ``health`` instead of as a latency cliff.
    """

    worker_id: int
    pid: int
    shard_ids: Tuple[int, ...]
    num_shards: int
    uptime_seconds: float
    requests_handled: int
    stores: Dict[int, str]
    status: str = "ok"
    protocol_version: int = PROTOCOL_VERSION


# ---------------------------------------------------------------------------
# Serving: message -> surface method
# ---------------------------------------------------------------------------
def _serve_order(surface, message: OrderRequestMessage):
    # Always the full artifact: the order *is* artifact.order, so either
    # reply shape is derived from one call.
    domain = coerce_domain(message.domain)
    if isinstance(domain, Grid):
        artifact = surface.grid_artifact(domain, message.config)
    elif isinstance(domain, Graph):
        artifact = surface.graph_artifact(domain, message.config)
    else:
        raise InvalidParameterError(
            f"an order request needs a Grid or Graph domain, "
            f"got {type(domain).__name__}"
        )
    return artifact if message.want_artifact else artifact.order


def _serve_order_many(surface, message: OrderManyMessage):
    return surface.order_many(list(message.requests))


def _serve_index_query(surface, message: IndexQueryMessage):
    if message.op not in INDEX_OPS:
        raise InvalidParameterError(
            f"op must be one of {INDEX_OPS}, got {message.op!r}"
        )
    return getattr(surface, message.op)(message.domain, *message.args,
                                        **message.kwargs)


_HANDLERS = {
    OrderRequestMessage: _serve_order,
    OrderManyMessage: _serve_order_many,
    IndexQueryMessage: _serve_index_query,
}

#: The ordering and query messages :func:`serve_message` answers.
SERVED_MESSAGES = tuple(_HANDLERS)


def serve_message(surface, message):
    """Answer one ordering or query message from ``surface``.

    ``surface`` is anything with the sharded-frontend methods
    (``grid_artifact`` / ``graph_artifact`` / ``order_many`` /
    ``range`` / ``nn`` / ``join`` / ``query_many``); only those public
    methods are called, so a wrapper intercepting them sees every
    request.  Any other message raises
    :class:`~repro.errors.InvalidParameterError`.
    """
    handler = _HANDLERS.get(type(message))
    if handler is None:
        raise InvalidParameterError(
            f"unknown request type {type(message).__name__}"
        )
    return handler(surface, message)
