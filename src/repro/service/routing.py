"""The one shard-routing formula, shared by every serving front.

Keyspace partitioning only works across deployment styles if every
front — the in-process :class:`~repro.service.ShardedIndexFrontend`,
the multi-process :mod:`repro.serve` harness, and any external router —
agrees on which shard owns a domain.  That agreement cannot rest on
``hash()`` (salted per interpreter) or on code duplicated per front
(which drifts); it lives here, as pure functions of the domain's
content-hash fingerprint:

* :func:`coerce_domain` — promote shape tuples to grids, reject
  non-domains;
* :func:`coerce_domain_as` — the same, then require one kind (the
  check behind every ``order_grid`` / ``order_graph`` entry point);
* :func:`shard_index` — leading 64 bits of a domain's SHA-256
  fingerprint (:func:`~repro.service.fingerprint.domain_fingerprint`:
  grids by shape, point sets by cell content, graphs by CSR content
  hash) modulo the shard count;
* :func:`shard_of_domain` — the composition, which both frontends call.

The functions are deterministic across processes, interpreter restarts,
and platforms, so a fleet of workers given only a shard count agrees on
ownership with every client — the property the multi-process harness'
per-shard disk stores depend on (a worker must only ever be handed keys
its own store could have warmed).
"""

from __future__ import annotations

from typing import Union

from repro.errors import InvalidParameterError
from repro.geometry.grid import Grid
from repro.geometry.pointset import PointSet
from repro.graph.adjacency import Graph
from repro.service.fingerprint import domain_fingerprint

#: Routable domains (plain shape tuples are promoted to grids).
ShardableDomain = Union[Grid, PointSet, Graph]


def coerce_domain(domain) -> ShardableDomain:
    """Promote ``domain`` to a routable value, or raise.

    Grids, point sets, and graphs pass through; plain shape sequences
    become grids (the facade's convenience spelling).
    """
    if isinstance(domain, (Grid, PointSet, Graph)):
        return domain
    if isinstance(domain, (tuple, list)):
        return Grid(domain)
    raise InvalidParameterError(
        "domain must be a Grid, PointSet, Graph, or a shape "
        f"sequence, got {type(domain).__name__}"
    )


def coerce_domain_as(domain, kind: type):
    """:func:`coerce_domain`, then require ``domain`` to be a ``kind``.

    The entry point fixes the domain kind (``order_grid`` takes a
    :class:`Grid`, ``order_graph`` a :class:`Graph`); every front and
    the service check it here, so a wrong-kind domain raises
    :class:`~repro.errors.InvalidParameterError` everywhere alike.
    """
    domain = coerce_domain(domain)
    if not isinstance(domain, kind):
        raise InvalidParameterError(
            f"expected a {kind.__name__} domain, "
            f"got {type(domain).__name__}"
        )
    return domain


def shard_index(fingerprint: str, num_shards: int) -> int:
    """Leading 64 bits of a hex fingerprint modulo the shard count."""
    if num_shards < 1:
        raise InvalidParameterError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    return int(fingerprint[:16], 16) % num_shards


def shard_of_domain(domain, num_shards: int) -> int:
    """The shard owning ``domain`` — a pure, stable function.

    Uniform over the keyspace (SHA-256 output), identical in every
    process, and independent of request order.  All configurations over
    one domain share its fingerprint, so they land on one shard and
    keep amortizing shared work (topology builds) exactly as in a
    single service.
    """
    return shard_index(domain_fingerprint(coerce_domain(domain)),
                       num_shards)
