"""Stable fingerprints of ordering requests.

A cached spectral order is only as trustworthy as its key: the key must
be *deterministic across processes* (Python's ``hash()`` is salted and
useless for disk stores), must *never collide* for distinct requests,
and must be cheap relative to an eigensolve.  This module derives SHA-256
hex digests for each half of a request —

* the **configuration** (:class:`~repro.core.spectral.SpectralConfig`),
  serialized field-by-field in a canonical text form;
* the **domain** — grids by shape (a grid *is* its shape), point subsets
  by grid shape plus the exact cell set, and user graphs by the content
  hash of their canonical CSR arrays
  (:meth:`~repro.graph.adjacency.Graph.content_fingerprint`)

— and combines them into the order key used by both cache tiers.  All
digests are versioned: bumping :data:`FINGERPRINT_VERSION` invalidates
every previously stored artifact at once, which is the safe response to
any change in ordering semantics.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Sequence, Union

import numpy as np

from repro.core.spectral import SpectralConfig
from repro.errors import InvalidParameterError
from repro.geometry.grid import Grid
from repro.geometry.pointset import PointSet
from repro.graph.adjacency import Graph

#: Version prefix folded into every digest.  Bump when the meaning of a
#: stored order changes (a changed canonical probe, tie rule or solver
#: cutoff, ...) so stale artifacts can never be served.  Version 2: the
#: ``bfs`` tie-break starts from the snapped tie groups, and ``auto``
#: orders full radius-1 grids above the multilevel cutoff from their
#: exact closed-form pair instead of the multilevel approximation.
#: Version 3: the service coarsens multilevel solves on the real edge
#: weights, as the library always did, so its multilevel orders of
#: non-uniformly weighted graphs change.  Version 4: ``auto``'s cutoffs
#: no longer come from the environment, and a store written under a
#: lowered multilevel cutoff may hold multilevel orders under ``auto``
#: keys that no process produces any more.  Cutting
#: :class:`SpectralConfig` from eight fields to four kept version 4: no
#: stored order changed meaning, and every key changed with the digest.
FINGERPRINT_VERSION = 4

Domain = Union[Grid, PointSet, Graph]


def _digest(kind: str, *parts: bytes) -> str:
    h = hashlib.sha256(f"repro-{kind}-v{FINGERPRINT_VERSION}"
                       .encode("ascii"))
    for part in parts:
        h.update(b"\x00")
        h.update(part)
    return h.hexdigest()


def config_fingerprint(config: SpectralConfig) -> str:
    """Deterministic digest of a :class:`SpectralConfig`.

    Every dataclass field participates, serialized by name in field
    order with values rendered via ``repr``, so two configs share a
    fingerprint iff they are equal —
    across processes, interpreter restarts, and ``PYTHONHASHSEED``
    values.
    """
    if not isinstance(config, SpectralConfig):
        raise InvalidParameterError(
            f"expected a SpectralConfig, got {type(config).__name__}"
        )
    parts = [f"{field.name}={getattr(config, field.name)!r}"
             .encode("utf-8") for field in dataclasses.fields(config)]
    return _digest("config", *parts)


def grid_fingerprint(grid: Grid) -> str:
    """Deterministic digest of a grid domain (its shape)."""
    return _digest("grid", repr(grid.shape).encode("ascii"))


def graph_fingerprint(graph: Graph, content: str | None = None) -> str:
    """Deterministic digest of a user-graph domain (content hash).

    ``content`` optionally supplies a precomputed
    :meth:`~repro.graph.adjacency.Graph.content_fingerprint` so callers
    that already hashed the CSR arrays (hashing is O(edges)) need not
    pay a second pass.
    """
    if content is None:
        content = graph.content_fingerprint()
    return _digest("graph", content.encode("ascii"))


def points_fingerprint(grid: Grid, cells: Sequence[int]) -> str:
    """Deterministic digest of a sparse point-set domain.

    The cell set is canonicalized exactly the way
    :func:`~repro.graph.builders.induced_grid_graph` does (ascending
    distinct flat indices), so any input ordering of the same cells
    yields the same fingerprint.
    """
    canonical = np.unique(np.asarray(cells, dtype=np.int64))
    return _digest("points", repr(grid.shape).encode("ascii"),
                   canonical.tobytes())


def domain_fingerprint(domain: Domain) -> str:
    """Dispatch to the fingerprint of a grid, point-set or graph domain.

    The one domain → digest switch: order keys and shard routing both
    read it, so every configuration over one domain shares its digest.
    """
    if isinstance(domain, Grid):
        return grid_fingerprint(domain)
    if isinstance(domain, PointSet):
        return points_fingerprint(domain.grid, domain.cells)
    if isinstance(domain, Graph):
        return graph_fingerprint(domain)
    raise InvalidParameterError(
        f"domain must be a Grid, PointSet or Graph, "
        f"got {type(domain).__name__}"
    )


def order_key(config: SpectralConfig, domain_digest: str) -> str:
    """The cache key of one ordering request.

    ``domain_digest`` is the output of one of the domain fingerprint
    functions; combining at the digest level keeps the key width fixed
    regardless of domain size.
    """
    return _digest("order", config_fingerprint(config).encode("ascii"),
                   domain_digest.encode("ascii"))
