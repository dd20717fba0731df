"""Spectral LPM — the paper's algorithm (Figure 2).

Given a set of multi-dimensional points:

1. model the points as a graph ``G`` (an edge wherever the Manhattan
   distance is 1 — or any of the Section-4 variants);
2. form the Laplacian ``L = D - A``;
3. compute the second-smallest eigenvalue ``lambda_2`` and its
   eigenvector ``x_2`` (the Fiedler vector);
4. assign ``x_2[i]`` to point ``p_i``;
5. the linear order is the sorted order of those values.

:class:`SpectralLPM` packages the pipeline with the determinism this
library adds (canonical degenerate-eigenspace vectors, ties broken by
vertex id, disconnected graphs ordered component by component), and
exposes entry points for full grids, sparse point subsets, and arbitrary
user graphs — the last being exactly the Section-4 claim that the
mapping "is optimal for the chosen graph type".  Its configuration is
the paper's four choices: the graph model (``connectivity``, ``radius``,
``weight``) and the eigensolver (``backend``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.fiedler import (
    FiedlerResult,
    _fiedler_vector,
    dense_fiedler_results,
    grid_fiedler_result,
    solves_dense,
)
from repro.core.ordering import LinearOrder
from repro.errors import InvalidParameterError
from repro.geometry.grid import Grid, _normalize_connectivity
from repro.geometry.pointset import PointSet
from repro.graph.adjacency import Graph
from repro.graph.builders import grid_graph, induced_grid_graph
from repro.graph.traversal import connected_components
from repro.graph.weights import weight_function
from repro.linalg.backends import BACKENDS

#: Fiedler entries closer than this are exact ties (see :func:`snap_ties`).
SNAP_TOL = 1e-9


def snap_ties(values: np.ndarray) -> np.ndarray:
    """Collapse floating-point noise into exact ties before sorting.

    Symmetric graphs produce Fiedler vectors with *exactly* tied entries
    in exact arithmetic; in floats the ties reappear as gaps of ~1e-15
    whose sign depends on the eigensolver backend.  Sorting raw values
    would let that noise, not the vertex-id tie-break, decide the order.
    This maps values to integer group ids, where consecutive sorted
    values closer than :data:`SNAP_TOL` share a group — far above solver
    noise (~1e-13 across backends) and far below genuine eigenvector
    gaps on any grid this library targets.  A stack of vectors (a 2-D
    array) snaps row by row.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, axis=-1, kind="stable")
    group_of_sorted = np.zeros(values.shape, dtype=np.int64)
    if values.shape[-1] > 1:
        gaps = np.diff(np.take_along_axis(values, order, axis=-1), axis=-1)
        group_of_sorted[..., 1:] = np.cumsum(gaps > SNAP_TOL, axis=-1)
    groups = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(groups, order, group_of_sorted, axis=-1)
    return groups


def symmetric_grid_probe(grid: Grid) -> np.ndarray:
    """The default canonicalization probe for grid domains.

    On a hyper-cubic grid, ``lambda_2``'s eigenspace is spanned by one
    cosine mode per axis, and the probe decides which combination becomes
    the canonical Fiedler vector.  This probe — the mean-centered sum of
    normalized coordinates — is invariant under axis permutation, so its
    projection weighs every axis mode *equally*: the resulting order
    treats all dimensions alike, which is the fairness property the
    paper's Figure 5b claims (and which the paper's own Figure-3 vector,
    an equal-magnitude diagonal mix, exhibits).
    """
    coords = grid.coordinates().astype(np.float64)
    scale = np.array([max(s - 1, 1) for s in grid.shape], dtype=np.float64)
    probe = (coords / scale).sum(axis=1)
    probe -= probe.mean()
    norm = np.linalg.norm(probe)
    if norm > 0:
        probe /= norm
    return probe


@dataclass(frozen=True)
class SpectralConfig:
    """Configuration of a :class:`SpectralLPM` instance (all defaults match
    the paper's base algorithm).

    Hashable and fully value-typed, so it doubles as a cache identity:
    two ``SpectralLPM`` instances with equal configs (and no callable
    weight) produce bit-identical orders for the same domain.
    """

    connectivity: str = "orthogonal"
    radius: int = 1
    weight: str = "unit"
    backend: str = "auto"


def canonical_config(config: SpectralConfig | None = None
                     ) -> SpectralConfig:
    """The one spelling of an order's configuration, which every cache
    and flight keys it by.

    ``None`` means the defaults, and a connectivity alias (4, 8) takes
    its name, so every spelling of one order shares one key.  A bad
    field raises :class:`~repro.errors.InvalidParameterError`, as
    :class:`SpectralLPM` does.
    """
    return SpectralLPM.from_config(config or SpectralConfig()).config


class SpectralLPM:
    """The Spectral Locality-Preserving Mapping algorithm.

    Parameters
    ----------
    connectivity:
        Grid graph model: ``"orthogonal"`` (the paper's default,
        Manhattan-distance-1 edges) or ``"moore"`` (Figure 4's
        8-connectivity, generalized).  The aliases 4 and 8 are stored
        under those names, so :attr:`config` has one spelling per model.
    radius:
        Neighbourhood radius of the grid graph, at least 1 (Section-4
        weighted model uses ``radius > 1``).
    weight:
        Edge-weight model name or callable (see
        :mod:`repro.graph.weights`); the Section-4 footnote model is
        ``"inverse_manhattan"``.
    backend:
        Eigensolver backend: ``"auto"``, ``"dense"``, ``"lanczos"``,
        ``"lobpcg"``, ``"scipy"``, or ``"multilevel"``.  Guidance:

        * ``"auto"`` (default) — a full grid under the orthogonal
          radius-1 model (any weight) takes its exact Fiedler pair in
          closed form at any size
          (:func:`~repro.core.fiedler.grid_fiedler_result`, reported
          as backend ``"closed-form"``).  Everything else solves
          numerically: dense up to
          :data:`~repro.linalg.backends.DENSE_CUTOFF` vertices (225
          with scipy installed, 441 without: the measured crossovers),
          then scipy shift-invert; without scipy, preconditioned LOBPCG
          above :data:`~repro.linalg.backends.LOBPCG_CUTOFF` vertices
          and the in-house Lanczos in between; the multilevel
          approximation above
          :data:`~repro.linalg.backends.MULTILEVEL_CUTOFF` vertices
          whenever it meets its quality bound
          (:data:`~repro.linalg.backends.MULTILEVEL_QUALITY_RTOL`).
        * ``"dense"`` — exact and simple; the oracle the others are
          tested against.  It computes every eigenpair in O(n^3), so it
          wins only on graphs of a few hundred vertices.
        * ``"lanczos"`` — thick-restart Lanczos, pure numpy.  Exact (to
          solver tolerance) and dependency-free at any size.
        * ``"lobpcg"`` — blocked LOBPCG with a multilevel V-cycle
          preconditioner; the fastest pure-numpy option on large
          graphs.  Falls back to ``"lanczos"`` when a solve misses its
          residual tolerance.
        * ``"scipy"`` — fastest exact option for large graphs; requires
          the ``[perf]`` extra.
        * ``"multilevel"`` — coarsen-solve-refine approximation
          (:func:`~repro.core.multilevel.multilevel_eigenspace`):
          orders of magnitude faster on huge graphs, with a documented
          quality tolerance instead of solver-precision guarantees
          (exact symmetry ties may resolve differently than under the
          exact backends).  The one way to ask for a multilevel order.

    Fiedler entries within :data:`SNAP_TOL` tie, and ties break by
    vertex id.  A disconnected graph is ordered component by component
    (:mod:`repro.core.components`).

    The backend, radius and connectivity are validated here: a bad value
    raises :class:`~repro.errors.InvalidParameterError` before any graph
    is built or any cache is keyed.

    Examples
    --------
    >>> from repro.geometry import Grid
    >>> order = SpectralLPM().order_grid(Grid((3, 3)))
    >>> sorted(order.permutation) == list(range(9))
    True
    """

    def __init__(self, connectivity="orthogonal", radius: int = 1,
                 weight="unit", backend: str = "auto"):
        if backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if int(radius) < 1:
            raise InvalidParameterError(
                f"radius must be >= 1, got {radius}"
            )
        self._weight = weight
        self._config = SpectralConfig(
            connectivity=_normalize_connectivity(connectivity),
            radius=int(radius),
            weight=(weight if isinstance(weight, str) else "callable:"
                    + getattr(weight, "__name__", "custom")),
            backend=backend,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: SpectralConfig) -> "SpectralLPM":
        """Instantiate the algorithm a :class:`SpectralConfig` describes.

        The round-trip invariant ``SpectralLPM.from_config(lpm.config)``
        reproduces ``lpm``'s behavior exactly whenever ``lpm`` is
        :attr:`cacheable` — which is what lets services key artifacts by
        config and recompute on miss.
        """
        return cls(
            connectivity=config.connectivity,
            radius=config.radius,
            weight=config.weight,
            backend=config.backend,
        )

    @property
    def config(self) -> SpectralConfig:
        """The (hashable) configuration, for caching and reporting.

        Built once, at construction.  A callable weight model is
        rendered as ``"callable:<name>"`` — deliberately *not* a
        registered weight name, so a config lifted off a
        non-:attr:`cacheable` instance can never silently resolve to a
        same-named registry model: feeding it back through
        :meth:`from_config` fails loudly at graph-build time instead.
        """
        return self._config

    @property
    def cacheable(self) -> bool:
        """Whether :attr:`config` fully determines this instance's output.

        False when the weight model is a callable rather than a
        registered name: a :class:`SpectralConfig` cannot represent it
        (two different callables may share a ``__name__``).  Cache
        layers must bypass storage for non-cacheable instances: keying
        them by config would let distinct algorithms collide.
        """
        return isinstance(self._weight, str)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def order_graph(self, graph: Graph,
                    probe: np.ndarray | None = None) -> LinearOrder:
        """Steps 2-5 on an arbitrary prebuilt graph (Section 4).

        ``probe`` optionally overrides the degenerate-eigenspace
        canonicalization direction for this call (see
        :func:`~repro.core.fiedler.fiedler_vector`); a disconnected
        graph's components ignore it.
        """
        return self._order_graph(graph, probe, None)

    def order_graph_with_fiedler(
            self, graph: Graph, probe: np.ndarray | None = None
    ) -> Tuple[LinearOrder, list]:
        """:meth:`order_graph` plus the Fiedler pairs it computed.

        Returns ``(order, results)`` where ``results`` is the list of
        :class:`~repro.core.fiedler.FiedlerResult` produced along the way
        — one per connected component of three or more vertices, in
        order of each component's smallest vertex; empty for trivial
        graphs (``n <= 2`` components only).  Components that solve
        dense share one eigensolve per size
        (:func:`~repro.core.fiedler.dense_fiedler_results`), so a graph
        can count fewer solves than results.  Services persist these as
        solve provenance next to the cached order.
        """
        recorder: list = []
        order = self._order_graph(graph, probe, recorder)
        return order, recorder

    def _order_graph(self, graph: Graph, probe: np.ndarray | None,
                     recorder: list | None) -> LinearOrder:
        n = graph.num_vertices
        if n <= 2:
            # Up to two vertices order by id, joined or not: a pair's
            # Fiedler vector, (+, -)/sqrt(2), has no sign to prefer.
            return LinearOrder(np.arange(n))
        # One traversal per order: its labels decide connectivity and
        # cut the components, and no Fiedler solve checks again.
        labels, count = connected_components(graph)
        if count > 1:
            return self._order_components(graph, labels, count, recorder)
        result = _fiedler_vector(graph, backend=self._config.backend,
                                 probe=probe, known_connected=True)
        if recorder is not None:
            recorder.append(result)
        return _order_by_fiedler(result)

    def _order_components(self, graph: Graph, labels: np.ndarray,
                          count: int, recorder: list | None
                          ) -> LinearOrder:
        """Each component ordered alone, the orders concatenated in
        order of each component's smallest vertex
        (:mod:`repro.core.components`).

        Components of one or two vertices order by id.  Those that
        solve dense are solved in one stack per size, straight from
        ``graph`` (:func:`~repro.core.fiedler.dense_fiedler_results`);
        the rest one by one.  A component cannot use a whole-graph probe
        (the vertex count differs), so every one takes the default.
        """
        backend = self._config.backend
        sizes = np.bincount(labels, minlength=count)
        # Vertices by component, ascending within each: every
        # component's slice is its order by id until it is solved.
        permutation = np.argsort(labels, kind="stable")
        starts = np.cumsum(sizes) - sizes
        results = {}
        alone = []
        for size in np.unique(sizes[sizes > 2]).tolist():
            ids = np.flatnonzero(sizes == size)
            if not solves_dense(size, backend):
                alone += ids.tolist()
                continue
            slots = starts[ids, None] + np.arange(size)
            members = permutation[slots]
            vectors, found = dense_fiedler_results(graph, members)
            permutation[slots] = np.take_along_axis(
                members, _fiedler_permutations(vectors), axis=1)
            results.update(zip(ids.tolist(), found))
        if alone:
            # One cut for every component solved alone: the others ride
            # along as one extra part, which is dropped.
            part = np.full(count, len(alone))
            part[alone] = np.arange(len(alone))
            for component, (sub, vertices) in zip(
                    alone, graph.split(part[labels], len(alone) + 1)):
                result = _fiedler_vector(sub, backend=backend,
                                         known_connected=True)
                results[component] = result
                start = starts[component]
                permutation[start:start + len(vertices)] = \
                    vertices[_fiedler_permutations(result.vector)]
        if recorder is not None:
            recorder.extend(results[c] for c in sorted(results))
        return LinearOrder(permutation)

    def order_grid(self, grid: Grid) -> LinearOrder:
        """The full pipeline on a complete grid domain.

        The returned order is over row-major flat cell indices.  The
        axis-symmetric grid probe (:func:`symmetric_grid_probe`)
        canonicalizes degenerate eigenspaces so that all dimensions are
        treated alike.
        """
        return self._order_grid(grid, self.build_grid_graph(grid), None)

    def order_grid_with_fiedler(self, grid: Grid,
                                graph: Graph | None = None
                                ) -> Tuple[LinearOrder, list]:
        """:meth:`order_grid` plus the Fiedler pairs it computed.

        See :meth:`order_graph_with_fiedler` for the result convention.
        ``graph`` may pass this grid's :meth:`build_grid_graph`, already
        built (the ordering service builds one topology per batch).
        """
        if graph is None:
            graph = self.build_grid_graph(grid)
        recorder: list = []
        order = self._order_grid(grid, graph, recorder)
        return order, recorder

    def _order_grid(self, grid: Grid, graph: Graph,
                    recorder: list | None) -> LinearOrder:
        probe = symmetric_grid_probe(grid)
        weights = self._closed_form_weights(grid)
        if weights is not None:
            result = grid_fiedler_result(grid.shape, weights, graph, probe)
            if result is not None:
                if recorder is not None:
                    recorder.append(result)
                return _order_by_fiedler(result)
        return self._order_graph(graph, probe, recorder)

    def _closed_form_weights(self, grid: Grid) -> tuple | None:
        """The per-axis edge weights when ``grid``'s Fiedler pair is
        served in closed form, else ``None``.

        It is under ``backend="auto"`` with the orthogonal radius-1
        model on three or more cells, where the graph is a product of
        weighted paths (:func:`~repro.core.fiedler.grid_fiedler_result`).
        As in the grid builder, the weight model is evaluated once per
        axis offset, and only along axes with edges (others weigh 0).
        """
        config = self._config
        if (config.backend != "auto" or config.radius != 1
                or grid.size < 3 or config.connectivity != "orthogonal"):
            return None
        weight = weight_function(self._weight)
        weights = tuple(
            float(weight(tuple(int(a == axis) for a in range(grid.ndim))))
            if side > 1 else 0.0
            for axis, side in enumerate(grid.shape))
        if not all(math.isfinite(w) and w > 0
                   for w, side in zip(weights, grid.shape) if side > 1):
            return None
        return weights

    def order_points(self, grid: Grid,
                     cell_indices: Sequence[int]
                     ) -> Tuple[LinearOrder, np.ndarray]:
        """The pipeline on a sparse subset of grid cells.

        Returns ``(order, cells)``: ``cells`` is the ascending array of
        distinct flat cell indices actually ordered, and ``order`` is over
        positions in that array.  Subsets frequently produce disconnected
        graphs, which are ordered component by component.  The cells must
        form a valid :class:`~repro.geometry.PointSet` (at least one
        cell, every cell inside the grid), which raises otherwise.
        """
        graph, cells = induced_grid_graph(
            grid, PointSet(grid, cell_indices).cells,
            connectivity=self._config.connectivity,
            radius=self._config.radius, weight=self._weight,
        )
        return self.order_graph(graph), cells

    def build_grid_graph(self, grid: Grid) -> Graph:
        """Step 1: the configured graph model of a grid domain."""
        return grid_graph(grid, connectivity=self._config.connectivity,
                          radius=self._config.radius, weight=self._weight)

    def __repr__(self) -> str:
        return f"SpectralLPM({self.config})"


def _order_by_fiedler(result: FiedlerResult) -> LinearOrder:
    """Steps 4-5: sort by the snapped Fiedler entries, ties by vertex id."""
    return LinearOrder(_fiedler_permutations(result.vector))


def _fiedler_permutations(vectors: np.ndarray) -> np.ndarray:
    """Each row's vertices sorted by snapped Fiedler entry, ties by
    vertex id (a stable sort of the integer snap groups)."""
    return np.argsort(snap_ties(vectors), axis=-1, kind="stable")


def spectral_order(domain, **kwargs) -> LinearOrder:
    """Convenience one-call API.

    ``domain`` may be a :class:`~repro.geometry.Grid` (orders every cell)
    or a :class:`~repro.graph.Graph` (orders its vertices).  Keyword
    arguments configure :class:`SpectralLPM`.
    """
    algorithm = SpectralLPM(**kwargs)
    if isinstance(domain, Grid):
        return algorithm.order_grid(domain)
    if isinstance(domain, Graph):
        return algorithm.order_graph(domain)
    raise InvalidParameterError(
        f"domain must be a Grid or Graph, got {type(domain).__name__}"
    )
