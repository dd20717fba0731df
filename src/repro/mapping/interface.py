"""One interface over every locality-preserving mapping.

Metrics, query engines, storage simulators, and experiment harnesses all
consume a :class:`LocalityMapping`: something that can produce a
:class:`~repro.core.ordering.LinearOrder` over the cells of a domain.
The two families —

* :class:`CurveMapping` (Sweep, Snake, Peano/Z-order, Gray, Hilbert,
  Diagonal), and
* :class:`SpectralMapping` (the paper's contribution)

— are thereby interchangeable everywhere, which is what lets each figure
harness be a single loop over mapping names.

:class:`LocalityMapping` is the one mapping interface: an ordering
function with a per-grid memo.  It orders any member of the ``Domain``
union — :class:`~repro.geometry.Grid`,
:class:`~repro.geometry.PointSet`, or :class:`~repro.graph.Graph` —
through :meth:`LocalityMapping.order_domain` (families that cannot
serve a domain kind raise :class:`~repro.errors.DomainError` instead of
guessing), and names the orders it produces through
:meth:`LocalityMapping.cache_identity`.  A mapping holds no ordering
service: :class:`~repro.api.SpectralIndex` is the one layer that sends
an order to the service, as a domain plus a
:class:`~repro.core.spectral.SpectralConfig`.  The :mod:`repro.api`
resolvers (:func:`~repro.api.make_mapping`,
:meth:`~repro.api.SpectralIndex.build`) accept instances of it.

Grids whose sides are not powers of two are handled the standard way for
bit-interleaved curves: cells are keyed on the enclosing power-of-two
cube and the keys are densified into ranks (exactly how Hilbert-packed
R-trees are built in practice).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

import numpy as np

from repro.core.bisection import spectral_bisection_order
from repro.core.ordering import LinearOrder
from repro.core.spectral import SpectralLPM
from repro.curves.base import enclosing_bits
from repro.curves.registry import CURVE_NAMES, make_curve
from repro.curves.vectorized import batch_encoder
from repro.errors import DomainError, InvalidParameterError
from repro.geometry.grid import Grid
from repro.geometry.pointset import PointSet
from repro.graph.adjacency import Graph

#: Mapping names accepted by :func:`repro.api.make_mapping`.
MAPPING_NAMES = CURVE_NAMES + ("spectral", "spectral-rb")

#: The five mappings compared in the paper's Section 5.
PAPER_MAPPING_NAMES = ("sweep", "peano", "gray", "hilbert", "spectral")


class LocalityMapping(ABC):
    """A named way of linearizing a domain's cells.

    Orders are cached per grid: spectral orders cost an eigensolve and
    experiment harnesses ask for the same grid repeatedly.
    """

    def __init__(self) -> None:
        self._cache: Dict[Grid, LinearOrder] = {}

    @property
    @abstractmethod
    def name(self) -> str:
        """Registry / display name."""

    def cache_identity(self) -> Tuple:
        """The identity order-sharing caches key this mapping's orders by.

        Two mappings with equal identities produce bit-identical orders
        for every domain, so facades may share one materialized view
        between them.  The default, ``("instance", id(self))``, is for
        mappings carrying state a value cannot represent: each instance
        gets its own view.  Families whose orders are a pure function
        of a value (a curve name, a
        :class:`~repro.core.spectral.SpectralConfig`) return that value.
        """
        return ("instance", id(self))

    @abstractmethod
    def _compute_order(self, grid: Grid) -> LinearOrder:
        """Compute the order for a grid (uncached)."""

    def order_for_grid(self, grid: Grid) -> LinearOrder:
        """The linear order of ``grid``'s cells (cached)."""
        if grid not in self._cache:
            self._cache[grid] = self._compute_order(grid)
        return self._cache[grid]

    def ranks_for_grid(self, grid: Grid) -> np.ndarray:
        """Read-only rank array: ``ranks[flat_cell_index] = rank``."""
        return self.order_for_grid(grid).ranks

    # ------------------------------------------------------------------
    # The unified Domain entry point
    # ------------------------------------------------------------------
    def order_domain(self, domain) -> LinearOrder:
        """Order any member of the ``Domain`` union.

        ``domain`` is a :class:`~repro.geometry.Grid` (orders every
        cell, through the per-grid memo), a
        :class:`~repro.geometry.PointSet` (orders positions in its
        canonical cell array), or a :class:`~repro.graph.Graph` (orders
        vertices).  Domain kinds a family cannot serve raise
        :class:`~repro.errors.DomainError`.
        """
        if isinstance(domain, Grid):
            return self.order_for_grid(domain)
        if isinstance(domain, PointSet):
            return self._order_point_set(domain)
        if isinstance(domain, Graph):
            return self._order_graph_domain(domain)
        raise InvalidParameterError(
            f"domain must be a Grid, PointSet or Graph, "
            f"got {type(domain).__name__}"
        )

    def _order_point_set(self, points: PointSet) -> LinearOrder:
        raise DomainError(
            f"mapping {self.name!r} cannot order point-set domains"
        )

    def _order_graph_domain(self, graph: Graph) -> LinearOrder:
        raise DomainError(
            f"mapping {self.name!r} cannot order graph domains "
            "(it needs grid coordinates)"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class CurveMapping(LocalityMapping):
    """A space-filling-curve (or keyed) order as a mapping."""

    def __init__(self, curve_name: str):
        super().__init__()
        if curve_name not in CURVE_NAMES:
            raise InvalidParameterError(
                f"unknown curve {curve_name!r}; expected one of {CURVE_NAMES}"
            )
        self._curve_name = curve_name

    @property
    def name(self) -> str:
        return self._curve_name

    def cache_identity(self) -> Tuple:
        return ("curve", self._curve_name)

    def _curve_keys(self, grid: Grid, coords: np.ndarray) -> np.ndarray:
        """Curve keys of ``coords`` on the enclosing power-of-two cube."""
        bits = enclosing_bits(max(grid.shape))
        encoder = batch_encoder(self._curve_name)
        if encoder is not None and bits * grid.ndim <= 62:
            return encoder(coords, bits)
        curve = make_curve(self._curve_name, grid.ndim, bits)
        return np.fromiter(
            (curve.point_to_key(tuple(point)) for point in coords),
            dtype=np.int64, count=len(coords),
        )

    def _compute_order(self, grid: Grid) -> LinearOrder:
        keys = self._curve_keys(grid, grid.coordinates())
        # Densify: distinct keys -> ranks 0..n-1 preserving key order.
        perm = np.argsort(keys, kind="stable")
        return LinearOrder(perm)

    def _order_point_set(self, points: PointSet) -> LinearOrder:
        # A curve orders any subset the way it orders the full grid:
        # by key.  The induced order over subset positions is therefore
        # consistent with the full-grid ranks restricted to the subset.
        keys = self._curve_keys(points.grid, points.coordinates())
        return LinearOrder(np.argsort(keys, kind="stable"))


class SpectralMapping(LocalityMapping):
    """Spectral LPM as a mapping; forwards kwargs to :class:`SpectralLPM`.

    Orders are computed by the mapping's own algorithm and memoized per
    grid.  To share solves across mappings, indexes and restarts, order
    through a :class:`~repro.api.SpectralIndex` built on a shared
    :class:`~repro.service.OrderingService`: the index sends the
    service this mapping's :class:`~repro.core.spectral.SpectralConfig`.
    """

    def __init__(self, **spectral_kwargs):
        super().__init__()
        self._algorithm = SpectralLPM(**spectral_kwargs)

    @property
    def name(self) -> str:
        return "spectral"

    @property
    def algorithm(self) -> SpectralLPM:
        return self._algorithm

    def cache_identity(self) -> Tuple:
        if not self._algorithm.cacheable:
            return super().cache_identity()
        return ("spectral", self._algorithm.config)

    def _compute_order(self, grid: Grid) -> LinearOrder:
        return self._algorithm.order_grid(grid)

    def _order_point_set(self, points: PointSet) -> LinearOrder:
        order, _ = self._algorithm.order_points(points.grid, points.cells)
        return order

    def _order_graph_domain(self, graph: Graph) -> LinearOrder:
        return self._algorithm.order_graph(graph)


class SpectralBisectionMapping(LocalityMapping):
    """Recursive median-cut spectral bisection (the paper's ref. [1]).

    A divide-and-conquer alternative to Spectral LPM's one global sort;
    see :func:`repro.core.bisection.spectral_bisection_order`.
    """

    def __init__(self, backend: str = "auto", leaf_size: int = 8,
                 connectivity="orthogonal"):
        super().__init__()
        self._backend = backend
        self._leaf_size = leaf_size
        self._connectivity = connectivity

    @property
    def name(self) -> str:
        return "spectral-rb"

    def cache_identity(self) -> Tuple:
        return ("spectral-rb", self._backend, self._leaf_size,
                str(self._connectivity))

    def _compute_order(self, grid: Grid) -> LinearOrder:
        from repro.graph.builders import grid_graph
        graph = grid_graph(grid, connectivity=self._connectivity)
        return self._order_graph_domain(graph)

    def _order_graph_domain(self, graph: Graph) -> LinearOrder:
        return spectral_bisection_order(graph, backend=self._backend,
                                        leaf_size=self._leaf_size)

    def _order_point_set(self, points: PointSet) -> LinearOrder:
        from repro.graph.builders import induced_grid_graph
        graph, _ = induced_grid_graph(points.grid, points.cells,
                                      connectivity=self._connectivity)
        return self._order_graph_domain(graph)


class ExplicitMapping(LocalityMapping):
    """A fixed, precomputed order for one specific grid.

    Useful in tests and for feeding externally produced orders through the
    metric/storage machinery.
    """

    def __init__(self, grid: Grid, order: LinearOrder,
                 name: str = "explicit"):
        super().__init__()
        if order.n != grid.size:
            raise InvalidParameterError(
                f"order covers {order.n} items, grid has {grid.size} cells"
            )
        self._grid = grid
        self._order = order
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    def _compute_order(self, grid: Grid) -> LinearOrder:
        if grid != self._grid:
            raise InvalidParameterError(
                f"this mapping is defined only for {self._grid!r}"
            )
        return self._order


def paper_mappings(**spectral_kwargs) -> List[LocalityMapping]:
    """The five Section-5 mappings: Sweep, Peano, Gray, Hilbert, Spectral.

    ``spectral_kwargs`` configure the spectral member.
    """
    mappings: List[LocalityMapping] = [
        CurveMapping(name) for name in ("sweep", "peano", "gray", "hilbert")
    ]
    mappings.append(SpectralMapping(**spectral_kwargs))
    return mappings
