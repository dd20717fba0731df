"""The LocalityMapping interface: cache identity, resolution, and
domain dispatch."""

import numpy as np
import pytest

from repro.api import LocalityMapping, PointSet, SpectralIndex, make_mapping
from repro.api.mappings import MappingSpec  # noqa: F401 - exported type
from repro.core.ordering import LinearOrder
from repro.core.spectral import SpectralConfig
from repro.errors import DomainError, InvalidParameterError
from repro.geometry import Grid
from repro.graph import grid_graph
from repro.mapping import (
    CurveMapping,
    ExplicitMapping,
    SpectralBisectionMapping,
    SpectralMapping,
)
from repro.service import OrderingService


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def test_make_mapping_resolves_names():
    assert isinstance(make_mapping("hilbert"), CurveMapping)
    assert isinstance(make_mapping("spectral"), SpectralMapping)
    assert isinstance(make_mapping("spectral-rb"),
                      SpectralBisectionMapping)
    # Multilevel orders are the spectral family under its backend.
    multilevel = make_mapping(SpectralConfig(backend="multilevel"))
    assert isinstance(multilevel, SpectralMapping)
    assert multilevel.algorithm.config.backend == "multilevel"


def test_make_mapping_accepts_spectral_config_as_spec():
    mapping = make_mapping(SpectralConfig(weight="gaussian"))
    assert isinstance(mapping, SpectralMapping)
    assert mapping.algorithm.config.weight == "gaussian"


def test_make_mapping_passes_instances_through():
    mapping = CurveMapping("gray")
    assert make_mapping(mapping) is mapping
    with pytest.raises(InvalidParameterError):
        make_mapping(mapping, config=SpectralConfig())
    with pytest.raises(InvalidParameterError):
        make_mapping(mapping, backend="dense")


def test_make_mapping_config_applies_to_spectral_and_not_curves():
    config = SpectralConfig(backend="dense", weight="inverse_manhattan")
    spectral = make_mapping("spectral", config=config)
    assert spectral.algorithm.config.backend == "dense"
    assert spectral.algorithm.config.weight == "inverse_manhattan"
    # kwargs override the config
    override = make_mapping("spectral", config=config, weight="unit")
    assert override.algorithm.config.weight == "unit"
    # curves accept (and ignore) the config, reject kwargs
    assert isinstance(make_mapping("sweep", config=config), CurveMapping)
    with pytest.raises(InvalidParameterError):
        make_mapping("sweep", backend="dense")


def test_make_mapping_rejects_junk_specs():
    with pytest.raises(InvalidParameterError):
        make_mapping("no-such-mapping")
    with pytest.raises(InvalidParameterError):
        make_mapping(42)
    with pytest.raises(InvalidParameterError):
        make_mapping(SpectralConfig(), config=SpectralConfig())


# ----------------------------------------------------------------------
# Protocol and cache identity
# ----------------------------------------------------------------------
def test_every_family_satisfies_the_protocol():
    grid = Grid((3, 3))
    families = [
        make_mapping("hilbert"),
        make_mapping("spectral"),
        make_mapping("spectral-rb"),
        make_mapping(SpectralConfig(backend="multilevel")),
        ExplicitMapping(grid, LinearOrder(np.arange(9))),
    ]
    for mapping in families:
        assert isinstance(mapping, LocalityMapping)
        assert isinstance(mapping.name, str)
        hash(mapping.cache_identity())
        assert mapping.order_domain(grid).n == grid.size


def test_capabilities_reflect_reality():
    """cache_identity is a value exactly when the order is a pure
    function of one: equal spectral configs and curve names share it,
    while a callable-weight mapping and an explicit order get their
    instance's identity."""
    assert make_mapping("hilbert").cache_identity() == \
        make_mapping("hilbert").cache_identity() == ("curve", "hilbert")
    assert make_mapping("hilbert").cache_identity() != \
        make_mapping("gray").cache_identity()
    # Aliases resolve to one canonical config, hence one identity.
    assert make_mapping("spectral").cache_identity() == \
        make_mapping(SpectralConfig(connectivity=4)).cache_identity() == \
        ("spectral", SpectralConfig())
    assert make_mapping("spectral").cache_identity() != \
        make_mapping("spectral", weight="gaussian").cache_identity()
    custom = make_mapping("spectral", weight=lambda d: 1.0 / d)
    assert custom.cache_identity() == ("instance", id(custom))
    explicit = ExplicitMapping(Grid((2, 2)), LinearOrder(np.arange(4)))
    assert explicit.cache_identity() == ("instance", id(explicit))
    assert ExplicitMapping(Grid((2, 2)), LinearOrder(np.arange(4))) \
        .cache_identity() != explicit.cache_identity()


# ----------------------------------------------------------------------
# order_domain across the union
# ----------------------------------------------------------------------
def test_order_domain_grid_matches_order_for_grid():
    grid = Grid((5, 5))
    for spec in ("hilbert", "spectral", "spectral-rb",
                 SpectralConfig(backend="multilevel")):
        mapping = make_mapping(spec)
        assert (mapping.order_domain(grid)
                == mapping.order_for_grid(grid))


def test_order_domain_rejects_unknown_domains():
    with pytest.raises(InvalidParameterError):
        make_mapping("hilbert").order_domain("nope")


def test_curve_point_set_order_is_the_restricted_grid_order():
    """A curve orders a subset exactly as the full-grid order restricted
    to that subset (both are sorted by curve key)."""
    grid = Grid((6, 6))
    cells = np.array([1, 7, 8, 14, 20, 26, 32, 33])
    ps = PointSet(grid, cells)
    for name in ("hilbert", "peano", "gray", "sweep"):
        mapping = make_mapping(name)
        subset_order = mapping.order_domain(ps)
        full_ranks = mapping.ranks_for_grid(grid)
        expected = np.argsort(full_ranks[cells], kind="stable")
        assert np.array_equal(subset_order.permutation, expected)


def test_spectral_point_set_order_matches_order_points():
    grid = Grid((6, 6))
    cells = np.arange(12)
    ps = PointSet(grid, cells)
    mapping = make_mapping("spectral", backend="dense")
    via_domain = mapping.order_domain(ps)
    expected, _ = mapping.algorithm.order_points(grid, cells)
    assert via_domain == expected


def test_spectral_point_set_routes_through_service():
    """Two indexes over one point set share one solve through a shared
    service."""
    grid = Grid((6, 6))
    ps = PointSet(grid, np.arange(10))
    service = OrderingService()
    first = SpectralIndex.build(ps, service=service).order
    assert service.stats.computed == 1
    second = SpectralIndex.build(ps, service=service).order
    assert service.stats.computed == 1
    assert service.stats.memory_hits == 1
    assert first == second == \
        make_mapping("spectral").order_domain(ps)


def test_graph_domain_dispatch():
    graph = grid_graph(Grid((4, 4)))
    spectral = make_mapping("spectral", backend="dense")
    order = spectral.order_domain(graph)
    assert order == spectral.algorithm.order_graph(graph)
    rb = make_mapping("spectral-rb")
    assert rb.order_domain(graph).n == graph.num_vertices
    ml = make_mapping("spectral", backend="multilevel")
    assert ml.order_domain(graph).n == graph.num_vertices
    with pytest.raises(DomainError):
        make_mapping("hilbert").order_domain(graph)


def test_rb_and_ml_point_set_orders_cover_positions():
    grid = Grid((6, 6))
    ps = PointSet(grid, np.arange(14))
    for spec in ("spectral-rb", SpectralConfig(backend="multilevel")):
        order = make_mapping(spec).order_domain(ps)
        assert sorted(order.permutation) == list(range(len(ps)))
