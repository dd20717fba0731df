"""Tests for repro.service.ordering (the OrderingService cache tiers)."""

import numpy as np
import pytest

from repro.core import SpectralConfig, SpectralLPM
from repro.errors import InvalidParameterError
from repro.geometry import Grid
from repro.graph import path_graph
from repro.linalg import solver_invocations
from repro.api import make_mapping
from repro.mapping import SpectralMapping
from repro.query import LinearStore
from repro.service import ArtifactStore, OrderingService


@pytest.fixture
def grid():
    return Grid((10, 10))


# ----------------------------------------------------------------------
# Memory tier
# ----------------------------------------------------------------------
def test_warm_memory_hit_is_bit_identical_and_solve_free(grid):
    service = OrderingService()
    cold = service.order_grid(grid)
    before = solver_invocations()
    warm = service.order_grid(grid)
    assert solver_invocations() == before, \
        "a warm cache hit must not invoke the eigensolver"
    assert np.array_equal(cold.permutation, warm.permutation)
    assert np.array_equal(cold.ranks, warm.ranks)
    assert service.stats.memory_hits == 1
    assert service.stats.computed == 1


def test_cache_matches_direct_pipeline(grid):
    config = SpectralConfig(weight="inverse_manhattan", backend="dense")
    service = OrderingService()
    via_service = service.order_grid(grid, config)
    direct = SpectralLPM.from_config(config).order_grid(grid)
    assert via_service == direct


def test_distinct_configs_get_distinct_entries(grid):
    service = OrderingService()
    a = service.order_grid(grid, SpectralConfig())
    b = service.order_grid(grid, SpectralConfig(weight="inverse_manhattan",
                                                radius=2))
    assert service.stats.computed == 2
    assert a != b  # different weight models order this grid differently


def test_artifact_provenance(grid):
    service = OrderingService()
    artifact = service.grid_artifact(grid, SpectralConfig(backend="dense"))
    assert artifact.source == "computed"
    assert artifact.backend == "dense"
    assert artifact.solver_calls >= 1
    assert artifact.lambda2 is not None and artifact.lambda2 > 0
    assert artifact.multiplicity is not None and artifact.multiplicity >= 1
    assert artifact.residual is not None and artifact.residual < 1e-6
    assert artifact.domain == "grid(10, 10)"
    # A memory hit reports its tier and zero spent solves.
    again = service.grid_artifact(grid, SpectralConfig(backend="dense"))
    assert again.source == "memory"
    assert again.solver_calls == 0


def test_lru_eviction_recomputes():
    service = OrderingService(memory_entries=1)
    g1, g2 = Grid((6, 6)), Grid((7, 7))
    service.order_grid(g1)
    service.order_grid(g2)  # evicts g1
    service.order_grid(g1)
    assert service.stats.computed == 3
    assert service.stats.memory_hits == 0


# ----------------------------------------------------------------------
# Disk tier
# ----------------------------------------------------------------------
def test_disk_tier_survives_restart_with_zero_solves(grid, tmp_path):
    config = SpectralConfig(weight="inverse_euclidean")
    first = OrderingService(store=str(tmp_path / "orders"))
    cold = first.grid_artifact(grid, config)

    restarted = OrderingService(store=str(tmp_path / "orders"))
    before = solver_invocations()
    warm = restarted.grid_artifact(grid, config)
    assert solver_invocations() == before, \
        "a service restart over a warm store must pay zero eigensolves"
    assert warm.source == "disk"
    assert np.array_equal(warm.order.permutation, cold.order.permutation)
    # Provenance round-trips through the store.
    assert warm.backend == cold.backend
    assert warm.lambda2 == pytest.approx(cold.lambda2)
    assert warm.residual == pytest.approx(cold.residual)
    assert warm.config == config
    assert restarted.stats.disk_hits == 1
    # Second ask is then served from memory.
    assert restarted.grid_artifact(grid, config).source == "memory"


def test_store_accepts_artifactstore_instance(grid, tmp_path):
    store = ArtifactStore(tmp_path / "orders")
    service = OrderingService(store=store)
    service.order_grid(grid)
    assert len(store) == 1


# ----------------------------------------------------------------------
# Non-grid domains
# ----------------------------------------------------------------------
def test_graph_domain_cached_by_content():
    service = OrderingService()
    first = service.order_graph(path_graph(24))
    before = solver_invocations()
    second = service.order_graph(path_graph(24))  # fresh object, same graph
    assert solver_invocations() == before
    assert first == second
    # Path graphs order as the path itself (up to reversal).
    assert list(first.permutation) in (list(range(24)),
                                       list(range(23, -1, -1)))


def test_entry_point_fixes_the_domain_kind(grid):
    service = OrderingService()
    with pytest.raises(InvalidParameterError):
        service.order_graph(grid)
    with pytest.raises(InvalidParameterError):
        service.grid_artifact(path_graph(6))
    # A shape tuple is the facade's spelling of a grid.
    assert service.order_grid((10, 10)) == service.order_grid(grid)


def test_points_domain_cached_and_canonicalized():
    service = OrderingService()
    grid = Grid((8, 8))
    order1, cells1 = service.order_points(grid, [9, 10, 11, 3, 2, 1])
    before = solver_invocations()
    order2, cells2 = service.order_points(grid, [1, 2, 3, 9, 10, 11])
    assert solver_invocations() == before
    assert order1 == order2
    assert np.array_equal(cells1, cells2)
    direct, _ = SpectralLPM().order_points(grid, [1, 2, 3, 9, 10, 11])
    assert order1 == direct


# ----------------------------------------------------------------------
# Cacheability guard
# ----------------------------------------------------------------------
def test_callable_weight_bypasses_cache(grid):
    def cliff(offset):
        return 0.5

    service = OrderingService()
    algorithm = SpectralLPM(weight=cliff)
    assert not algorithm.cacheable
    a = service.order_grid(grid, algorithm)
    b = service.order_grid(grid, algorithm)
    assert service.stats.uncacheable == 2
    assert service.stats.computed == 0
    assert a == b
    assert a == algorithm.order_grid(grid)


def test_config_from_callable_weight_rejected_loudly(grid):
    """A config lifted off a callable-weight algorithm must not silently
    resolve to a same-named registry model (regression test)."""
    def unit(offset):  # deliberately collides with the registry name
        return 10.0 if offset[0] != 0 else 0.1

    algorithm = SpectralLPM(weight=unit)
    assert algorithm.config.weight == "callable:unit"
    service = OrderingService()
    with pytest.raises(InvalidParameterError):
        service.order_grid(grid, algorithm.config)
    # The instance itself still works (uncached).
    assert service.order_grid(grid, algorithm) == \
        algorithm.order_grid(grid)


def test_multilevel_orders_are_history_independent():
    """Same (config, domain) through services with different request
    histories must produce identical orders (regression test: the
    hierarchy cache's matchings are canonical, not first-come)."""
    grid = Grid((14, 14))
    target = SpectralConfig(weight="inverse_euclidean",
                            connectivity="moore", backend="multilevel")
    other = SpectralConfig(weight="gaussian", connectivity="moore",
                           backend="multilevel")

    with_history = OrderingService()
    with_history.order_grid(grid, other)     # warms the hierarchy cache
    a = with_history.order_grid(grid, target)

    cold = OrderingService()
    b = cold.order_grid(grid, target)
    assert np.array_equal(a.permutation, b.permutation)


def test_explicit_probe_bypasses_cache(grid):
    probe = np.linspace(-1.0, 1.0, grid.size)
    algorithm = SpectralLPM(probe=probe)
    assert not algorithm.cacheable
    service = OrderingService()
    service.order_grid(grid, algorithm)
    assert service.stats.uncacheable == 1


def test_cacheable_algorithm_uses_cache(grid):
    service = OrderingService()
    algorithm = SpectralLPM(weight="inverse_manhattan")
    assert algorithm.cacheable
    a = service.order_grid(grid, algorithm)
    # Same config as a value object hits the same entry.
    before = solver_invocations()
    b = service.order_grid(grid, algorithm.config)
    assert solver_invocations() == before
    assert a == b


def test_invalid_config_rejected(grid):
    service = OrderingService()
    with pytest.raises(InvalidParameterError):
        service.order_grid(grid, config="spectral")


# ----------------------------------------------------------------------
# Wiring: mapping and LinearStore
# ----------------------------------------------------------------------
def test_spectral_mapping_routes_through_service(grid):
    service = OrderingService()
    m1 = SpectralMapping(service=service)
    m2 = make_mapping("spectral", service=service)
    a = m1.order_for_grid(grid)
    before = solver_invocations()
    b = m2.order_for_grid(grid)
    assert solver_invocations() == before, \
        "two mappings sharing a service must share one eigensolve"
    assert a == b
    assert m2.service is service


def test_make_mapping_ignores_service_for_curves(grid):
    service = OrderingService()
    mapping = make_mapping("hilbert", service=service)
    mapping.order_for_grid(grid)
    assert service.stats.computed == 0


def test_linear_store_shares_service_orders(grid):
    service = OrderingService()
    mapping = SpectralMapping()  # no service of its own
    store1 = LinearStore(grid, mapping, page_size=8, service=service)
    before = solver_invocations()
    store2 = LinearStore(grid, SpectralMapping(), page_size=4,
                         service=service)
    assert solver_invocations() == before, \
        "stores sharing a service must share one eigensolve"
    assert np.array_equal(store1._ranks, store2._ranks)
    assert service.stats.computed == 1


def test_linear_store_keeps_memo_for_uncacheable_mapping(grid):
    """A non-cacheable mapping's per-grid memo must not be bypassed by
    the store-level service (regression test: routing it through the
    cache-bypassing service re-solved per store)."""
    mapping = SpectralMapping(weight=lambda offset: 1.0)
    service = OrderingService()
    LinearStore(grid, mapping, page_size=8, service=service)
    before = solver_invocations()
    LinearStore(grid, mapping, page_size=4, service=service)
    assert solver_invocations() == before, \
        "the second store must reuse the mapping's memoized order"
    assert service.stats.uncacheable == 0  # service never consulted


def test_linear_store_respects_mapping_own_service(grid):
    mapping_service = OrderingService()
    store_service = OrderingService()
    mapping = SpectralMapping(service=mapping_service)
    LinearStore(grid, mapping, page_size=8, service=store_service)
    assert mapping_service.stats.computed == 1
    assert store_service.stats.computed == 0
