"""Tests for repro.service.ordering (the OrderingService cache tiers)."""

import numpy as np
import pytest

import repro.service.fingerprint as fingerprint
from repro.core import SpectralConfig, SpectralLPM
from repro.errors import DomainError, InvalidParameterError
from repro.geometry import Grid, PointSet
from repro.graph import path_graph
from repro.linalg import solver_invocations
from repro.mapping import SpectralMapping
from repro.query import LinearStore
from repro.service import ArtifactStore, OrderingService, ServiceStats


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


def test_tampered_store_permutation_is_recomputed(tmp_path):
    """A stored order edited into another valid permutation is never
    served: the fresh service counts a load failure and solves again."""
    grid = Grid((12, 12))
    solved = OrderingService(
        store=ArtifactStore(tmp_path)).order_grid(grid)
    (perm_path,) = tmp_path.glob("*.npy")
    permutation = np.load(perm_path)
    permutation[[0, 1]] = permutation[[1, 0]]
    with open(perm_path, "wb") as handle:
        np.save(handle, permutation)

    store = ArtifactStore(tmp_path)
    fresh = OrderingService(store=store)
    again = fresh.order_grid(grid)
    assert fresh.stats.disk_hits == 0
    assert store.load_failures == 1
    assert fresh.stats.computed == 1
    assert np.array_equal(again.ranks, solved.ranks)


def _assert_not_served_under(version, tmp_path, monkeypatch):
    """An order stored under an older FINGERPRINT_VERSION is never
    served: a store holding it solves again."""
    grid = Grid((13, 5))
    config = SpectralConfig()
    monkeypatch.setattr(fingerprint, "FINGERPRINT_VERSION", version)
    OrderingService(store=ArtifactStore(tmp_path)).order_grid(grid, config)
    monkeypatch.undo()
    assert fingerprint.FINGERPRINT_VERSION == 4
    store = ArtifactStore(tmp_path)
    fresh = OrderingService(store=store)
    fresh.order_grid(grid, config)
    assert fresh.stats.disk_hits == 0
    assert fresh.stats.computed == 1
    assert len(store) == 2


def test_orders_stored_under_fingerprint_version_1_are_not_served(
        tmp_path, monkeypatch):
    """Version 1 keys name orders whose bfs start came from the raw
    Fiedler vector and whose large auto grids came from the multilevel
    approximation."""
    _assert_not_served_under(1, tmp_path, monkeypatch)


def test_orders_stored_under_fingerprint_version_2_are_not_served(
        tmp_path, monkeypatch):
    """Version 2 keys name service multilevel orders coarsened on
    unit-weight copies of the graph."""
    _assert_not_served_under(2, tmp_path, monkeypatch)


def test_orders_stored_under_fingerprint_version_3_are_not_served(
        tmp_path, monkeypatch):
    """Version 3 keys may name multilevel orders that a process whose
    environment lowered auto's multilevel cutoff stored under auto."""
    _assert_not_served_under(3, tmp_path, monkeypatch)


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
    first = PointSet(grid, [9, 10, 11, 3, 2, 1])
    order1 = service.points_artifact(first).order
    before = solver_invocations()
    second = PointSet(grid, [1, 2, 3, 9, 10, 11])
    order2 = service.points_artifact(second).order
    assert solver_invocations() == before
    assert order1 == order2
    assert np.array_equal(first.cells, second.cells)
    direct, _ = SpectralLPM().order_points(grid, [1, 2, 3, 9, 10, 11])
    assert order1 == direct


@pytest.mark.parametrize("cells, error", [
    ([], InvalidParameterError),
    ([99], DomainError),
])
def test_point_entry_points_share_the_point_set_rule(cells, error):
    # PointSet, SpectralLPM.order_points and the service's
    # points_artifact agree on what a valid point set is, and the
    # service rejects an invalid one before it computes, caches or
    # counts anything.
    grid = Grid((4, 4))
    service = OrderingService()
    before = service.stats
    for entry in (lambda: PointSet(grid, cells),
                  lambda: SpectralLPM().order_points(grid, cells),
                  lambda: service.points_artifact(PointSet(grid, cells))):
        with pytest.raises(error) as raised:
            entry()
        assert raised.type is error
    assert service.stats == before


# ----------------------------------------------------------------------
# Cacheability guard
# ----------------------------------------------------------------------
def test_callable_weight_bypasses_cache(grid):
    """A request is a domain plus a SpectralConfig: the service refuses
    an algorithm object, cacheable or not, before any key exists, so it
    never runs a callable a request carries.  A callable-weight order
    comes from the algorithm itself, outside every cache tier."""
    calls = []

    def cliff(offset):
        calls.append(offset)
        return 0.5

    service = OrderingService()
    for algorithm in (SpectralLPM(weight=cliff), SpectralLPM()):
        for call in (lambda: service.order_grid(grid, algorithm),
                     lambda: service.graph_artifact(path_graph(4),
                                                    algorithm),
                     lambda: service.points_artifact(
                         PointSet(grid, [0, 1, 2]), algorithm),
                     lambda: service.order_many([(grid, algorithm)])):
            with pytest.raises(InvalidParameterError):
                call()
    assert calls == []
    assert service.stats == ServiceStats()
    assert SpectralLPM(weight=cliff).order_grid(grid).n == grid.size


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
    assert service.stats == ServiceStats()


def test_multilevel_orders_are_history_independent():
    """Same (config, domain) through services with different request
    histories must produce identical orders: no coarsening outlives the
    solve that built it."""
    grid = Grid((14, 14))
    target = SpectralConfig(weight="inverse_euclidean",
                            connectivity="moore", backend="multilevel")
    other = SpectralConfig(weight="gaussian", connectivity="moore",
                           backend="multilevel")

    with_history = OrderingService()
    with_history.order_grid(grid, other)     # same topology first
    a = with_history.order_grid(grid, target)

    cold = OrderingService()
    b = cold.order_grid(grid, target)
    assert np.array_equal(a.permutation, b.permutation)


def test_cacheable_algorithm_uses_cache(grid):
    service = OrderingService()
    algorithm = SpectralLPM(weight="inverse_manhattan")
    assert algorithm.cacheable
    a = service.order_grid(grid, algorithm.config)
    # An equal config built separately hits the same entry.
    before = solver_invocations()
    b = service.order_grid(grid, SpectralConfig(weight="inverse_manhattan"))
    assert solver_invocations() == before
    assert a == b == algorithm.order_grid(grid)


def test_invalid_config_rejected(grid):
    service = OrderingService()
    with pytest.raises(InvalidParameterError):
        service.order_grid(grid, config="spectral")


@pytest.mark.parametrize("config", [
    SpectralConfig(backend="magma"),
    SpectralConfig(radius=0),
    SpectralConfig(connectivity="hexagonal"),
], ids=["backend", "radius", "connectivity"])
def test_bad_config_field_raises_before_any_key_or_compute(config):
    """Even a domain that needs no solve (two cells) rejects the config
    up front: nothing is computed, cached or counted."""
    service = OrderingService()
    grid = Grid((1, 2))
    calls = [
        lambda: service.grid_artifact(grid, config),
        lambda: service.order_graph(path_graph(2), config),
        lambda: service.points_artifact(PointSet(grid, [0, 1]), config),
        lambda: service.order_many([(grid, config)]),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError):
            call()
    assert service.stats == ServiceStats()


def test_connectivity_aliases_share_one_key_and_one_solve():
    grid = Grid((30, 30))
    service = OrderingService()
    before = solver_invocations()
    artifacts = [
        service.grid_artifact(grid, SpectralConfig(connectivity="orthogonal")),
        service.grid_artifact(grid, SpectralConfig(connectivity=4)),
        service.grid_artifact(grid, SpectralLPM(connectivity=4).config),
    ]
    assert len({artifact.key for artifact in artifacts}) == 1
    assert [artifact.source for artifact in artifacts] == \
        ["computed", "memory", "memory"]
    service.order_many([(grid, SpectralConfig(connectivity="4"))])
    assert service.stats.computed == 1
    assert service.stats.memory_hits == 3
    assert solver_invocations() - before == 1


# ----------------------------------------------------------------------
# LinearStore
# ----------------------------------------------------------------------
def test_linear_store_keeps_memo_for_uncacheable_mapping(grid):
    """Two stores over one callable-weight mapping pay one solve: the
    mapping's per-grid memo serves the second."""
    mapping = SpectralMapping(weight=lambda offset: 1.0)
    first = LinearStore(grid, mapping, page_size=8)
    before = solver_invocations()
    second = LinearStore(grid, mapping, page_size=4)
    assert solver_invocations() == before, \
        "the second store must reuse the mapping's memoized order"
    assert np.array_equal(first._ranks, second._ranks)
