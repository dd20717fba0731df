"""Tests for the preconditioned eigensolver backends.

Covers the LOBPCG backend end to end: the multilevel
V-cycle preconditioner (symmetry, immutability, Laplacian recognition,
content-keyed caching), agreement with the dense reference on
exact-arithmetic-hard inputs, iteration statistics, and the
miss-tolerance-falls-back contract that keeps a bad preconditioned
solve from shipping a bad order.  CI runs this module on both the scipy
and the numpy-only leg — nothing here may import scipy.
"""

import numpy as np
import pytest

import repro.linalg.backends as backends
from repro.core.multilevel import MultilevelPreconditioner
from repro.errors import ConvergenceError, InvalidParameterError
from repro.graph import (Graph, grid_graph, laplacian, path_graph)
from repro.graph.laplacian import graph_from_laplacian
from repro.geometry import Grid
from repro.linalg import smallest_eigenpairs
from repro.linalg.backends import multilevel_preconditioner_for
from repro.linalg.lobpcg import lobpcg_smallest, smallest_eigenpairs_lobpcg
from repro.linalg.sparse import CSRMatrix


@pytest.fixture(autouse=True)
def clear_preconditioner_cache():
    backends._PRECONDITIONER_CACHE.clear()
    yield
    backends._PRECONDITIONER_CACHE.clear()


def path_deflate(n):
    return [np.ones(n) / np.sqrt(n)]


# ----------------------------------------------------------------------
# graph_from_laplacian: the recognition gate
# ----------------------------------------------------------------------
def test_laplacian_round_trips_through_recognition():
    graph = grid_graph(Grid((6, 5)))
    lap = laplacian(graph)
    recovered = graph_from_laplacian(lap)
    assert recovered is not None
    assert recovered.num_vertices == graph.num_vertices
    assert np.allclose(laplacian(recovered).to_dense(), lap.to_dense())


def test_weighted_laplacian_round_trips():
    graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                             weights=[0.5, 2.0, 1.25, 3.0])
    recovered = graph_from_laplacian(laplacian(graph))
    assert recovered is not None
    assert np.allclose(laplacian(recovered).to_dense(),
                       laplacian(graph).to_dense())


def test_positive_offdiagonal_rejected():
    dense = np.array([[2.0, 1.0], [1.0, 2.0]])  # SPD, not a Laplacian
    assert graph_from_laplacian(CSRMatrix.from_dense(dense)) is None


def test_wrong_diagonal_rejected():
    dense = np.array([[5.0, -1.0], [-1.0, 1.0]])  # row sums don't vanish
    assert graph_from_laplacian(CSRMatrix.from_dense(dense)) is None


def test_zero_matrix_recognized_as_edgeless_graph():
    recovered = graph_from_laplacian(CSRMatrix.from_dense(np.zeros((3, 3))))
    assert recovered is not None
    assert recovered.num_edges == 0


# ----------------------------------------------------------------------
# MultilevelPreconditioner: the V-cycle itself
# ----------------------------------------------------------------------
def test_vcycle_is_symmetric():
    # CG and LOBPCG both require a symmetric preconditioner:
    # u.(M v) == v.(M u) to float accuracy.
    graph = grid_graph(Grid((9, 8)))
    m = MultilevelPreconditioner(graph)
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = rng.standard_normal(graph.num_vertices)
        v = rng.standard_normal(graph.num_vertices)
        left, right = u @ m.apply(v), v @ m.apply(u)
        assert abs(left - right) <= 1e-10 * max(abs(left), abs(right), 1.0)


def test_vcycle_approximates_inverse_on_complement():
    # M should contract the error of L x = b far better than the raw
    # residual: ||L M b - b|| << ||b|| on the nullspace complement.
    graph = grid_graph(Grid((12, 12)))
    lap = laplacian(graph)
    m = MultilevelPreconditioner(graph)
    n = graph.num_vertices
    ones = np.ones(n) / np.sqrt(n)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(n)
    b -= ones * (ones @ b)
    x = m.apply(b)
    residual = lap.matvec(x) - b
    residual -= ones * (ones @ residual)
    assert np.linalg.norm(residual) < 0.5 * np.linalg.norm(b)


def test_vcycle_matmat_matches_columnwise_apply():
    graph = grid_graph(Grid((7, 6)))
    m = MultilevelPreconditioner(graph)
    rng = np.random.default_rng(2)
    block = rng.standard_normal((graph.num_vertices, 3))
    blocked = m.apply(block)
    for j in range(3):
        np.testing.assert_allclose(blocked[:, j], m.apply(block[:, j]),
                                   atol=1e-12)


def test_vcycle_application_changes_no_attribute():
    # The process-wide cache hands one preconditioner to every solve of
    # an equal Laplacian, on any thread, so applying it must not write.
    graph = grid_graph(Grid((9, 8)))
    m = MultilevelPreconditioner(graph)
    before = dict(vars(m))
    arrays = {name: value.copy() for name, value in before.items()
              if isinstance(value, np.ndarray)}
    items = {name: list(value) for name, value in before.items()
             if isinstance(value, list)}
    rng = np.random.default_rng(3)
    m.apply(rng.standard_normal(graph.num_vertices))
    m.apply(rng.standard_normal((graph.num_vertices, 3)))
    after = vars(m)
    assert after.keys() == before.keys()
    for name, value in before.items():
        assert after[name] is value, name
    for name, copy in arrays.items():
        assert np.array_equal(after[name], copy), name
    for name, elements in items.items():
        assert len(after[name]) == len(elements), name
        assert all(a is b for a, b in zip(after[name], elements)), name


# ----------------------------------------------------------------------
# The preconditioner factory and its content cache
# ----------------------------------------------------------------------
def test_factory_builds_for_laplacian_and_caches_by_content():
    lap = laplacian(grid_graph(Grid((8, 8))))
    first = multilevel_preconditioner_for(lap)
    assert isinstance(first, MultilevelPreconditioner)
    # A *different object* with identical content hits the same entry.
    twin = laplacian(grid_graph(Grid((8, 8))))
    assert twin is not lap
    assert multilevel_preconditioner_for(twin) is first


def test_factory_returns_none_for_general_spd_and_stores_no_verdict():
    dense = np.array([[2.0, 1.0, 0.0],
                      [1.0, 2.0, 1.0],
                      [0.0, 1.0, 2.0]])
    matrix = CSRMatrix.from_dense(dense)
    assert multilevel_preconditioner_for(matrix) is None
    # The None verdict is not stored: recognition is one O(nnz) pass,
    # and the cache's slots are kept for built hierarchies.
    key = backends._matrix_content_key(matrix)
    assert key not in backends._PRECONDITIONER_CACHE
    assert len(backends._PRECONDITIONER_CACHE) == 0


def test_factory_cache_evicts_least_recently_used():
    cache = backends._PRECONDITIONER_CACHE
    laps = [laplacian(path_graph(side)) for side in (5, 6, 7, 8, 9)]
    for lap in laps[:4]:
        multilevel_preconditioner_for(lap)
    # Re-reading the oldest entry makes it the most recently used, so
    # the fifth build evicts the second-oldest (a FIFO would evict the
    # oldest).
    multilevel_preconditioner_for(laps[0])
    multilevel_preconditioner_for(laps[4])
    assert len(cache) == cache.capacity
    assert backends._matrix_content_key(laps[0]) in cache
    assert backends._matrix_content_key(laps[1]) not in cache
    assert backends._matrix_content_key(laps[4]) in cache


def test_distinct_weights_get_distinct_preconditioners():
    base = Graph.from_edges(30, [(i, i + 1) for i in range(29)])
    heavy = Graph.from_edges(30, [(i, i + 1) for i in range(29)],
                             weights=[2.0] * 29)
    first = multilevel_preconditioner_for(laplacian(base))
    second = multilevel_preconditioner_for(laplacian(heavy))
    assert first is not second


def test_lobpcg_falls_back_on_non_laplacian_spd():
    # General SPD input: no preconditioner, and the clustered-at-zero
    # assumption may not hold — the registry path must still return the
    # right answer (via the block solve or the Lanczos fallback).
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    spectrum = np.linspace(1.0, 10.0, 40)
    dense = (q * spectrum) @ q.T
    matrix = CSRMatrix.from_dense((dense + dense.T) / 2.0)
    values, _ = smallest_eigenpairs(matrix, 2, backend="lobpcg")
    np.testing.assert_allclose(values, spectrum[:2], atol=1e-6)


def test_lobpcg_matches_dense_on_grid():
    grid = Grid((11, 10))
    lap = laplacian(grid_graph(grid))
    n = grid.size
    deflate = path_deflate(n)
    got, got_vecs = smallest_eigenpairs(lap, 3, backend="lobpcg",
                                        deflate=deflate)
    want, _ = smallest_eigenpairs(lap, 3, backend="dense",
                                  deflate=deflate)
    np.testing.assert_allclose(got, want, atol=1e-8)
    for j in range(3):
        y = got_vecs[:, j]
        assert np.linalg.norm(lap.matvec(y) - got[j] * y) < 1e-6


def test_lobpcg_handles_degenerate_eigenspace():
    # Square grid: lambda_2 has multiplicity 2; the block must resolve
    # both without mixing in lambda_4.
    grid = Grid((10, 10))
    lap = laplacian(grid_graph(grid))
    deflate = path_deflate(grid.size)
    values, _ = smallest_eigenpairs(lap, 3, backend="lobpcg",
                                    deflate=deflate)
    assert values[0] == pytest.approx(values[1], rel=1e-8)
    assert values[2] > values[1] * (1 + 1e-6)


def test_lobpcg_stats_and_soft_locking():
    n = 200
    lap = laplacian(path_graph(n))
    stats = {}
    smallest_eigenpairs_lobpcg(
        lap.matvec, n, 2, upper_bound=lap.gershgorin_upper_bound(),
        deflate=path_deflate(n), tol=1e-9, matmat=lap.matmat,
        preconditioner=multilevel_preconditioner_for(lap), stats=stats)
    assert stats["iterations"] >= 1
    assert stats["operator_columns"] >= stats["iterations"]


def test_lobpcg_stats_count_preconditioner_applications():
    n = 200
    lap = laplacian(path_graph(n))
    preconditioner = multilevel_preconditioner_for(lap)
    calls = []

    def counting(block):
        calls.append(block.shape)
        return preconditioner(block)

    stats = {}
    lobpcg_smallest(lap.matvec, n, 2, deflate=path_deflate(n),
                    upper_bound=lap.gershgorin_upper_bound(), tol=1e-9,
                    matmat=lap.matmat, preconditioner=counting,
                    stats=stats)
    assert calls
    assert stats["preconditioner_applications"] == len(calls)


def test_lobpcg_preconditioner_cuts_iterations():
    n = 600
    lap = laplacian(path_graph(n))
    bound = lap.gershgorin_upper_bound()
    plain, preconditioned = {}, {}
    try:
        lobpcg_smallest(lap.matvec, n, 1, deflate=path_deflate(n),
                        upper_bound=bound, tol=1e-9, matmat=lap.matmat,
                        stats=plain)
    except ConvergenceError:
        plain["iterations"] = 500  # hit the cap: worst case
    lobpcg_smallest(lap.matvec, n, 1, deflate=path_deflate(n),
                    upper_bound=bound, tol=1e-9, matmat=lap.matmat,
                    preconditioner=multilevel_preconditioner_for(lap),
                    stats=preconditioned)
    assert preconditioned["iterations"] < plain["iterations"]


def test_lobpcg_nonconvergence_raises():
    n = 50
    lap = laplacian(path_graph(n))
    with pytest.raises(ConvergenceError):
        lobpcg_smallest(lap.matvec, n, 1, deflate=path_deflate(n),
                        upper_bound=lap.gershgorin_upper_bound(),
                        tol=1e-13, maxiter=1)


def _tree(n):
    return Graph.from_edges(n, [(v, (v - 1) // 2) for v in range(1, n)])


@pytest.mark.parametrize("graph", [
    grid_graph(Grid((8, 10))), path_graph(88), _tree(5), _tree(6)],
    ids=["grid8x10", "path88", "tree5", "tree6"])
def test_lobpcg_start_block_keeps_k_columns(graph):
    # Salted deterministic_start vectors span only three dimensions, so
    # a k = 4 window used to raise "start block collapsed below k"
    # (block 3, k 4) on these inputs.
    from repro.core import fiedler_vector

    result = fiedler_vector(graph, backend="lobpcg")
    reference = fiedler_vector(graph, backend="dense")
    assert result.value == pytest.approx(reference.value, rel=1e-7)
    assert np.allclose(result.vector, reference.vector, atol=1e-6)


def test_lobpcg_orders_every_component_of_a_point_set():
    # 29x20 grid, 351 cells: components of 3 to ~270 vertices, most of
    # which collapsed the start block before.
    from repro.core import SpectralLPM

    grid = Grid((29, 20))
    cells = np.random.default_rng(0).choice(grid.size, 351, replace=False)
    order, _ = SpectralLPM(backend="lobpcg").order_points(grid, cells)
    reference, _ = SpectralLPM(backend="dense").order_points(grid, cells)
    assert order == reference


def test_deterministic_block_columns_stay_independent():
    from repro.linalg.power import deterministic_block

    for n in range(2, 200):
        columns = min(n - 1, 8)
        block = deterministic_block(n, columns, salt=n % 3)
        assert np.array_equal(block, deterministic_block(n, columns,
                                                         salt=n % 3))
        assert np.allclose(np.linalg.norm(block, axis=0), 1.0)
        centred = block - block.mean(axis=0)
        singular = np.linalg.svd(centred, compute_uv=False)
        assert singular[-1] > 1e-4 * singular[0], n


def test_lobpcg_rejects_bad_k():
    lap = laplacian(path_graph(5))
    with pytest.raises(InvalidParameterError):
        lobpcg_smallest(lap.matvec, 5, 6)
    with pytest.raises(InvalidParameterError):
        lobpcg_smallest(lap.matvec, 5, 0)


# ----------------------------------------------------------------------
# Registry-level contracts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["lobpcg"])
def test_registry_backends_agree_with_dense(backend):
    lap = laplacian(grid_graph(Grid((7, 9))))
    deflate = path_deflate(lap.n)
    got, _ = smallest_eigenpairs(lap, 2, backend=backend,
                                 deflate=deflate)
    want, _ = smallest_eigenpairs(lap, 2, backend="dense",
                                  deflate=deflate)
    np.testing.assert_allclose(got, want, atol=1e-8)


@pytest.mark.parametrize("backend", ["lobpcg"])
def test_tiny_systems_work(backend):
    lap = laplacian(path_graph(3))
    values, _ = smallest_eigenpairs(lap, 1, backend=backend,
                                    deflate=path_deflate(3))
    assert values[0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("backend", ["lobpcg"])
def test_custom_tol_is_respected(backend):
    # A loose tolerance must still produce residuals within its own
    # bound.
    n = 64
    lap = laplacian(path_graph(n))
    values, vectors = smallest_eigenpairs(lap, 1, backend=backend,
                                          deflate=path_deflate(n),
                                          tol=1e-6)
    y = vectors[:, 0]
    scale = max(lap.gershgorin_upper_bound(), 1.0)
    assert np.linalg.norm(lap.matvec(y) - values[0] * y) <= \
        1e-4 * scale  # the documented 100x acceptance slack


def test_fallback_contract_on_forced_failure(monkeypatch):
    # Break the preconditioned path; the registry must silently deliver
    # the Lanczos answer rather than propagate the failure.
    def explode(*args, **kwargs):
        raise ConvergenceError("forced", iterations=0, residual=1.0)

    monkeypatch.setattr(backends, "smallest_eigenpairs_lobpcg", explode)
    n = 40
    lap = laplacian(path_graph(n))
    exact = 2 * (1 - np.cos(np.pi / n))
    values, _ = smallest_eigenpairs(lap, 1, backend="lobpcg",
                                    deflate=path_deflate(n))
    assert values[0] == pytest.approx(exact, abs=1e-8)


def test_resolve_auto_picks_lobpcg_where_it_wins():
    # Above the LOBPCG cutoff the numpy-only leg switches from flat
    # Lanczos to the preconditioned block solver; scipy still wins when
    # importable.
    assert backends.resolve_auto(backends.DENSE_CUTOFF) == "dense"
    large = backends.resolve_auto(backends.LOBPCG_CUTOFF + 1)
    medium = backends.resolve_auto(backends.DENSE_CUTOFF + 1)
    if backends.scipy_available():
        assert large == medium == "scipy"
    else:
        assert large == "lobpcg"
        assert medium == "lanczos"
