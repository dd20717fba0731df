"""Tests for repro.core.fiedler."""

import numpy as np
import pytest

from repro.core import fiedler_value, fiedler_vector
from repro.errors import GraphStructureError, InvalidParameterError
from repro.geometry import Grid
from repro.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    quadratic_form,
    star_graph,
)
from repro.linalg import scipy_available

BACKENDS = ["dense", "lanczos"] + (["scipy"] if scipy_available() else [])


# ----------------------------------------------------------------------
# Analytic Fiedler values
# ----------------------------------------------------------------------
def test_path_fiedler_value():
    for n in (3, 5, 10, 24):
        expected = 2 * (1 - np.cos(np.pi / n))
        assert fiedler_value(path_graph(n),
                             backend="dense") == pytest.approx(expected)


def test_cycle_fiedler_value():
    n = 9
    expected = 2 * (1 - np.cos(2 * np.pi / n))
    assert fiedler_value(cycle_graph(n),
                         backend="dense") == pytest.approx(expected)


def test_complete_graph_fiedler_value():
    # K_n: lambda_2 = n, multiplicity n-1.
    result = fiedler_vector(complete_graph(6), backend="dense")
    assert result.value == pytest.approx(6.0)
    assert result.multiplicity == 5


def test_star_graph_fiedler_value():
    # Star S_n: lambda_2 = 1 with multiplicity n-2.
    result = fiedler_vector(star_graph(6), backend="dense")
    assert result.value == pytest.approx(1.0)
    assert result.multiplicity == 4


def test_grid_fiedler_value_and_multiplicity(grid3, graph3):
    result = fiedler_vector(graph3, backend="dense")
    assert result.value == pytest.approx(1.0)  # paper Figure 3
    assert result.multiplicity == 2            # square grid symmetry


def test_cube_grid_multiplicity_matches_dimension():
    for ndim in (2, 3):
        g = grid_graph(Grid.cube(3, ndim))
        result = fiedler_vector(g, backend="dense")
        assert result.multiplicity == ndim


def test_rectangular_grid_simple_eigenvalue():
    g = grid_graph(Grid((6, 3)))
    result = fiedler_vector(g, backend="dense")
    expected = 2 * (1 - np.cos(np.pi / 6))  # longest-axis mode
    assert result.value == pytest.approx(expected)
    assert result.multiplicity == 1


# ----------------------------------------------------------------------
# Vector properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_vector_is_unit_and_centered(backend):
    g = grid_graph(Grid((5, 4)))
    result = fiedler_vector(g, backend=backend)
    assert np.linalg.norm(result.vector) == pytest.approx(1.0)
    assert result.vector.sum() == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("backend", BACKENDS)
def test_vector_attains_lambda2(backend):
    g = grid_graph(Grid((4, 4)))
    result = fiedler_vector(g, backend=backend)
    assert quadratic_form(g, result.vector) == pytest.approx(
        result.value, abs=1e-7)


def test_cross_backend_vectors_agree():
    g = grid_graph(Grid((4, 4)))
    reference = fiedler_vector(g, backend="dense").vector
    for backend in BACKENDS:
        other = fiedler_vector(g, backend=backend).vector
        assert np.allclose(other, reference, atol=1e-6), backend


def test_determinism_repeated_calls():
    g = grid_graph(Grid.cube(3, 3))
    a = fiedler_vector(g, backend="dense")
    b = fiedler_vector(g, backend="dense")
    assert np.array_equal(a.vector, b.vector)


def test_custom_probe_changes_canonical_choice():
    g = grid_graph(Grid((3, 3)))
    default = fiedler_vector(g, backend="dense").vector
    # A probe favouring the x-mode picks a different eigenspace member.
    probe = Grid((3, 3)).coordinates()[:, 0].astype(float)
    probe -= probe.mean()
    custom = fiedler_vector(g, backend="dense", probe=probe).vector
    assert not np.allclose(custom, default)
    # Both attain the same optimal objective.
    assert quadratic_form(g, custom) == pytest.approx(1.0, abs=1e-8)


def test_probe_validation():
    g = path_graph(4)
    with pytest.raises(InvalidParameterError):
        fiedler_vector(g, probe=np.ones(3))


def test_optimality_against_random_vectors():
    """Theorem 1/3: no centered unit vector beats the Fiedler vector."""
    g = grid_graph(Grid((4, 5)))
    result = fiedler_vector(g, backend="dense")
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.normal(size=g.num_vertices)
        x -= x.mean()
        x /= np.linalg.norm(x)
        assert quadratic_form(g, x) >= result.value - 1e-9


# ----------------------------------------------------------------------
# Error handling
# ----------------------------------------------------------------------
def test_disconnected_graph_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphStructureError):
        fiedler_vector(g)


def test_too_small_graph_raises():
    with pytest.raises(InvalidParameterError):
        fiedler_vector(Graph.empty(1))


def test_two_vertex_graph():
    g = Graph.from_edges(2, [(0, 1)], weights=[3.0])
    result = fiedler_vector(g, backend="dense")
    assert result.value == pytest.approx(6.0)  # 2w
    assert np.allclose(np.abs(result.vector),
                       [1 / np.sqrt(2)] * 2, atol=1e-9)


# ----------------------------------------------------------------------
# One LU factorization per scipy solve of a Laplacian
# ----------------------------------------------------------------------
@pytest.mark.skipif(not scipy_available(), reason="needs scipy")
@pytest.mark.parametrize("shape", [(24, 24), (20, 45)])
def test_scipy_fiedler_factors_the_laplacian_once(shape, monkeypatch):
    # The window solve and the closure certificate share one splu of
    # L - sigma I (the parent factored once per solve), and the factor
    # is gone once the call returns.
    import scipy.sparse.linalg as spla

    from repro.linalg import backends, solver_invocations

    factors = []
    real_splu = spla.splu

    def counting_splu(matrix, *args, **kwargs):
        factors.append((matrix, real_splu(matrix, *args, **kwargs)))
        return factors[-1][1]

    monkeypatch.setattr(spla, "splu", counting_splu)
    graph = grid_graph(Grid(shape))
    before = solver_invocations()
    result = fiedler_vector(graph, backend="scipy")
    assert solver_invocations() - before >= 2
    assert len(factors) == 1
    assert getattr(backends._HELD_FACTOR, "slot", None) is None
    # L - sigma I is symmetric positive definite, so the factor orders
    # the symmetric pattern and pivots on the diagonal: at most 3/4 of
    # the fill of scipy's default (COLAMD, partial pivoting).
    matrix, factor = factors[0]
    default = real_splu(matrix)
    assert factor.L.nnz + factor.U.nnz \
        <= 0.75 * (default.L.nnz + default.U.nnz)
    reference = fiedler_vector(graph, backend="dense")
    assert result.multiplicity == reference.multiplicity
    assert np.allclose(result.vector, reference.vector, atol=1e-8)


@pytest.mark.skipif(not scipy_available(), reason="needs scipy")
def test_shared_factorization_is_per_thread_and_per_matrix():
    import threading

    import scipy.sparse as sp

    from repro.graph import laplacian
    from repro.linalg import backends

    def factor(matrix):
        a = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                          shape=matrix.shape)
        return backends._shifted_factor(matrix, a, -1e-3)

    grid, path = laplacian(grid_graph(Grid((9, 11)))), laplacian(
        path_graph(40))
    seen = {}
    with backends.shared_factorization():
        first = factor(grid)
        assert factor(grid) is first
        # Another thread opens no block of its own, so it holds nothing.
        worker = threading.Thread(target=lambda: seen.update(
            slot=getattr(backends._HELD_FACTOR, "slot", None)))
        worker.start()
        worker.join()
        assert seen["slot"] is None
        assert factor(path) is not first
    assert getattr(backends._HELD_FACTOR, "slot", None) is None
