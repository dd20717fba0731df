"""Cross-backend equivalence of the full ordering pipeline.

The determinism contract: every *exact* backend (dense, lanczos,
lobpcg, scipy) produces the *identical* permutation on the same input — including the
adversarial cases, namely clustered spectra (long paths), degenerate
eigenspaces (square grids and cubes), and weighted Section-4 graphs.
The multilevel backend is approximate: it must reproduce exact orders
where the Fiedler vector is well-separated, and elsewhere stay within
its documented tolerance (vector-level closeness; on highly symmetric
instances the *exact ties* that snap_ties collapses are perturbed by
approximation noise, so rank-level equality is not guaranteed there).

All comparisons ride on the same snap_ties/canonicalization oracles the
production pipeline uses.

Full radius-1 grids have one more, implementation-independent input:
their closed-form Fiedler pair (products of cosines), which ``auto``
serves them from.  Every exact backend must equal it.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import SpectralLPM, fiedler_vector
from repro.core.spectral import snap_ties, symmetric_grid_probe
from repro.geometry import Grid
from repro.graph import grid_graph, path_graph
from repro.linalg import scipy_available

EXACT_BACKENDS = ["dense", "lanczos", "lobpcg"] + (
    ["scipy"] if scipy_available() else [])
ALL_BACKENDS = EXACT_BACKENDS + ["multilevel"]


def orders_for(make):
    return {b: make(b) for b in ALL_BACKENDS}


def closed_form_order(grid):
    """The grid oracle: the order ``auto`` builds from the closed-form
    Fiedler pair."""
    order, [result] = SpectralLPM().order_grid_with_fiedler(grid)
    assert result.backend == "closed-form"
    return order


# ----------------------------------------------------------------------
# Clustered spectrum: a long path's bottom eigenvalues bunch together
# (lambda_j ~ (pi j / n)^2), historically the worst case for restarted
# Lanczos.
# ----------------------------------------------------------------------
def test_long_path_identical_across_all_backends():
    graph = path_graph(300)
    orders = orders_for(
        lambda b: SpectralLPM(backend=b).order_graph(graph))
    reference = orders["dense"]
    perm = list(reference.permutation)
    assert perm == sorted(perm) or perm == sorted(perm, reverse=True)
    for backend, order in orders.items():
        assert order == reference, backend


# ----------------------------------------------------------------------
# Degenerate eigenspaces: square grids (multiplicity 2).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("side", [12, 16])
def test_square_grid_identical_across_all_backends(side):
    grid = Grid((side, side))
    orders = orders_for(lambda b: SpectralLPM(backend=b).order_grid(grid))
    reference = closed_form_order(grid)
    for backend, order in orders.items():
        assert order == reference, backend


def test_cube_grid_exact_backends_identical():
    grid = Grid((7, 7, 7))
    orders = {b: SpectralLPM(backend=b).order_grid(grid)
              for b in EXACT_BACKENDS}
    reference = closed_form_order(grid)
    for backend, order in orders.items():
        assert order == reference, backend


def test_cube_grid_multilevel_within_tolerance():
    # Multiplicity-3 eigenspace: the canonical vector is reproduced to
    # solver accuracy, but the cube's exact symmetry ties are perturbed
    # beyond snap_ties resolution, so assert at the vector level.
    grid = Grid((7, 7, 7))
    probe = symmetric_grid_probe(grid)
    graph = grid_graph(grid)
    exact = fiedler_vector(graph, backend="dense", probe=probe)
    approx = fiedler_vector(graph, backend="multilevel", probe=probe)
    assert approx.multiplicity == exact.multiplicity == 3
    assert abs(approx.value - exact.value) <= 1e-6 * exact.value
    assert np.linalg.norm(approx.vector - exact.vector) < 0.05


# ----------------------------------------------------------------------
# Weighted Section-4 graphs (inverse_manhattan, radius 2).
# ----------------------------------------------------------------------
def test_weighted_grid_identical_across_all_backends():
    grid = Grid((12, 9))
    orders = orders_for(
        lambda b: SpectralLPM(backend=b, radius=2,
                              weight="inverse_manhattan").order_grid(grid))
    reference = orders["dense"]
    for backend, order in orders.items():
        assert order == reference, backend


# ----------------------------------------------------------------------
# Sizes between the scipy leg's dense cutoff (225) and the old shared
# default (1,024), where ``auto`` moved from dense to scipy, and around
# the numpy-only leg's cutoff (441): every exact backend, and ``auto``,
# must give the same order there.
# ----------------------------------------------------------------------
CUTOFF_BACKENDS = ["auto"] + EXACT_BACKENDS


@pytest.mark.parametrize("shape", [(17, 17), (24, 24), (20, 45), (32, 32)])
def test_grids_between_the_cutoffs_identical(shape):
    grid = Grid(shape)
    orders = {b: SpectralLPM(backend=b).order_grid(grid)
              for b in CUTOFF_BACKENDS}
    reference = closed_form_order(grid)
    for backend, order in orders.items():
        assert order == reference, backend


def test_weighted_grid_between_the_cutoffs_identical():
    grid = Grid((23, 29))
    orders = {b: SpectralLPM(backend=b, radius=2,
                             weight="inverse_manhattan").order_grid(grid)
              for b in CUTOFF_BACKENDS}
    for backend, order in orders.items():
        assert order == orders["dense"], backend


@pytest.mark.parametrize("density", [0.55, 0.65, 0.8])
def test_point_sets_between_the_cutoffs_identical(density):
    grid = Grid((30, 34))
    cells = np.random.default_rng(int(density * 100)).choice(
        grid.size, round(density * grid.size), replace=False)
    orders = {b: SpectralLPM(backend=b).order_points(grid, cells)[0]
              for b in CUTOFF_BACKENDS}
    for backend, order in orders.items():
        assert order == orders["dense"], backend


# ----------------------------------------------------------------------
# Larger grids, where lambda_2 falls to a few 1e-3 and the scipy
# backend's shift sits right under it: the shift-invert solve and the
# preconditioned LOBPCG solve must still give the same order.
# ----------------------------------------------------------------------
@pytest.mark.skipif(not scipy_available(), reason="needs scipy")
@pytest.mark.parametrize("shape, options", [
    ((64, 64), {}),
    ((40, 100), {}),
    ((48, 48), {"radius": 2, "weight": "gaussian"}),
])
def test_large_grids_identical_on_scipy_and_lobpcg(shape, options):
    grid = Grid(shape)
    orders = {b: SpectralLPM(backend=b, **options).order_grid(grid)
              for b in ("scipy", "lobpcg")}
    assert orders["scipy"] == orders["lobpcg"]
    if not options:
        assert orders["scipy"] == closed_form_order(grid)


# ----------------------------------------------------------------------
# The grid oracle as a property: any product of weighted paths in 1-4
# dimensions, including axes whose lambda_2 values differ by less than
# the grouping tolerance, orders as the dense backend orders it.
# ----------------------------------------------------------------------
MAX_CELLS = 300


@st.composite
def weighted_grids(draw):
    ndim = draw(st.integers(1, 4))
    shape, budget = [], MAX_CELLS
    for _ in range(ndim):
        side = draw(st.integers(1, max(1, min(12, budget))))
        shape.append(side)
        budget //= side
    weights = [draw(st.floats(0.1, 10.0)) for _ in shape]
    twin = draw(st.sampled_from([None, 0.0, 1e-9, 1e-7]))
    if twin is not None and ndim > 1 and shape[0] > 1 and shape[1] > 1:
        # Axis 1's single-path lambda matches axis 0's up to ``twin``
        # (relative), far inside the 1e-6 grouping tolerance.
        def path_lambda(side):
            return np.sin(np.pi / (2 * side)) ** 2
        weights[1] = (weights[0] * path_lambda(shape[0])
                      / path_lambda(shape[1]) * (1.0 + twin))
    return Grid(tuple(shape)), weights


@given(case=weighted_grids())
def test_closed_form_equals_dense_on_weighted_grids(case):
    grid, weights = case

    def weight(offset):
        return weights[list(offset).index(1)]

    order, results = SpectralLPM(weight=weight).order_grid_with_fiedler(grid)
    reference, expected = SpectralLPM(
        backend="dense", weight=weight).order_grid_with_fiedler(grid)
    assert order == reference
    assert [r.multiplicity for r in results] == \
        [r.multiplicity for r in expected]
    if grid.size >= 3:
        assert results[0].backend == "closed-form"


# ----------------------------------------------------------------------
# The snap_ties oracle itself: backend noise below tolerance must not
# change the tie groups the pipeline sorts on.
# ----------------------------------------------------------------------
def test_snap_oracle_absorbs_backend_noise():
    grid = Grid((10, 10))
    graph = grid_graph(grid)
    probe = symmetric_grid_probe(grid)
    vectors = {b: fiedler_vector(graph, backend=b, probe=probe).vector
               for b in ALL_BACKENDS}
    reference_groups = snap_ties(vectors["dense"])
    for backend, vector in vectors.items():
        assert np.array_equal(snap_ties(vector), reference_groups), backend
