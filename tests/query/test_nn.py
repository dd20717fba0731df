"""Tests for repro.query.nn."""

import numpy as np
import pytest

from repro.core import SpectralLPM
from repro.errors import DimensionError, InvalidParameterError
from repro.geometry import Grid
from repro.query import (
    knn_window_recall,
    true_knn,
    window_candidates,
)


def test_true_knn_center_of_3x3():
    grid = Grid((3, 3))
    center = grid.index_of((1, 1))
    neighbours = true_knn(grid, center, 4)
    assert set(int(v) for v in neighbours) == {
        grid.index_of(p) for p in [(0, 1), (1, 0), (1, 2), (2, 1)]
    }


def test_true_knn_excludes_query_and_breaks_ties_by_index():
    grid = Grid((3, 3))
    neighbours = true_knn(grid, 0, 2)
    assert 0 not in neighbours
    # Distance-1 neighbours of corner (0,0): cells 1 and 3; ties by id.
    assert list(neighbours) == [1, 3]


def test_true_knn_validation():
    grid = Grid((3, 3))
    with pytest.raises(InvalidParameterError):
        true_knn(grid, 0, 0)
    with pytest.raises(InvalidParameterError):
        true_knn(grid, 0, 9)


def test_window_candidates_rank_window():
    ranks = np.array([0, 1, 2, 3, 4, 5])
    hits = window_candidates(ranks, query_cell=2, window=1)
    assert set(int(v) for v in hits) == {1, 3}
    with pytest.raises(InvalidParameterError):
        window_candidates(ranks, 2, 0)


def _grid_order():
    return SpectralLPM().order_grid(Grid((11, 9)))


def _point_set_order():
    grid = Grid((14, 14))
    cells = np.random.default_rng(4).choice(grid.size, 120, replace=False)
    return SpectralLPM().order_points(grid, cells)[0]


@pytest.mark.parametrize("make_order", [_grid_order, _point_set_order])
def test_window_slice_equals_the_rank_comparison(make_order):
    # Reading the window as a slice of the permutation returns the array
    # the all-ranks comparison returns, also where the window crosses
    # rank 0 or rank N - 1.
    order = make_order()
    n = order.n
    ranks = order.ranks
    cells = {order.item_at(r) for r in (0, 1, 2, n // 2, n - 2, n - 1)}
    for cell in sorted(cells):
        for window in (1, 2, 3, 7, n // 2, n - 1, n, 3 * n):
            sliced = window_candidates(ranks, cell, window,
                                       order.permutation)
            reference = window_candidates(ranks, cell, window)
            assert np.array_equal(sliced, reference), (cell, window)


def test_recall_perfect_on_1d_identity():
    """On a 1-D grid with identity ranks, a window of k has recall ~1
    for interior queries (the true neighbours are the adjacent cells)."""
    grid = Grid((32,))
    ranks = np.arange(32)
    report = knn_window_recall(grid, ranks, k=2, window=2,
                               query_cells=list(range(2, 30)))
    assert report.mean_recall == 1.0
    assert report.min_recall == 1.0
    assert report.query_count == 28


def test_recall_bounds_and_reproducibility(grid8, dense_lpm):
    ranks = dense_lpm.order_grid(grid8).ranks
    a = knn_window_recall(grid8, ranks, k=4, window=8, seed=5)
    b = knn_window_recall(grid8, ranks, k=4, window=8, seed=5)
    assert a == b
    assert 0.0 <= a.min_recall <= a.mean_recall <= 1.0


def test_recall_increases_with_window(grid8):
    from repro.mapping import CurveMapping
    ranks = CurveMapping("hilbert").ranks_for_grid(grid8)
    small = knn_window_recall(grid8, ranks, k=4, window=4, seed=1)
    large = knn_window_recall(grid8, ranks, k=4, window=16, seed=1)
    assert large.mean_recall >= small.mean_recall


def test_recall_validation(grid8):
    with pytest.raises(DimensionError):
        knn_window_recall(grid8, np.arange(5), k=2, window=2)
