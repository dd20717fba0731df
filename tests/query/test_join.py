"""Tests for repro.query.join."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DimensionError, InvalidParameterError
from repro.geometry import Grid
from repro.query import (
    JoinReport,
    true_join_pairs,
    window_join_candidates,
    window_join_report,
)


def test_true_join_pairs_small():
    grid = Grid((4, 4))
    a = [grid.index_of((0, 0)), grid.index_of((3, 3))]
    b = [grid.index_of((0, 1)), grid.index_of((2, 2))]
    pairs = true_join_pairs(grid, a, b, epsilon=1)
    assert {tuple(p) for p in pairs} == {(0, 0)}  # (0,0)~(0,1) only
    pairs2 = true_join_pairs(grid, a, b, epsilon=2)
    assert {tuple(p) for p in pairs2} == {(0, 0), (1, 1)}


def test_true_join_validation():
    grid = Grid((3, 3))
    with pytest.raises(InvalidParameterError):
        true_join_pairs(grid, [0], [1], epsilon=-1)


def test_window_join_candidates_two_pointer():
    ranks = np.arange(10)
    a = [0, 5]
    b = [1, 6, 9]
    candidates = window_join_candidates(ranks, a, b, window=1)
    assert {tuple(c) for c in candidates} == {(0, 0), (1, 1)}
    wide = window_join_candidates(ranks, a, b, window=9)
    assert len(wide) == 6


def test_window_join_empty():
    ranks = np.arange(10)
    empty = window_join_candidates(ranks, [0], [9], window=2)
    assert empty.shape == (0, 2)
    with pytest.raises(InvalidParameterError):
        window_join_candidates(ranks, [0], [1], window=-1)


def test_window_join_report_full_window_has_full_recall(grid8, dense_lpm):
    rng = np.random.default_rng(8)
    a = rng.choice(64, size=12, replace=False)
    b = rng.choice(64, size=12, replace=False)
    ranks = dense_lpm.order_grid(grid8).ranks
    report = window_join_report(grid8, ranks, a, b, epsilon=2, window=64)
    assert report.recall == 1.0
    assert report.candidate_pairs == 144


def test_window_join_report_metrics(grid8, dense_lpm):
    rng = np.random.default_rng(9)
    a = rng.choice(64, size=16, replace=False)
    b = rng.choice(64, size=16, replace=False)
    ranks = dense_lpm.order_grid(grid8).ranks
    report = window_join_report(grid8, ranks, a, b, epsilon=2, window=12)
    assert 0.0 <= report.recall <= 1.0
    assert report.matched_pairs <= report.true_pairs
    assert report.matched_pairs <= report.candidate_pairs
    assert report.candidate_ratio >= 0.0


def test_window_join_report_no_true_pairs():
    grid = Grid((8, 8))
    ranks = np.arange(64)
    report = window_join_report(grid, ranks, [0], [63], epsilon=1,
                                window=1)
    assert report.true_pairs == 0
    assert report.recall == 1.0  # vacuous
    with pytest.raises(DimensionError):
        window_join_report(grid, np.arange(5), [0], [1], 1, 1)


def brute_force_truth(grid, cells_a, cells_b, epsilon):
    coords = grid.coordinates()
    return np.array([(i, j) for i, a in enumerate(cells_a)
                     for j, b in enumerate(cells_b)
                     if np.abs(coords[a] - coords[b]).sum() <= epsilon],
                    dtype=np.int64).reshape(-1, 2)


def brute_force_candidates(ranks, cells_a, cells_b, window):
    """Row order: by position in ``a``, then by rank of ``b`` (stable)."""
    rb = [int(ranks[b]) for b in cells_b]
    by_rank = sorted(range(len(cells_b)), key=lambda j: rb[j])
    return np.array([(i, j) for i, a in enumerate(cells_a)
                     for j in by_rank
                     if abs(int(ranks[a]) - rb[j]) <= window],
                    dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("shape", [(23,), (9, 7), (4, 5, 3)])
def test_join_pairs_match_brute_force(shape):
    grid = Grid(shape)
    rng = np.random.default_rng(len(shape))
    for trial in range(60):
        ranks = rng.permutation(grid.size)
        sizes = rng.integers(0, 12, size=2)
        # Draws with replacement, so duplicate cells occur.
        a = rng.integers(0, grid.size, size=sizes[0]).tolist()
        b = rng.integers(0, grid.size, size=sizes[1]).tolist()
        epsilon = int(rng.integers(0, 4))
        window = int(rng.integers(0, 8)) if trial % 4 else 0
        for got, want in (
                (true_join_pairs(grid, a, b, epsilon),
                 brute_force_truth(grid, a, b, epsilon)),
                (window_join_candidates(ranks, a, b, window),
                 brute_force_candidates(ranks, a, b, window))):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)
        report = window_join_report(grid, ranks, a, b, epsilon, window)
        truth = set(map(tuple, brute_force_truth(grid, a, b,
                                                 epsilon).tolist()))
        candidates = set(map(tuple, brute_force_candidates(
            ranks, a, b, window).tolist()))
        assert (report.true_pairs, report.candidate_pairs,
                report.matched_pairs) == (len(truth), len(candidates),
                                          len(truth & candidates))


def test_join_pairs_of_empty_lists():
    grid = Grid((5, 5))
    ranks = np.arange(25)
    for a, b in (([], []), ([3], []), ([], [3])):
        for pairs in (true_join_pairs(grid, a, b, 2),
                      window_join_candidates(ranks, a, b, 4)):
            assert pairs.shape == (0, 2) and pairs.dtype == np.int64


def _report_from_pair_lists(grid, ranks, cells_a, cells_b, epsilon, window):
    """The join report built from the listed pairs: the truth from
    :func:`true_join_pairs`, matched by ``intersect1d`` of pair keys."""
    truth = true_join_pairs(grid, cells_a, cells_b, epsilon)
    candidates = window_join_candidates(ranks, cells_a, cells_b, window)
    width = max(len(cells_b), 1)
    matched = np.intersect1d(truth[:, 0] * width + truth[:, 1],
                             candidates[:, 0] * width + candidates[:, 1],
                             assume_unique=True)
    return JoinReport(epsilon=epsilon, window=window,
                      true_pairs=len(truth),
                      candidate_pairs=len(candidates),
                      matched_pairs=len(matched))


@given(shape=st.lists(st.integers(1, 7), min_size=1, max_size=3),
       point_set=st.booleans(), epsilon=st.integers(0, 4),
       window=st.integers(0, 12), data=st.data())
def test_window_join_report_counts_the_listed_pairs(
        shape, point_set, epsilon, window, data):
    """Counting on the distance matrix gives the report the listed
    pairs give, on grids and on point sets (whose unoccupied cells hold
    the sentinel rank -1, as the index's point-set join passes them)."""
    grid = Grid(tuple(shape))
    if point_set:
        occupied = sorted(data.draw(st.sets(
            st.integers(0, grid.size - 1), min_size=1)))
        ranks = np.full(grid.size, -1, dtype=np.int64)
        ranks[occupied] = data.draw(st.permutations(range(len(occupied))))
    else:
        occupied = range(grid.size)
        ranks = np.array(data.draw(st.permutations(range(grid.size))))
    cells = st.lists(st.sampled_from(occupied), max_size=15)
    cells_a, cells_b = data.draw(cells), data.draw(cells)
    report = window_join_report(grid, ranks, cells_a, cells_b, epsilon,
                                window)
    assert report == _report_from_pair_lists(grid, ranks, cells_a, cells_b,
                                             epsilon, window)
    assert {type(report.true_pairs), type(report.matched_pairs)} == {int}
