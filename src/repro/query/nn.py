"""Nearest-neighbour search through a linear order.

The similarity-search application behind Figure 5: store cells in mapping
order and answer a k-NN query by examining a contiguous *rank window*
around the query cell.  If the mapping preserves locality, the true
neighbours are inside a small window; the measurable quantity is the
*recall* of the window against the true Manhattan k-NN set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import DimensionError, InvalidParameterError
from repro.geometry.grid import Grid


def true_knn(grid: Grid, query_cell: int, k: int) -> np.ndarray:
    """The ``k`` cells nearest to ``query_cell`` in Manhattan distance.

    The query cell itself is excluded; ties at the cut-off distance are
    broken by ascending flat index (stable and deterministic).
    """
    if not 1 <= k < grid.size:
        raise InvalidParameterError(
            f"k must be in [1, {grid.size - 1}], got {k}"
        )
    coords = grid.coordinates()
    query = coords[int(query_cell)]
    distances = np.abs(coords - query).sum(axis=1)
    distances[int(query_cell)] = np.iinfo(np.int64).max
    # stable argsort => ascending flat index inside each distance class
    return np.argsort(distances, kind="stable")[:k]


def window_candidates(ranks: np.ndarray, query_cell: int, window: int,
                      permutation: np.ndarray | None = None
                      ) -> np.ndarray:
    """Cells whose rank lies within ``window`` of the query's rank.

    This is the set a 1-D index (B+-tree over mapping keys) would fetch
    with a single short scan, in ascending cell order.  The query cell
    is excluded.  Given the order's ``permutation`` (the inverse of
    ``ranks``), the window is read as a slice of it and sorted:
    ``O(window log window)`` instead of comparing all ``N`` ranks, and
    the same array.
    """
    ranks = np.asarray(ranks)
    if window < 1:
        raise InvalidParameterError(f"window must be >= 1, got {window}")
    center = int(ranks[int(query_cell)])
    if permutation is not None:
        hits = np.sort(permutation[max(center - window, 0):
                                   center + window + 1])
    else:
        hits = np.flatnonzero((ranks >= center - window)
                              & (ranks <= center + window))
    return hits[hits != int(query_cell)]


@dataclass(frozen=True)
class RecallReport:
    """Mean window recall of a mapping for k-NN queries."""

    k: int
    window: int
    query_count: int
    mean_recall: float
    min_recall: float


def knn_window_recall(grid: Grid, ranks: np.ndarray, k: int,
                      window: int,
                      query_cells: Sequence[int] | None = None,
                      seed: int = 0, sample: int = 64) -> RecallReport:
    """Recall of rank-window k-NN search against true Manhattan k-NN.

    Parameters
    ----------
    grid, ranks:
        The domain and the mapping's rank array.
    k:
        Neighbours wanted.
    window:
        Half-width of the rank window examined around each query.
    query_cells:
        Explicit query cells; defaults to a seeded uniform sample of
        ``sample`` cells.
    """
    ranks = np.asarray(ranks)
    if ranks.shape != (grid.size,):
        raise DimensionError(
            f"ranks must have shape ({grid.size},), got {ranks.shape}"
        )
    if query_cells is None:
        rng = np.random.default_rng(seed)
        count = min(sample, grid.size)
        query_cells = rng.choice(grid.size, size=count, replace=False)
    recalls = []
    for cell in query_cells:
        truth = set(int(c) for c in true_knn(grid, int(cell), k))
        found = set(int(c) for c in window_candidates(ranks, int(cell),
                                                      window))
        recalls.append(len(truth & found) / k)
    recalls_arr = np.array(recalls)
    return RecallReport(
        k=k,
        window=window,
        query_count=len(recalls_arr),
        mean_recall=float(recalls_arr.mean()),
        min_recall=float(recalls_arr.min()),
    )
