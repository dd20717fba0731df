"""Spatial join through linear orders.

One of the paper's motivating applications (Sections 1 and 6): join two
point sets on spatial proximity ("all pairs within Manhattan distance
epsilon").  The classic 1-D trick maps both sets with the same
locality-preserving mapping, sorts by mapping rank, and sweeps a rank
window — every true pair whose rank distance is within the window is
found without computing all |A| x |B| distances.

The interesting measurements are:

* **recall** — fraction of true pairs whose rank distance fits the
  window (better locality => higher recall at a fixed window), and
* **candidate ratio** — candidates examined per true pair (lower is
  cheaper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import DimensionError, InvalidParameterError
from repro.geometry.grid import Grid


def _within_epsilon(grid: Grid, cells_a: Sequence[int],
                    cells_b: Sequence[int], epsilon: int) -> np.ndarray:
    """The ``(|A|, |B|)`` boolean matrix of Manhattan distance <=
    epsilon, by position in ``cells_a`` / ``cells_b``."""
    if epsilon < 0:
        raise InvalidParameterError(
            f"epsilon must be >= 0, got {epsilon}"
        )
    axes_a = np.unravel_index(np.asarray(cells_a, dtype=np.int64),
                              grid.shape)
    axes_b = np.unravel_index(np.asarray(cells_b, dtype=np.int64),
                              grid.shape)
    distances = sum(np.abs(xa[:, None] - xb[None, :])
                    for xa, xb in zip(axes_a, axes_b))
    return distances <= epsilon


def true_join_pairs(grid: Grid, cells_a: Sequence[int],
                    cells_b: Sequence[int],
                    epsilon: int) -> np.ndarray:
    """All ``(i, j)`` position pairs with Manhattan distance <= epsilon.

    Positions index into ``cells_a`` / ``cells_b``; the result is an
    ``(m, 2)`` array sorted lexicographically.
    """
    within = _within_epsilon(grid, cells_a, cells_b, epsilon)
    return np.stack(np.nonzero(within), axis=1)


def window_join_candidates(ranks: np.ndarray, cells_a: Sequence[int],
                           cells_b: Sequence[int],
                           window: int) -> np.ndarray:
    """Position pairs whose mapping ranks differ by at most ``window``.

    Sort-merge over the two rank lists: O((|A| + |B|) log + output).
    The ``(m, 2)`` rows run by position in ``cells_a``, then by rank of
    the ``cells_b`` cell (equal ranks in input order).
    """
    if window < 0:
        raise InvalidParameterError(f"window must be >= 0, got {window}")
    ranks = np.asarray(ranks)
    a = np.asarray(cells_a, dtype=np.int64)
    b = np.asarray(cells_b, dtype=np.int64)
    ra = ranks[a]
    rb = ranks[b]
    order_b = np.argsort(rb, kind="stable")
    rb_sorted = rb[order_b]
    # Row i pairs a[i] with sorted positions lo[i] .. hi[i] - 1 of b.
    lo = np.searchsorted(rb_sorted, ra - window, side="left")
    hi = np.searchsorted(rb_sorted, ra + window, side="right")
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    ii = np.repeat(np.arange(len(a), dtype=np.int64), counts)
    positions = np.arange(len(ii)) + np.repeat(lo - starts, counts)
    return np.stack([ii, order_b[positions].astype(np.int64, copy=False)],
                    axis=1)


@dataclass(frozen=True)
class JoinReport:
    """Quality of a window join under one mapping."""

    epsilon: int
    window: int
    true_pairs: int
    candidate_pairs: int
    matched_pairs: int

    @property
    def recall(self) -> float:
        """Fraction of true pairs the window join finds."""
        if self.true_pairs == 0:
            return 1.0
        return self.matched_pairs / self.true_pairs

    @property
    def candidate_ratio(self) -> float:
        """Candidates per true pair (>= 1 is ideal-adjacent)."""
        if self.true_pairs == 0:
            return float(self.candidate_pairs)
        return self.candidate_pairs / self.true_pairs


def window_join_report(grid: Grid, ranks: np.ndarray,
                       cells_a: Sequence[int], cells_b: Sequence[int],
                       epsilon: int, window: int) -> JoinReport:
    """Run the window join and score it against the exact join.

    The exact join is counted on its distance matrix, never listed: the
    true pairs are its set entries, and the matched pairs are the set
    entries the candidate pairs (distinct position pairs) pick out.
    """
    ranks = np.asarray(ranks)
    if ranks.shape != (grid.size,):
        raise DimensionError(
            f"ranks must have shape ({grid.size},), got {ranks.shape}"
        )
    within = _within_epsilon(grid, cells_a, cells_b, epsilon)
    candidates = window_join_candidates(ranks, cells_a, cells_b, window)
    return JoinReport(
        epsilon=epsilon,
        window=window,
        true_pairs=int(np.count_nonzero(within)),
        candidate_pairs=len(candidates),
        matched_pairs=int(np.count_nonzero(
            within[candidates[:, 0], candidates[:, 1]])),
    )
