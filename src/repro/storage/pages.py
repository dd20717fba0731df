"""Blocking a linear order into disk pages.

The whole point of a locality-preserving mapping, per the paper's
introduction, is "how to place the multi-dimensional data into a
one-dimensional storage media (e.g., the disk)".  A :class:`PageLayout`
realizes that placement: items are laid out in mapping order and cut into
fixed-capacity pages, so item with rank ``r`` lives on page
``r // page_size``.

Everything downstream (seek counting, buffering, declustering) consumes a
layout.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.ordering import LinearOrder
from repro.errors import InvalidParameterError


class PageLayout:
    """Items packed into fixed-size pages along a linear order."""

    __slots__ = ("_order", "_page_size", "_page_of")

    def __init__(self, order: LinearOrder, page_size: int):
        if page_size < 1:
            raise InvalidParameterError(
                f"page_size must be >= 1, got {page_size}"
            )
        self._order = order
        self._page_size = int(page_size)
        page_of = order.ranks // self._page_size
        page_of.flags.writeable = False
        self._page_of = page_of

    # ------------------------------------------------------------------
    @property
    def order(self) -> LinearOrder:
        return self._order

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def num_items(self) -> int:
        return self._order.n

    @property
    def num_pages(self) -> int:
        if self._order.n == 0:
            return 0
        return (self._order.n + self._page_size - 1) // self._page_size

    @property
    def page_of(self) -> np.ndarray:
        """Read-only array: ``page_of[item] = page id``."""
        return self._page_of

    # ------------------------------------------------------------------
    def items_on_page(self, page: int) -> np.ndarray:
        """Items stored on one page, in rank order."""
        if not 0 <= page < self.num_pages:
            raise InvalidParameterError(
                f"page {page} out of range [0, {self.num_pages})"
            )
        lo = page * self._page_size
        hi = min(lo + self._page_size, self._order.n)
        return self._order.permutation[lo:hi]

    def pages_for_items(self, items: Sequence[int]) -> np.ndarray:
        """Sorted distinct pages touched by an item set (e.g. a query).

        Marks a bitmap of every page and returns its set positions: one
        pass over the items and one over the pages, with no sort.
        """
        touched = np.zeros(self.num_pages, dtype=bool)
        touched[self._page_of[np.asarray(items, dtype=np.int64)]] = True
        return np.flatnonzero(touched)

    def page_run_lengths(self, pages: np.ndarray) -> List[int]:
        """Lengths of maximal runs of consecutive page ids.

        ``pages`` must be sorted and distinct (as returned by
        :meth:`pages_for_items`).  One run = one sequential read.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return []
        breaks = np.flatnonzero(np.diff(pages) > 1)
        run_bounds = np.concatenate([[-1], breaks, [len(pages) - 1]])
        return list(np.diff(run_bounds).astype(int))

    def __repr__(self) -> str:
        return (f"PageLayout(items={self.num_items}, "
                f"page_size={self._page_size}, pages={self.num_pages})")
