"""Linear orders: the output type of every mapping in this library.

A :class:`LinearOrder` is a bijection between ``n`` items (grid cells,
graph vertices) and ranks ``0 .. n-1``, stored both ways:

* ``permutation[rank] = item`` — the visit sequence (the paper's ``S``);
* ``ranks[item] = rank`` — the inverse, which metrics consume.

The paper's "one-dimensional distance" between two points is the absolute
difference of their ranks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError


def _as_readonly(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array, dtype=np.int64)
    array.flags.writeable = False
    return array


class LinearOrder:
    """An immutable bijection between items ``0..n-1`` and ranks ``0..n-1``."""

    __slots__ = ("_perm", "_ranks")

    def __init__(self, permutation: Sequence[int]):
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.ndim != 1:
            raise InvalidParameterError(
                f"permutation must be 1-D, got shape {perm.shape}"
            )
        n = len(perm)
        seen = np.zeros(n, dtype=bool)
        if n:
            if perm.min() < 0 or perm.max() >= n:
                raise InvalidParameterError(
                    "permutation entries must lie in [0, n)"
                )
            seen[perm] = True
            if not seen.all():
                raise InvalidParameterError(
                    "permutation has repeated entries"
                )
        ranks = np.empty(n, dtype=np.int64)
        ranks[perm] = np.arange(n)
        self._perm = _as_readonly(perm)
        self._ranks = _as_readonly(ranks)

    @classmethod
    def from_ranks(cls, ranks: Sequence[int]) -> "LinearOrder":
        """Build from the inverse representation ``ranks[item] = rank``."""
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.ndim != 1:
            raise InvalidParameterError(
                f"ranks must be 1-D, got shape {ranks.shape}"
            )
        n = len(ranks)
        perm = np.empty(n, dtype=np.int64)
        if n:
            if ranks.min() < 0 or ranks.max() >= n:
                raise InvalidParameterError("ranks must lie in [0, n)")
            perm[ranks] = np.arange(n)
            if len(np.unique(ranks)) != n:
                raise InvalidParameterError("ranks has repeated entries")
        return cls(perm)

    @classmethod
    def identity(cls, n: int) -> "LinearOrder":
        """The identity order (item ``i`` at rank ``i``)."""
        return cls(np.arange(n))

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._perm)

    @property
    def permutation(self) -> np.ndarray:
        """Read-only array: ``permutation[rank] = item``."""
        return self._perm

    @property
    def ranks(self) -> np.ndarray:
        """Read-only array: ``ranks[item] = rank``."""
        return self._ranks

    def rank_of(self, item: int) -> int:
        """Rank of one item."""
        return int(self._ranks[item])

    def item_at(self, rank: int) -> int:
        """Item occupying one rank."""
        return int(self._perm[rank])

    def reversed(self) -> "LinearOrder":
        """The same order traversed backwards."""
        return LinearOrder(self._perm[::-1])

    # ------------------------------------------------------------------
    # Order-comparison utilities (used by tests and ablations)
    # ------------------------------------------------------------------
    def footrule_distance(self, other: "LinearOrder") -> int:
        """Spearman's footrule: ``sum_i |rank_self(i) - rank_other(i)|``."""
        self._check_same_n(other)
        return int(np.abs(self._ranks - other._ranks).sum())

    def displacement(self, other: "LinearOrder") -> np.ndarray:
        """Per-item signed rank difference ``rank_other - rank_self``."""
        self._check_same_n(other)
        return other._ranks - self._ranks

    def agrees_up_to_reversal(self, other: "LinearOrder") -> bool:
        """Whether the two orders are equal or exact reverses.

        The Fiedler vector is only defined up to sign, so spectral orders
        from different backends may legitimately come out reversed.
        """
        self._check_same_n(other)
        return self == other or self == other.reversed()

    def _check_same_n(self, other: "LinearOrder") -> None:
        if other.n != self.n:
            raise InvalidParameterError(
                f"orders have different sizes: {self.n} vs {other.n}"
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __reduce__(self):
        # Rebuild through __init__: numpy does not preserve the
        # read-only flag across pickling, and an order crossing a
        # process boundary (the repro.serve IPC protocol) must arrive
        # with its immutability invariant — and its validation — intact.
        return (LinearOrder, (self._perm,))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearOrder)
                and np.array_equal(other._perm, self._perm))

    def __hash__(self) -> int:
        return hash(("LinearOrder", self._perm.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 12:
            return f"LinearOrder({[int(v) for v in self._perm]})"
        head = ", ".join(str(int(v)) for v in self._perm[:8])
        return f"LinearOrder([{head}, ...], n={self.n})"


def order_by_values(values: Sequence[float]) -> LinearOrder:
    """Items sorted ascending by value — Step 5 of the paper's algorithm.

    Equal values are resolved by item id, so the result is always
    deterministic.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise InvalidParameterError(
            f"values must be 1-D, got shape {values.shape}"
        )
    # lexsort: last key is primary.
    perm = np.lexsort((np.arange(len(values)), values))
    return LinearOrder(perm)
