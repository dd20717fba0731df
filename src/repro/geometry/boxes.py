"""Axis-aligned boxes (hyper-rectangles) over grid domains.

Boxes are the range-query shape of the paper's Figure-6 experiments: a
query is the set of grid cells inside a box, and the quality of a mapping
is judged by how compact the 1-D images of those cells are.

A :class:`Box` stores *inclusive* integer corner coordinates ``lo`` and
``hi``; the box contains every cell ``p`` with ``lo[i] <= p[i] <= hi[i]``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DimensionError, DomainError, InvalidParameterError
from repro.geometry.grid import Grid, Point


class Box:
    """An axis-aligned box with inclusive corners ``lo`` and ``hi``."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: Sequence[int], hi: Sequence[int]):
        lo = tuple(int(c) for c in lo)
        hi = tuple(int(c) for c in hi)
        if len(lo) != len(hi):
            raise DimensionError(
                f"corners have different dimensionality: {len(lo)} vs {len(hi)}"
            )
        if len(lo) == 0:
            raise InvalidParameterError("a box needs at least one dimension")
        if any(a > b for a, b in zip(lo, hi)):
            raise InvalidParameterError(
                f"box corners are inverted: lo={lo}, hi={hi}"
            )
        self._lo = lo
        self._hi = hi

    @classmethod
    def from_origin_extent(cls, origin: Sequence[int],
                           extent: Sequence[int]) -> "Box":
        """Box with corner ``origin`` and per-axis side lengths ``extent``."""
        origin = tuple(int(c) for c in origin)
        extent = tuple(int(e) for e in extent)
        if any(e <= 0 for e in extent):
            raise InvalidParameterError(
                f"extents must be positive, got {extent}"
            )
        hi = tuple(o + e - 1 for o, e in zip(origin, extent))
        return cls(origin, hi)

    # ------------------------------------------------------------------
    @property
    def lo(self) -> Point:
        return self._lo

    @property
    def hi(self) -> Point:
        return self._hi

    @property
    def ndim(self) -> int:
        return len(self._lo)

    @property
    def extent(self) -> Tuple[int, ...]:
        """Per-axis side length (number of cells)."""
        return tuple(b - a + 1 for a, b in zip(self._lo, self._hi))

    @property
    def volume(self) -> int:
        """Number of cells inside the box."""
        vol = 1
        for e in self.extent:
            vol *= e
        return vol

    # ------------------------------------------------------------------
    def contains_point(self, point: Sequence[int]) -> bool:
        if len(point) != self.ndim:
            raise DimensionError(
                f"point has {len(point)} coordinates, box has {self.ndim}"
            )
        return all(a <= int(c) <= b
                   for c, a, b in zip(point, self._lo, self._hi))

    def contains_box(self, other: "Box") -> bool:
        self._check_same_ndim(other)
        return (all(a <= c for a, c in zip(self._lo, other._lo))
                and all(b >= c for b, c in zip(self._hi, other._hi)))

    def intersects(self, other: "Box") -> bool:
        self._check_same_ndim(other)
        return all(a <= d and c <= b
                   for a, b, c, d in zip(self._lo, self._hi,
                                         other._lo, other._hi))

    def intersection(self, other: "Box") -> Optional["Box"]:
        """The overlapping box, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        lo = tuple(max(a, c) for a, c in zip(self._lo, other._lo))
        hi = tuple(min(b, d) for b, d in zip(self._hi, other._hi))
        return Box(lo, hi)

    def _check_same_ndim(self, other: "Box") -> None:
        if other.ndim != self.ndim:
            raise DimensionError(
                f"boxes have different dimensionality: "
                f"{self.ndim} vs {other.ndim}"
            )

    # ------------------------------------------------------------------
    def cells(self) -> Iterator[Point]:
        """All cells inside the box, in row-major order."""
        ranges = [range(a, b + 1) for a, b in zip(self._lo, self._hi)]
        return itertools.product(*ranges)

    def cell_indices(self, grid: Grid) -> np.ndarray:
        """Flat (row-major) grid indices of every cell inside the box,
        ascending, as an ``intp`` array."""
        if grid.ndim != self.ndim:
            raise DimensionError(
                f"box is {self.ndim}-d but grid is {grid.ndim}-d"
            )
        if any(a < 0 for a in self._lo) or any(
                b >= s for b, s in zip(self._hi, grid.shape)):
            raise DomainError(
                f"box {self!r} not contained in grid of shape {grid.shape}"
            )
        # Each axis contributes a strided run of offsets; their outer
        # sum, last axis fastest, is the row-major index block.
        cells = None
        stride = 1
        for a, b, side in zip(self._lo[::-1], self._hi[::-1],
                              grid.shape[::-1]):
            offsets = np.arange(a * stride, (b + 1) * stride, stride,
                                dtype=np.intp)
            cells = offsets if cells is None else np.add.outer(offsets,
                                                               cells)
            stride *= side
        return cells.ravel()

    def clipped_to(self, grid: Grid) -> Optional["Box"]:
        """The part of the box inside ``grid``, or ``None`` if disjoint."""
        domain = Box(
            (0,) * grid.ndim, tuple(s - 1 for s in grid.shape)
        )
        return self.intersection(domain)

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (isinstance(other, Box)
                and other._lo == self._lo and other._hi == self._hi)

    def __hash__(self) -> int:
        return hash(("Box", self._lo, self._hi))

    def __repr__(self) -> str:
        return f"Box(lo={self._lo}, hi={self._hi})"


# ----------------------------------------------------------------------
# Box family generators
# ----------------------------------------------------------------------
def boxes_with_extent(grid: Grid, extent: Sequence[int]) -> Iterator[Box]:
    """Every placement of a box of the given per-axis extent inside ``grid``.

    This is the exhaustive query family of the paper's Figure 6 ("all
    possible ... range queries with a certain size").
    """
    extent = tuple(int(e) for e in extent)
    if len(extent) != grid.ndim:
        raise DimensionError(
            f"extent has {len(extent)} axes, grid has {grid.ndim}"
        )
    if any(e <= 0 for e in extent):
        raise InvalidParameterError(f"extents must be positive, got {extent}")
    if any(e > s for e, s in zip(extent, grid.shape)):
        raise DomainError(
            f"extent {extent} does not fit in grid of shape {grid.shape}"
        )
    origins = [range(s - e + 1) for s, e in zip(grid.shape, extent)]
    for origin in itertools.product(*origins):
        yield Box.from_origin_extent(origin, extent)


def count_boxes_with_extent(grid: Grid, extent: Sequence[int]) -> int:
    """Number of boxes :func:`boxes_with_extent` would yield."""
    extent = tuple(int(e) for e in extent)
    count = 1
    for s, e in zip(grid.shape, extent):
        if e <= 0 or e > s:
            raise InvalidParameterError(
                f"extent {extent} invalid for grid shape {grid.shape}"
            )
        count *= s - e + 1
    return count


def extent_for_volume_fraction(grid: Grid, fraction: float) -> Tuple[int, ...]:
    """Per-axis extent of a near-cubic box covering ``fraction`` of the grid.

    The paper parameterizes range queries by "size (percent)"; we realize
    a query of size ``fraction`` as the most-cubic integer box whose
    volume is as close as possible to ``fraction * grid.size``: start
    from the floor of the ideal cubic side per axis, then greedily grow
    one axis at a time (the axis whose growth lands the volume closest to
    the target; ties to the lowest axis index) while that improves the
    fit.  Deterministic, and distinct size fractions yield distinct
    extents wherever integer geometry allows.
    """
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameterError(
            f"fraction must be in (0, 1], got {fraction}"
        )
    target = fraction * grid.size
    side_scale = fraction ** (1.0 / grid.ndim)
    extent = [max(1, min(s, int(s * side_scale)))
              for s in grid.shape]

    def volume(e):
        v = 1
        for x in e:
            v *= x
        return v

    while True:
        best_axis = -1
        best_error = abs(volume(extent) - target)
        for axis in range(grid.ndim):
            if extent[axis] >= grid.shape[axis]:
                continue
            grown = extent.copy()
            grown[axis] += 1
            error = abs(volume(grown) - target)
            if error < best_error:
                best_error = error
                best_axis = axis
        if best_axis < 0:
            return tuple(extent)
        extent[best_axis] += 1


def partial_match_boxes(grid: Grid, fixed_axes: Sequence[int],
                        extent: int) -> Iterator[Box]:
    """Partial-match range queries: constrain a subset of axes only.

    A *partial range query* fixes an interval of length ``extent`` on each
    axis in ``fixed_axes`` and spans the full domain on every other axis.
    Figure 6b aggregates over "all possible partial range queries with a
    certain size and dimensionality"; this generator enumerates them for
    one choice of constrained axes.
    """
    fixed = sorted(set(int(a) for a in fixed_axes))
    if not fixed:
        raise InvalidParameterError("at least one axis must be constrained")
    if fixed[0] < 0 or fixed[-1] >= grid.ndim:
        raise InvalidParameterError(
            f"fixed_axes {fixed} out of range for {grid.ndim}-d grid"
        )
    full_extent = []
    for axis, s in enumerate(grid.shape):
        if axis in fixed:
            if extent <= 0 or extent > s:
                raise InvalidParameterError(
                    f"extent {extent} invalid for axis {axis} of length {s}"
                )
            full_extent.append(extent)
        else:
            full_extent.append(s)
    yield from boxes_with_extent(grid, full_extent)
