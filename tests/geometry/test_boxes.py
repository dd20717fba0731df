"""Tests for repro.geometry.boxes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    DimensionError,
    DomainError,
    InvalidParameterError,
)
from repro.geometry import (
    Box,
    Grid,
    boxes_with_extent,
    count_boxes_with_extent,
    extent_for_volume_fraction,
    partial_match_boxes,
)

# ----------------------------------------------------------------------
# Box basics
# ----------------------------------------------------------------------
def test_box_extent_and_volume():
    box = Box((1, 2), (3, 4))
    assert box.extent == (3, 3)
    assert box.volume == 9
    assert box.ndim == 2


def test_from_origin_extent():
    box = Box.from_origin_extent((1, 1), (2, 3))
    assert box.lo == (1, 1)
    assert box.hi == (2, 3)


def test_inverted_corners_rejected():
    with pytest.raises(InvalidParameterError):
        Box((2, 0), (1, 5))


def test_mismatched_corner_dims_rejected():
    with pytest.raises(DimensionError):
        Box((0,), (1, 1))


def test_zero_extent_rejected():
    with pytest.raises(InvalidParameterError):
        Box.from_origin_extent((0, 0), (0, 2))


def test_contains_point():
    box = Box((1, 1), (2, 3))
    assert box.contains_point((1, 3))
    assert not box.contains_point((0, 2))
    with pytest.raises(DimensionError):
        box.contains_point((1,))


def test_contains_box_and_intersects():
    outer = Box((0, 0), (5, 5))
    inner = Box((1, 1), (2, 2))
    disjoint = Box((6, 6), (7, 7))
    assert outer.contains_box(inner)
    assert not inner.contains_box(outer)
    assert outer.intersects(inner)
    assert not outer.intersects(disjoint)


def test_intersection():
    a = Box((0, 0), (3, 3))
    b = Box((2, 2), (5, 5))
    inter = a.intersection(b)
    assert inter == Box((2, 2), (3, 3))
    assert a.intersection(Box((4, 4), (5, 5))) is None


def test_touching_boxes_intersect():
    # Inclusive corners: sharing a face means intersecting.
    a = Box((0, 0), (1, 1))
    b = Box((1, 1), (2, 2))
    assert a.intersects(b)
    assert a.intersection(b) == Box((1, 1), (1, 1))


def test_cells_row_major():
    box = Box((1, 1), (2, 2))
    assert list(box.cells()) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_cell_indices_match_cells():
    grid = Grid((4, 4))
    box = Box((1, 1), (2, 3))
    expected = [grid.index_of(p) for p in box.cells()]
    assert list(box.cell_indices(grid)) == expected


def test_cell_indices_requires_containment():
    grid = Grid((3, 3))
    with pytest.raises(DomainError):
        Box((1, 1), (3, 3)).cell_indices(grid)
    with pytest.raises(DimensionError):
        Box((1,), (2,)).cell_indices(grid)


def test_clipped_to():
    grid = Grid((3, 3))
    assert Box((1, 1), (5, 5)).clipped_to(grid) == Box((1, 1), (2, 2))
    assert Box((4, 4), (5, 5)).clipped_to(grid) is None


def test_box_equality_and_hash():
    assert Box((0, 0), (1, 1)) == Box((0, 0), (1, 1))
    assert hash(Box((0, 0), (1, 1))) == hash(Box((0, 0), (1, 1)))
    assert Box((0, 0), (1, 1)) != Box((0, 0), (1, 2))


# ----------------------------------------------------------------------
# Box families
# ----------------------------------------------------------------------
def test_boxes_with_extent_enumerates_all_placements():
    grid = Grid((4, 3))
    boxes = list(boxes_with_extent(grid, (2, 2)))
    assert len(boxes) == 3 * 2
    assert len(boxes) == count_boxes_with_extent(grid, (2, 2))
    for box in boxes:
        assert box.extent == (2, 2)
        assert box.clipped_to(grid) == box


def test_boxes_with_extent_full_domain():
    grid = Grid((3, 3))
    boxes = list(boxes_with_extent(grid, (3, 3)))
    assert boxes == [Box((0, 0), (2, 2))]


def test_boxes_with_extent_validation():
    grid = Grid((3, 3))
    with pytest.raises(DomainError):
        list(boxes_with_extent(grid, (4, 1)))
    with pytest.raises(InvalidParameterError):
        list(boxes_with_extent(grid, (0, 1)))
    with pytest.raises(DimensionError):
        list(boxes_with_extent(grid, (2,)))


def test_count_boxes_validation():
    grid = Grid((3, 3))
    with pytest.raises(InvalidParameterError):
        count_boxes_with_extent(grid, (4, 1))


# ----------------------------------------------------------------------
# extent_for_volume_fraction
# ----------------------------------------------------------------------
def test_extent_fraction_one_is_full_grid():
    grid = Grid((5, 7))
    assert extent_for_volume_fraction(grid, 1.0) == (5, 7)


def test_extent_fraction_bounds():
    grid = Grid.cube(6, 4)
    for pct in (0.02, 0.04, 0.08, 0.16, 0.32, 0.64):
        extent = extent_for_volume_fraction(grid, pct)
        assert all(1 <= e <= 6 for e in extent)


def test_extent_fraction_distinct_for_paper_sizes():
    grid = Grid.cube(6, 4)
    extents = [extent_for_volume_fraction(grid, p / 100)
               for p in (2, 4, 8, 16, 32, 64)]
    assert len(set(extents)) == len(extents)
    volumes = [int(np.prod(e)) for e in extents]
    assert volumes == sorted(volumes)


def test_extent_fraction_close_to_target():
    grid = Grid.cube(6, 4)
    for pct in (0.02, 0.08, 0.32):
        extent = extent_for_volume_fraction(grid, pct)
        volume = int(np.prod(extent))
        target = pct * grid.size
        # Within a factor of 2 of the requested volume.
        assert target / 2 <= volume <= target * 2


def test_extent_fraction_validation():
    grid = Grid((4, 4))
    with pytest.raises(InvalidParameterError):
        extent_for_volume_fraction(grid, 0.0)
    with pytest.raises(InvalidParameterError):
        extent_for_volume_fraction(grid, 1.5)


# ----------------------------------------------------------------------
# partial_match_boxes
# ----------------------------------------------------------------------
def test_partial_match_boxes_span_free_axes():
    grid = Grid((4, 4))
    boxes = list(partial_match_boxes(grid, fixed_axes=[0], extent=2))
    assert len(boxes) == 3
    for box in boxes:
        assert box.extent == (2, 4)


def test_partial_match_boxes_validation():
    grid = Grid((4, 4))
    with pytest.raises(InvalidParameterError):
        list(partial_match_boxes(grid, fixed_axes=[], extent=2))
    with pytest.raises(InvalidParameterError):
        list(partial_match_boxes(grid, fixed_axes=[2], extent=2))
    with pytest.raises(InvalidParameterError):
        list(partial_match_boxes(grid, fixed_axes=[0], extent=5))


# ----------------------------------------------------------------------
# Property-based
# ----------------------------------------------------------------------
@given(
    side=st.integers(2, 6),
    ndim=st.integers(1, 3),
    data=st.data(),
)
def test_cell_indices_are_exactly_contained_cells(side, ndim, data):
    grid = Grid.cube(side, ndim)
    lo = tuple(data.draw(st.integers(0, side - 1)) for _ in range(ndim))
    hi = tuple(data.draw(st.integers(l, side - 1)) for l in lo)
    box = Box(lo, hi)
    inside = set(int(i) for i in box.cell_indices(grid))
    for index in range(grid.size):
        assert (index in inside) == box.contains_point(
            grid.point_of(index))


@given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       data=st.data())
def test_cell_indices_match_meshgrid_formula(shape, data):
    """Strided offsets give ``ravel_multi_index(meshgrid(...))``'s
    values and dtype, boxes on the grid's edges included."""
    grid = Grid(tuple(shape))
    lo = tuple(data.draw(st.one_of(st.just(0), st.integers(0, side - 1)))
               for side in shape)
    hi = tuple(data.draw(st.one_of(st.just(side - 1),
                                   st.integers(a, side - 1)))
               for a, side in zip(lo, shape))
    box = Box(lo, hi)
    mesh = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(lo, hi)),
                       indexing="ij")
    want = np.ravel_multi_index(tuple(m.ravel() for m in mesh), grid.shape)
    got = box.cell_indices(grid)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
