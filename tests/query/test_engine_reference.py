"""LinearStore's closed-form accounting against the pointer B+-tree.

The store prices a range query by rank arithmetic.  The reference model
below is the algorithm it replaced, kept verbatim in spirit: bulk-load a
:class:`~repro.index.BPlusTree` keyed by rank, walk it with
``range_search``, filter the candidates by box membership, read the
pages of the candidates, and touch each page in a buffer pool one
access at a time.  Every :class:`~repro.query.QueryExecution` field must
come out identical on both plans.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import LinearOrder
from repro.geometry import Box, Grid
from repro.index import BPlusTree
from repro.index.bplustree import bulk_load_height
from repro.mapping import ExplicitMapping, paper_mappings
from repro.query import LinearStore, QueryExecution, random_boxes
from repro.storage import DiskCostModel, LRUBufferPool, PageLayout

GRIDS = ((13, 7), (33, 31))
TREE_ORDERS = (3, 4, 8, 32)
PAGE_SIZES = (1, 7, 16)
BUFFER_PAGES = 5


class ReferenceStore:
    """A pointer B+-tree walk, a membership filter, and the pages of
    the candidates."""

    def __init__(self, grid, order, page_size, tree_order, capacity):
        self.grid = grid
        self.ranks = order.ranks
        self.layout = PageLayout(order, page_size)
        self.tree = BPlusTree.bulk_load(list(range(grid.size)),
                                        order.permutation.tolist(),
                                        order=tree_order)
        self.pool = LRUBufferPool(capacity)
        self.model = DiskCostModel()

    def range_query(self, box, plan):
        wanted = box.cell_indices(self.grid)
        wanted_set = set(wanted.tolist())
        ranks = self.ranks[wanted]
        if plan == "span-scan":
            candidates, node_accesses = self.tree.range_search(
                int(ranks.min()), int(ranks.max()))
            results = np.array(sorted(cell for cell in candidates
                                      if cell in wanted_set),
                               dtype=np.int64)
            pages = self.layout.pages_for_items(candidates)
        else:
            node_accesses = 0
            pages = self.layout.pages_for_items(wanted)
            results = np.sort(wanted)
        runs = len(self.layout.page_run_lengths(pages))
        hits = sum(self.pool.access(int(page)) for page in pages)
        misses = len(pages) - hits
        effective_runs = runs if misses == len(pages) else min(runs, misses)
        return QueryExecution(
            results=results, plan=plan, index_node_accesses=node_accesses,
            pages_fetched=len(pages), seeks=runs, buffer_hits=hits,
            cost=self.model.cost(misses, effective_runs))


def assert_same_execution(actual, expected):
    assert actual.results.dtype == expected.results.dtype
    assert np.array_equal(actual.results, expected.results)
    for field in dataclasses.fields(QueryExecution):
        if field.name != "results":
            got = getattr(actual, field.name)
            want = getattr(expected, field.name)
            assert type(got) is type(want), field.name
            assert got == want, field.name


def boxes_for(grid, order):
    """Random boxes of several extents, plus boxes holding rank N-1."""
    boxes = []
    for seed, extent in enumerate(((1, 1), (2, 3), (4, 4), (7, 5))):
        boxes += random_boxes(grid, extent, 4, seed=seed)
    top = grid.point_of(int(order.permutation[-1]))
    boxes.append(Box(top, top))
    boxes.append(Box(tuple(max(c - 2, 0) for c in top),
                     tuple(min(c + 2, s - 1)
                           for c, s in zip(top, grid.shape))))
    boxes.append(Box((0,) * grid.ndim, tuple(s - 1 for s in grid.shape)))
    return boxes


@pytest.fixture(scope="module")
def paper_orders():
    """Every paper mapping with its order on every grid, solved once."""
    return {shape: [(mapping, mapping.order_domain(Grid(shape)))
                    for mapping in paper_mappings()]
            for shape in GRIDS}


@pytest.mark.parametrize("page_size", PAGE_SIZES)
@pytest.mark.parametrize("tree_order", TREE_ORDERS)
@pytest.mark.parametrize("shape", GRIDS)
def test_store_matches_reference_model(paper_orders, shape, tree_order,
                                       page_size):
    grid = Grid(shape)
    for mapping, order in paper_orders[shape]:
        store = LinearStore(
            grid, mapping, order=order, page_size=page_size,
            tree_order=tree_order, buffer_capacity=BUFFER_PAGES)
        reference = ReferenceStore(grid, order, page_size, tree_order,
                                   BUFFER_PAGES)
        for i, box in enumerate(boxes_for(grid, order)):
            for plan in (("span-scan", "page-fetch") if i % 2
                         else ("page-fetch", "span-scan")):
                assert_same_execution(store.range_query(box, plan=plan),
                                      reference.range_query(box, plan))
        assert store.buffer_stats() == reference.pool.stats()


@pytest.mark.parametrize("tree_order", range(3, 9))
def test_height_and_node_counts_match_bplustree(tree_order):
    """Every range over every size up to 70: on a 1-D grid in identity
    order, box ``(lo, hi)`` is the rank range ``lo..hi``."""
    for size in range(0, 71):
        tree = BPlusTree.bulk_load(list(range(size)), list(range(size)),
                                   order=tree_order)
        assert bulk_load_height(size, tree_order) == tree.height
        if size == 0:
            continue
        grid = Grid((size,))
        identity = LinearOrder(np.arange(size))
        store = LinearStore(
            grid, ExplicitMapping(grid, identity), order=identity,
            tree_order=tree_order)
        assert store.point_query((size - 1,)) == (True, tree.height)
        for lo in range(size):
            for hi in range(lo, size):
                execution = store.range_query(Box((lo,), (hi,)))
                assert (execution.index_node_accesses
                        == tree.range_search(lo, hi)[1]), (size, lo, hi)
