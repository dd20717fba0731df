"""Seeded inputs for every workload, generated with the standard library.

The benchmark hands the program only what these functions return: the
seed never reaches ``repro``.  They import nothing heavy, so a session
can build its inputs before it starts the set-up clock (see
``session.py``).  The same ``(seed, seconds)`` always gives the same
inputs; ``seconds`` only sets how many operations a run executes, from
a nominal rate measured on a 2-core x86 container.
"""

from __future__ import annotations

import math
import random

#: ``repro.linalg.DENSE_CUTOFF``: domains up to this many vertices
#: solve with the dense backend, larger ones with scipy.
DENSE_CUTOFF = 1024

#: The registered weight models an ``order_many`` batch spans.
WEIGHTS = ("gaussian", "inverse_euclidean", "inverse_manhattan", "unit")

# cold-order: one cycle of requests, repeated with fresh shapes.  Each
# row is (kind, min cells, max cells, square, min density, max density).
COLD_CYCLE = (
    ("grid", 256, DENSE_CUTOFF, True, None, None),   # dense, square
    ("grid", 300, 1000, False, None, None),          # dense
    ("grid", 1100, 4100, True, None, None),          # scipy, square
    ("grid", 6400, 10000, True, None, None),         # scipy, square, large
    ("grid", 1300, 6000, False, None, None),         # scipy
    ("points", 576, 1600, False, 0.30, 0.45),        # many components
    ("points", 700, 1500, False, 0.45, 0.60),        # dense components
    ("points", 2500, 5184, False, 0.65, 0.80),       # one giant component
    ("batch", 1000, 2500, False, None, None),        # order_many
)
#: Nominal wall seconds of one ``COLD_CYCLE`` of cold solves.
COLD_CYCLE_SECONDS = 0.9
#: Quality probes per ordered domain (nn cells and range boxes), and
#: the side of every probe box.
COLD_PROBES = 8
COLD_PROBE_BOX = 8

# warm-query: one 128x128 index and a hot region the buffer pool sees.
# The region is fixed: where it sits decides how long the span-scans'
# rank spans are, so a seeded region would move every metric.
WARM_SHAPE = (128, 128)
WARM_HOT = ((44, 44), (83, 83))
WARM_HOT_SHARE = 0.4
WARM_BOX_SIDES = (4, 32)
WARM_JOIN_REGION = 24
WARM_JOIN_CELLS = 64
WARM_JOIN_EPSILON = 2
WARM_JOIN_WINDOW = 64
#: (kind, cumulative share) of the warm-query mix.
WARM_MIX = (("range-span", 0.25), ("range-page", 0.50), ("nn8", 0.675),
            ("nn32", 0.85), ("join", 1.0))
#: Nominal warm-query operations per second (one thread).
WARM_OPS_PER_SECOND = 2000
#: Times the timed stream runs (see ``common.best_of``); ``--seconds``
#: covers all of them.
WARM_PASSES = 20
WARM_WARMUP_OPS = 300

# The serving tiers (measured from warm-query's traced run): eight grids
# that fit every worker cache, a request list and a tier-ladder list.
SERVING_SHAPES = ((32, 32), (40, 48), (48, 48), (56, 40), (64, 64),
                  (72, 56), (80, 80), (64, 96))
SERVING_BOX_SIDES = (4, 16)
SERVING_BATCH = 8
#: (kind, cumulative share) of the serving mix.
SERVING_MIX = (("range", 0.35), ("nn", 0.70), ("order", 0.85),
               ("query_many", 1.0))
SERVING_OPS = 1200
SERVING_LADDER_OPS = 150


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _pick(mix, u: float) -> str:
    for kind, edge in mix:
        if u < edge:
            return kind
    return mix[-1][0]


def _strata(rng: random.Random, count: int, lo: float, hi: float):
    """``count`` values spread over ``[lo, hi)``, one drawn from each
    of ``count`` equal strata, in random order: every run covers the
    band evenly, so its cost moves little with the seed."""
    values = [lo + (hi - lo) * (i + rng.random()) / count
              for i in range(count)]
    rng.shuffle(values)
    return values


def _midpoints(count: int, lo: float, hi: float):
    """The centres of ``count`` equal strata of ``[lo, hi)``, ascending."""
    return [lo + (hi - lo) * (i + 0.5) / count for i in range(count)]


def _shapes(rng: random.Random, count: int, lo: int, hi: int,
            square: bool, used: set):
    """``count`` distinct grid shapes with ``lo..hi`` cells, none in
    ``used``, ascending in size.

    The band fixes the sizes, so a run's cost moves little with the
    seed: square sides are spread evenly over the band, and the other
    cell counts sit at the centres of :func:`_midpoints`.  The seed
    picks each non-square shape's aspect ratio (stratified) and
    orientation.  Once the square sides run out, the rest are
    non-square.
    """
    shapes = []
    if square:
        sides = [side for side in range(math.isqrt(lo - 1) + 1,
                                        math.isqrt(hi) + 1)
                 if (side, side) not in used]
        take = min(count, len(sides))
        shapes = [(sides[int((i + 0.5) * len(sides) / take)],) * 2
                  for i in range(take)]
    rest = count - len(shapes)
    for target, aspect in zip(_midpoints(rest, lo, hi),
                              _strata(rng, rest, 1.2, 2.0)):
        for _ in range(1000):
            rows = max(2, round(math.sqrt(target / aspect)))
            cols = round(target / rows)
            shape = (rows, cols) if rng.random() < 0.5 else (cols, rows)
            if (rows != cols and lo <= rows * cols <= hi
                    and shape not in used and shape not in shapes):
                shapes.append(shape)
                break
            aspect = rng.uniform(1.2, 2.0)
        else:
            raise ValueError(f"fewer than {count} distinct shapes of "
                             f"{lo}..{hi} cells; use fewer --seconds")
    return shapes


def _box(rng: random.Random, shape, sides, within=None):
    """A (lo, hi) corner pair with both sides in ``sides``, inside
    ``within`` (a (lo, hi) pair) or the whole grid."""
    lo_bound, hi_bound = within or ((0, 0), (shape[0] - 1, shape[1] - 1))
    corner_lo, corner_hi = [], []
    for axis in range(2):
        span = hi_bound[axis] - lo_bound[axis] + 1
        side = rng.randint(min(sides[0], span), min(sides[1], span))
        start = rng.randint(lo_bound[axis], hi_bound[axis] - side + 1)
        corner_lo.append(start)
        corner_hi.append(start + side - 1)
    return tuple(corner_lo), tuple(corner_hi)


def _cold_probes(rng: random.Random, shape, cells):
    """Seeded nn cells (occupied ones) and, on full grids, range boxes
    of a fixed size, so the probes weigh every domain alike."""
    pool = cells if cells is not None else range(shape[0] * shape[1])
    nn_cells = tuple(rng.sample(pool, COLD_PROBES))
    boxes = () if cells is not None else tuple(
        _box(rng, shape, (COLD_PROBE_BOX, COLD_PROBE_BOX))
        for _ in range(COLD_PROBES))
    return nn_cells, boxes


def cold_order(seed: int, seconds: float):
    """Warm-up domains and the timed list of distinct cold domains.

    Every request is a dict with ``kind`` ("grid", "points" or
    "batch"), ``shape``, and ``cells`` (points) or ``weights``
    (batch).  No two requests share an order key, so every one misses
    every cache of a fresh service.
    """
    rng = _rng("cold-order", seed)
    warmup = [
        {"kind": "grid", "shape": (12, 12)},
        {"kind": "grid", "shape": (34, 36)},
        {"kind": "points", "shape": (20, 20),
         "cells": tuple(sorted(rng.sample(range(400), 200)))},
        {"kind": "batch", "shape": (10, 14), "weights": WEIGHTS[:2]},
    ]
    # Full-grid shapes are never reused (a batch spans every weight, a
    # single grid the unit weight); point sets are random cell subsets.
    used = {item["shape"] for item in warmup if item["kind"] != "points"}
    cycles = max(1, round(seconds / COLD_CYCLE_SECONDS))
    requests = []
    for kind, lo, hi, square, d_lo, d_hi in COLD_CYCLE:
        shapes = _shapes(rng, cycles, lo, hi, square,
                         used if kind != "points" else set())
        if kind != "points":
            used.update(shapes)
        # The largest point-set grids take the lowest densities, so the
        # occupied counts, and the solves, stay within the band's range.
        densities = (_midpoints(cycles, d_lo, d_hi)[::-1]
                     if kind == "points" else [None] * cycles)
        for shape, density in zip(shapes, densities):
            request = {"kind": kind, "shape": shape}
            if kind == "points":
                n = shape[0] * shape[1]
                request["cells"] = tuple(sorted(
                    rng.sample(range(n), round(density * n))))
            if kind == "batch":
                request["weights"] = WEIGHTS
            else:
                request["nn_cells"], request["boxes"] = _cold_probes(
                    rng, shape, request.get("cells"))
            requests.append(request)
    rng.shuffle(requests)
    return warmup, requests


def _mix_kinds(rng: random.Random, mix, count: int):
    """``count`` kinds in the exact shares of ``mix``, shuffled: every
    seed runs the same number of queries of each kind."""
    kinds, done = [], 0
    for kind, edge in mix:
        upto = round(edge * count)
        kinds += [kind] * (upto - done)
        done = upto
    rng.shuffle(kinds)
    return kinds


def _warm_ops(rng: random.Random, count: int):
    """The warm-query stream.  Kinds come in exact shares, and box sides
    and places, hot-region boxes and nn cells are stratified, so the
    stream's cost and its quality metrics move little with the seed."""
    kinds = _mix_kinds(rng, WARM_MIX, count)
    ranges = sum(kind.startswith("range") for kind in kinds)
    side_lo, side_hi = WARM_BOX_SIDES
    sides = zip(*(_strata(rng, ranges, side_lo, side_hi + 1)
                  for _ in range(2)))
    starts = zip(*(_strata(rng, ranges, 0.0, 1.0) for _ in range(2)))
    hot = iter(_mix_kinds(rng, ((True, WARM_HOT_SHARE), (False, 1.0)),
                          ranges))
    nn_cells = iter(_strata(rng, len(kinds) - ranges,
                            0, WARM_SHAPE[0] * WARM_SHAPE[1]))
    whole = ((0, 0), (WARM_SHAPE[0] - 1, WARM_SHAPE[1] - 1))
    ops = []
    for kind in kinds:
        if kind.startswith("range"):
            lo, hi = [], []
            bounds = WARM_HOT if next(hot) else whole
            for axis, (side, u) in enumerate(zip(next(sides),
                                                 next(starts))):
                side = int(side)
                first, last = bounds[0][axis], bounds[1][axis] - side + 1
                start = first + int(u * (last - first + 1))
                lo.append(start)
                hi.append(start + side - 1)
            plan = "span-scan" if kind == "range-span" else "page-fetch"
            ops.append(("range", plan, tuple(lo), tuple(hi)))
        elif kind.startswith("nn"):
            ops.append(("nn", int(next(nn_cells)),
                        8 if kind == "nn8" else 32))
        else:
            side = WARM_JOIN_REGION
            r0 = rng.randrange(WARM_SHAPE[0] - side + 1)
            c0 = rng.randrange(WARM_SHAPE[1] - side + 1)
            region = [(r0 + r) * WARM_SHAPE[1] + c0 + c
                      for r in range(side) for c in range(side)]
            ops.append(("join", tuple(rng.sample(region, WARM_JOIN_CELLS)),
                        tuple(rng.sample(region, WARM_JOIN_CELLS))))
    return ops


def warm_query(seed: int, seconds: float):
    """``(warm-up ops, timed ops, serving lists)`` over ``WARM_SHAPE``.

    Ops are tuples: ``("range", plan, lo, hi)``, ``("nn", cell, k)``
    and ``("join", cells_a, cells_b)``; the serving lists are
    :func:`serving`'s.
    """
    count = max(1, round(seconds * WARM_OPS_PER_SECOND / WARM_PASSES))
    return (_warm_ops(_rng("warm-query", seed, "warmup"), WARM_WARMUP_OPS),
            _warm_ops(_rng("warm-query", seed), count), serving(seed))


def _serving_ops(rng: random.Random, count: int, mix):
    ops = []
    for _ in range(count):
        grid = rng.randrange(len(SERVING_SHAPES))
        shape = SERVING_SHAPES[grid]
        kind = _pick(mix, rng.random())
        if kind == "range":
            lo, hi = _box(rng, shape, SERVING_BOX_SIDES)
            plan = "span-scan" if rng.random() < 0.5 else "page-fetch"
            ops.append(("range", grid, plan, lo, hi))
        elif kind == "nn":
            ops.append(("nn", grid, rng.randrange(shape[0] * shape[1]),
                        rng.choice((8, 32))))
        elif kind == "order":
            ops.append(("order", grid))
        else:
            batch = []
            for _ in range(SERVING_BATCH):
                if rng.random() < 0.5:
                    lo, hi = _box(rng, shape, SERVING_BOX_SIDES)
                    batch.append(("range", "page-fetch", lo, hi))
                else:
                    batch.append(("nn", rng.randrange(shape[0] * shape[1]),
                                  8))
            ops.append(("query_many", grid, tuple(batch)))
    return ops


def serving(seed: int):
    """The serving tiers' request list and tier-ladder list.

    Ops are tuples whose second field indexes ``SERVING_SHAPES``:
    ``("range", grid, plan, lo, hi)``, ``("nn", grid, cell, k)``,
    ``("order", grid)`` and ``("query_many", grid, batch)``.
    """
    ladder_mix = (("range", 0.4), ("nn", 0.8), ("order", 1.0))
    return (_serving_ops(_rng("serving", seed), SERVING_OPS, SERVING_MIX),
            _serving_ops(_rng("serving", seed, "ladder"),
                         SERVING_LADDER_OPS, ladder_mix))
