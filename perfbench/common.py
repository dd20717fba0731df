"""Helpers shared by the workload sessions: statistics, answer checks,
order-quality measures and metric scraping.

The checks recompute every answer from first principles with numpy
(corner arithmetic, brute-force distances), so a wrong answer from any
layer of ``repro`` is counted as a failure rather than compared against
itself.
"""

from __future__ import annotations

import dataclasses
import math
import re
import resource
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: Candidate tail percentiles.  The tail metric reports the highest one
#: with at least ten samples beyond it.  p99.9 is left out: between
#: 10-second windows of identical work it moved by 35-55%.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)

#: ``SpectralIndex``'s default page size; every index the benchmark
#: builds or serves uses it.
PAGE_SIZE = 16


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with >= 10 of ``count`` samples
    beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= 10:
            best = pct
    return best


def latency_summary(latencies: Sequence[float],
                    wall: Optional[float] = None) -> Dict:
    """End-to-end timing metrics of a closed loop (seconds in).  The
    loop's wall time is ``wall``, or else the sum of the latencies."""
    values = np.asarray(latencies, dtype=np.float64) * 1e3
    pct = tail_percentile(len(values))
    if wall is None:
        wall = float(values.sum()) / 1e3
    return {
        "ops_per_s": len(values) / wall,
        "latency_p50_ms": float(np.percentile(values, 50)),
        "latency_tail_ms": float(np.percentile(values, pct)),
        "tail_percentile": pct,
        "samples": len(values),
    }


def best_of(runs: Sequence[Sequence[Optional[float]]]
            ) -> List[Optional[float]]:
    """Each operation's fastest time over several runs of one list, or
    ``None`` where it failed in any run.

    The machine's speed drifts in steps that last from seconds to
    minutes (a fixed loop reads up to 1.7x slower for a while, then
    recovers), and that drift only ever adds time.  Runs spread over
    the timed phase give a sub-millisecond operation several chances at
    the machine's full speed, so its fastest time moves with the program
    rather than with the neighbours.  An operation of tens of
    milliseconds gets no such chance (see README.md).
    """
    return [None if None in times else min(times) for times in zip(*runs)]


def pass_summary(passes: Sequence[Dict]) -> Dict:
    """Median over passes of each pass's own wall-time ``ops_per_s``
    and ``latency_p50_ms``: what one plain run of the list reads."""
    summaries = [latency_summary([t for t in p["times"] if t is not None],
                                 p["wall"]) for p in passes]
    return {key: statistics.median(s[key] for s in summaries)
            for key in ("ops_per_s", "latency_p50_ms")}


def p50_ms(latencies: Iterable[float]) -> float:
    values = list(latencies)
    return float(np.percentile(values, 50)) * 1e3 if values else float("nan")


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def box_cells(shape, lo, hi) -> np.ndarray:
    """Ascending row-major flat indices of the cells in a (lo, hi) box."""
    rows = np.arange(lo[0], hi[0] + 1)
    cols = np.arange(lo[1], hi[1] + 1)
    return (rows[:, None] * shape[1] + cols[None, :]).ravel()


def range_ok(execution, shape, lo, hi, plan, ranks) -> bool:
    """Results equal the box's cells, and pages/seeks match the layout.

    Page ``p`` holds ranks ``[p * PAGE_SIZE, (p + 1) * PAGE_SIZE)``.
    ``span-scan`` reads every page of the box's rank span in one run;
    ``page-fetch`` reads only the pages holding the box's cells.
    """
    wanted = box_cells(shape, lo, hi)
    if not np.array_equal(np.asarray(execution.results), wanted):
        return False
    box_ranks = ranks[wanted]
    if plan == "span-scan":
        first, last = int(box_ranks.min()), int(box_ranks.max())
        pages = last // PAGE_SIZE - first // PAGE_SIZE + 1
        seeks = 1
    else:
        page_ids = np.unique(box_ranks // PAGE_SIZE)
        pages = len(page_ids)
        seeks = 1 + int(np.count_nonzero(np.diff(page_ids) > 1))
    return execution.pages_fetched == pages and execution.seeks == seeks


def nn_ok(result, k: int, query: int, grid_size: int,
          cells=None) -> bool:
    """``k`` distinct cells of the domain (the grid, or the occupied
    ``cells`` of a point set), the query cell excluded."""
    found = np.asarray(result.neighbors)
    if (len(found) != k or len(np.unique(found)) != k
            or query in found.tolist()
            or found.min() < 0 or found.max() >= grid_size):
        return False
    return cells is None or bool(np.isin(found, cells).all())


def true_knn(coords: np.ndarray, cells: np.ndarray, query: int,
             k: int) -> np.ndarray:
    """The ``k`` of ``cells`` (flat ids, ascending, with their (row,
    col) ``coords``) nearest to ``query`` in Manhattan distance, in no
    particular order; ties are broken by ascending flat index, as
    ``repro.query.nn.true_knn`` does, and the query itself is excluded.
    """
    row, col = coords[np.searchsorted(cells, query)]
    dist = np.abs(coords[:, 0] - row) + np.abs(coords[:, 1] - col)
    # One integer key per cell orders by distance, then by flat index.
    key = dist * (int(cells[-1]) + 1) + cells
    key[cells == query] = np.iinfo(np.int64).max
    return cells[np.argpartition(key, k)[:k]]


def recall(found, truth) -> float:
    return len(set(np.asarray(found).tolist())
               & set(truth.tolist())) / len(truth)


def join_pairs(shape, cells_a, cells_b, epsilon: int) -> int:
    """Brute-force count of (a, b) pairs within Manhattan ``epsilon``."""
    a = np.asarray(cells_a)
    b = np.asarray(cells_b)
    ra, ca = np.divmod(a, shape[1])
    rb, cb = np.divmod(b, shape[1])
    dist = (np.abs(ra[:, None] - rb[None, :])
            + np.abs(ca[:, None] - cb[None, :]))
    return int(np.count_nonzero(dist <= epsilon))


def is_permutation(ranks, n: int) -> bool:
    ranks = np.asarray(ranks)
    return ranks.shape == (n,) and np.array_equal(np.sort(ranks),
                                                  np.arange(n))


def same_answer(a, b) -> bool:
    """Bit-identity of two answers: arrays, dataclasses, orders, lists."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_answer(x, y) for x, y in zip(a, b)))
    if hasattr(a, "permutation") and hasattr(b, "permutation"):
        return same_answer(a.permutation, b.permutation)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_answer(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    return type(a) is type(b) and a == b


# ----------------------------------------------------------------------
# Order quality
# ----------------------------------------------------------------------
class Quality:
    """Accumulates the paper's quality measures of the served orders:
    Theorem-1 edge stretch, Figure-5 nn recall, Figure-6 pages/seeks."""

    def __init__(self) -> None:
        self.two_sum = 0.0
        self.edges = 0
        self.recalls: List[float] = []
        self.pages: List[int] = []
        self.seeks: List[int] = []

    def add_order(self, graph, order) -> None:
        from repro.metrics.arrangement import two_sum

        self.two_sum += two_sum(graph, order)
        self.edges += graph.num_edges

    def add_range(self, execution) -> None:
        self.pages.append(int(execution.pages_fetched))
        self.seeks.append(int(execution.seeks))

    def metrics(self) -> Dict[str, float]:
        return {
            "edge_stretch_rms": math.sqrt(self.two_sum / self.edges),
            "nn_recall": float(np.mean(self.recalls)),
            "pages_per_range": float(np.mean(self.pages)),
            "seeks_per_range": float(np.mean(self.seeks)),
        }


# ----------------------------------------------------------------------
# Prometheus text scraping (server and worker metrics)
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def scrape(texts: Iterable[str], name: str, **labels: str) -> float:
    """Sum of one sample family over every dump and matching label set."""
    total = 0.0
    for text in texts:
        for line in text.splitlines():
            match = _SAMPLE.match(line.strip())
            if not match or match.group(1) != name:
                continue
            label_text = match.group(2) or ""
            if all(f'{key}="{value}"' in label_text
                   for key, value in labels.items()):
                total += float(match.group(3))
    return total


def histogram_mean_ms(before: Iterable[str], after: Iterable[str],
                      family: str, **labels: str) -> float:
    """Mean observation (ms) of a histogram between two scrapes."""
    before, after = list(before), list(after)
    count = (scrape(after, family + "_count", **labels)
             - scrape(before, family + "_count", **labels))
    total = (scrape(after, family + "_sum", **labels)
             - scrape(before, family + "_sum", **labels))
    return total / count * 1e3 if count else 0.0
