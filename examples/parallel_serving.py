"""The serving fronts: batches, asyncio, and sharded routing.

Run with::

    python examples/parallel_serving.py

One engine, three ways to put traffic through it.  A mixed
range/nn/join batch executes through ``query_many`` on the calling
thread (threads sharing the index get the same answers bit for bit, and
buffer accounting stays exact), the same index serves an asyncio event
loop through ``AsyncSpectralIndex`` (every call on one executor
thread), and a ``ShardedIndexFrontend`` partitions a population of
domains over per-shard ordering services by their content-hash
fingerprints.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.api import (
    AsyncSpectralIndex,
    JoinQuery,
    NNQuery,
    RangeQuery,
    SpectralIndex,
)
from repro.geometry import Grid
from repro.service import ShardedIndexFrontend

SIDE = 32


def build_batch(rng, n):
    """A mixed workload: windows, neighbours, and a spatial join."""
    batch = [NNQuery(int(c), k=8) for c in
             rng.choice(n, size=12, replace=False)]
    for _ in range(6):
        lo = (int(rng.integers(0, SIDE - 9)),
              int(rng.integers(0, SIDE - 9)))
        batch.append(RangeQuery((lo, (lo[0] + 8, lo[1] + 8))))
    a = rng.choice(n, size=40, replace=False).tolist()
    b = rng.choice(n, size=40, replace=False).tolist()
    batch.append(JoinQuery(a, b, epsilon=3, window=48))
    return batch


def main() -> None:
    rng = np.random.default_rng(3)
    index = SpectralIndex.build((SIDE, SIDE), buffer_capacity=16)
    batch = build_batch(rng, SIDE * SIDE)

    # -- batches: threads sharing the index get the same answers -------
    sequential = index.query_many(batch)
    with ThreadPoolExecutor(max_workers=2) as pool:
        shared = list(pool.map(index.query_many, [batch, batch]))
    identical = all(
        np.array_equal(a.results, b.results) if hasattr(a, "results")
        else np.array_equal(a.neighbors, b.neighbors)
        if hasattr(a, "neighbors") else a == b
        for run in shared
        for a, b in zip(sequential, run)
    )
    stats = index.buffer_stats()
    print(f"query_many here and on two threads sharing the index: "
          f"{len(batch)} queries, bit-identical={identical}")
    print(f"buffer conservation: {stats.hits} hits + {stats.misses} "
          f"misses == {stats.accesses} accesses "
          f"({stats.hits + stats.misses == stats.accesses})")

    # -- asyncio: the same index behind an event loop -----------------
    async def serve():
        async with AsyncSpectralIndex(index) as aindex:
            return await asyncio.gather(
                aindex.nn((5, 5), k=4),
                aindex.range(((2, 2), (9, 9))),
                aindex.query_many(batch[:6]),
            )

    nn_result, execution, small_batch = asyncio.run(serve())
    print(f"asyncio front: nn -> {nn_result.neighbors.tolist()}, "
          f"range -> {len(execution.results)} cells, "
          f"gathered batch of {len(small_batch)}")

    # -- sharded: a population of domains over 3 services -------------
    front = ShardedIndexFrontend(shards=3)
    sides = range(8, 20)
    placement = {side: front.shard_of((side, side)) for side in sides}
    for side in sides:
        front.order_grid(Grid((side, side)))
    per_shard = [s.computed for s in front.stats()]
    print(f"sharded frontend: {len(list(sides))} domains -> "
          f"shards {sorted(set(placement.values()))}, "
          f"solves per shard {per_shard}")
    result = front.query_many((12, 12), [NNQuery(50, k=4)])
    print(f"routed query on grid(12,12) via shard "
          f"{front.shard_of((12, 12))}: {result[0].neighbors.tolist()}")


if __name__ == "__main__":
    main()
