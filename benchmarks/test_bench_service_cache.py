"""Service-layer bench: cold vs warm order latency, batch vs loop.

Three measurements, all appended to ``BENCH_spectral.json`` via the
shared ``save_json`` fixture so the trajectory survives across PRs:

* ``service_cache`` — one ``order_grid`` cold (full eigensolve), warm
  from the memory tier, and warm from the disk tier of a freshly
  restarted service.  The two warm phases are the product pitch: reuse
  costs a dict lookup / one ``np.load``, not an eigensolve.  The cold
  phase pins the numeric backend ``auto`` would pick for a graph this
  size, since ``auto`` serves this radius-1 grid's pair in closed form.
* ``service_batch`` — N same-topology weight configs through
  ``order_many`` vs N independent one-shot services; the batch path
  amortizes the graph build (and coarsening, under multilevel).
"""

import time

import numpy as np
import pytest

from repro.core import SpectralConfig
from repro.geometry import Grid
from repro.linalg.backends import resolve_auto, scipy_available
from repro.service import OrderingService, OrderRequest

GRID = Grid((48, 48))
CACHE_BACKEND = ("scipy" if scipy_available()
                 else resolve_auto(GRID.size, 4))
BATCH_GRID = Grid((32, 32))
BATCH_WEIGHTS = ("unit", "inverse_manhattan", "inverse_euclidean",
                 "gaussian")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_cold_vs_warm_order_grid(benchmark, save_json, tmp_path):
    store_dir = tmp_path / "orders"
    service = OrderingService(store=str(store_dir))
    config = SpectralConfig(backend=CACHE_BACKEND)

    cold_order, cold = _timed(lambda: service.order_grid(GRID, config))
    warm_order, warm_memory = _timed(
        lambda: service.order_grid(GRID, config))

    restarted = OrderingService(store=str(store_dir))
    disk_order, warm_disk = _timed(
        lambda: restarted.order_grid(GRID, config))

    assert np.array_equal(cold_order.permutation, warm_order.permutation)
    assert np.array_equal(cold_order.permutation, disk_order.permutation)
    assert restarted.stats.disk_hits == 1
    assert warm_memory < cold and warm_disk < cold

    for phase, seconds in (("cold", cold), ("warm_memory", warm_memory),
                           ("warm_disk", warm_disk)):
        save_json({
            "name": "service_cache",
            "n": GRID.size,
            "backend": CACHE_BACKEND,
            "phase": phase,
            "seconds": seconds,
            "speedup_vs_cold": cold / seconds if seconds else float("inf"),
        })

    # Keep a pytest-benchmark record of the warm path (the served one).
    benchmark.pedantic(lambda: service.order_grid(GRID, config),
                       iterations=1, rounds=3)


@pytest.mark.parametrize("backend", ["auto", "multilevel"])
def test_batch_vs_loop(benchmark, save_json, backend):
    configs = [SpectralConfig(weight=w, backend=backend)
               for w in BATCH_WEIGHTS]

    def run_loop():
        # One fresh service per request: no sharing of any kind.
        return [OrderingService().order_grid(BATCH_GRID, config)
                for config in configs]

    def run_batch():
        service = OrderingService()
        return service.order_many(
            [OrderRequest(BATCH_GRID, config) for config in configs])

    loop_orders, loop_seconds = _timed(run_loop)
    batch_orders, batch_seconds = _timed(run_batch)
    for a, b in zip(loop_orders, batch_orders):
        assert a == b

    save_json({
        "name": "service_batch",
        "n": BATCH_GRID.size,
        "backend": backend,
        "requests": len(configs),
        "loop_seconds": loop_seconds,
        "seconds": batch_seconds,
        "batch_speedup": (loop_seconds / batch_seconds
                          if batch_seconds else float("inf")),
    })

    benchmark.pedantic(run_batch, iterations=1, rounds=1)
