"""Preconditioned-eigensolve bench: the numpy-only leg's fast path.

Times the cold Fiedler solve (hierarchy build included) with scipy
blocked from the import machinery, so the numbers reflect the pure-
numpy deployment the ``lobpcg`` backend exists for, and records
seconds plus iteration counts into ``results/BENCH_spectral.json``.

The quick tier (always on) runs 64² grids; the 256² acceptance run —
preconditioned LOBPCG at least 5x faster than flat Lanczos, λ₂ exact to
solver accuracy — activates with ``REPRO_BENCH_FULL=1`` (it re-times
the slow Lanczos baseline, minutes of wall clock).  Committed records
update only under ``REPRO_BENCH_RECORD=1``, as everywhere in this
suite.
"""

import builtins
import os
import sys
import time

import numpy as np
import pytest

from conftest import once

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture
def no_scipy(monkeypatch):
    """Hide scipy so the CSR kernels and solvers run pure numpy."""
    real_import = builtins.__import__

    def fake_import(name, *args, **kwargs):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy hidden for this benchmark: {name}")
        return real_import(name, *args, **kwargs)

    for module_name in list(sys.modules):
        if module_name == "scipy" or module_name.startswith("scipy."):
            monkeypatch.delitem(sys.modules, module_name)
    monkeypatch.setattr(builtins, "__import__", fake_import)


def _cold_fiedler(side, backend):
    """One cold Fiedler solve: caches cleared, hierarchy build paid."""
    import repro.linalg.backends as backends
    from repro.core import fiedler_vector
    from repro.core.spectral import symmetric_grid_probe
    from repro.geometry import Grid
    from repro.graph import grid_graph

    backends._PRECONDITIONER_CACHE.clear()
    grid = Grid((side, side))
    graph = grid_graph(grid)
    probe = symmetric_grid_probe(grid)
    start = time.perf_counter()
    result = fiedler_vector(graph, backend=backend, probe=probe)
    seconds = time.perf_counter() - start
    lambda2 = 2 * (1 - np.cos(np.pi / side))
    relative_error = abs(result.value - lambda2) / lambda2
    return seconds, relative_error


def _solver_stats(side):
    """LOBPCG's iteration counters of one deflated k=1 solve."""
    import repro.linalg.backends as backends
    from repro.geometry import Grid
    from repro.graph import grid_graph, laplacian
    from repro.linalg.lobpcg import smallest_eigenpairs_lobpcg

    lap = laplacian(grid_graph(Grid((side, side))))
    n = lap.n
    deflate = [np.ones(n) / np.sqrt(n)]
    preconditioner = backends.multilevel_preconditioner_for(lap)
    stats = {}
    smallest_eigenpairs_lobpcg(
        lap.matvec, n, 1, upper_bound=lap.gershgorin_upper_bound(),
        deflate=deflate, preconditioner=preconditioner,
        matmat=lap.matmat, stats=stats)
    return stats


@pytest.mark.parametrize("backend", ["lanczos", "lobpcg"])
def test_preconditioned_quick(benchmark, save_json, no_scipy, backend):
    side = 64
    seconds, relative_error = once(benchmark, _cold_fiedler, side, backend)
    record = {
        "name": "fiedler_noscipy",
        "n": side * side,
        "grid": f"{side}x{side}",
        "backend": backend,
        "seconds": round(seconds, 3),
        "lambda2_rel_error": relative_error,
    }
    if backend != "lanczos":
        stats = _solver_stats(side)
        record.update({f"solver_{k}": v for k, v in stats.items()})
    save_json(record)
    assert relative_error < 1e-6


@pytest.mark.skipif(not FULL, reason="set REPRO_BENCH_FULL=1 to run")
def test_preconditioned_full_256(save_json, no_scipy):
    """The preconditioned-solver acceptance run, pinned.

    Cold 256² Fiedler solve on the numpy-only leg, three ways: the
    V-cycle-preconditioned LOBPCG backend, today's flat Lanczos (which
    shares the reduceat CSR kernels that landed with this work), and
    Lanczos on the pre-overhaul bincount/column-loop kernels — the
    baseline the >= 5x acceptance bar was set against.  All at exact λ₂
    (the solvers' residual gates enforce vector quality; the eigenvalue
    check here is end-to-end).
    """
    from repro.linalg.sparse import CSRMatrix

    side = 256
    results = {}

    def measure(backend, label, note=None):
        seconds, relative_error = _cold_fiedler(side, backend)
        record = {
            "name": "fiedler_noscipy",
            "n": side * side,
            "grid": f"{side}x{side}",
            "backend": label,
            "seconds": round(seconds, 3),
            "lambda2_rel_error": relative_error,
        }
        if note:
            record["note"] = note
        if label == "lobpcg":
            stats = _solver_stats(side)
            record.update({f"solver_{k}": v for k, v in stats.items()})
        save_json(record)
        results[label] = seconds
        assert relative_error < 1e-6, label

    measure("lobpcg", "lobpcg")
    measure("lanczos", "lanczos")
    # The pre-overhaul kernels: zeroing _min_row_count disables the
    # reduceat fast paths, restoring the seed's bincount matvec and
    # column-loop matmat bit for bit.
    real_init = CSRMatrix.__init__

    def seed_kernel_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self._min_row_count = 0

    CSRMatrix.__init__ = seed_kernel_init
    try:
        measure("lanczos", "lanczos-seed-kernels",
                note="pre-overhaul CSR kernels: the acceptance baseline")
    finally:
        CSRMatrix.__init__ = real_init

    for baseline, bar in (("lanczos-seed-kernels", 5.0), ("lanczos", 2.0)):
        speedup = results[baseline] / results["lobpcg"]
        save_json({
            "name": "fiedler_noscipy_speedup",
            "n": side * side,
            "grid": f"{side}x{side}",
            "backend": f"lobpcg_vs_{baseline}",
            "speedup": round(speedup, 2),
        })
        assert speedup >= bar, \
            f"lobpcg speedup over {baseline} is {speedup:.2f}x, below {bar}x"
