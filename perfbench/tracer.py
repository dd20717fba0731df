"""Per-layer timing from outside the program.

``LayerTracer`` replaces public entry points of ``repro`` with timing
wrappers for the length of a ``with`` block and restores the originals
afterwards; nothing inside ``src/`` changes.  For every label it
records calls, inclusive seconds, self seconds (inclusive minus the
time spent in wrapped callees on the same thread) and, for some
labels, one cheap value per call (a count, or a reference to measure
after the block).

A function is wrapped where its callers look it up: a module-level
function imported by name into another module is patched in that
module's namespace, a method on its class.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (label, module, attribute, per-call capture or None).  A capture
#: maps ``(args, kwargs, result)`` to a value kept in the label's
#: ``captured`` list; it runs inside the caller's timing, so it must be
#: cheap.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # graph: grid and induced-graph builds, Laplacians
    ("graph.build", "repro.core.spectral", "grid_graph", None),
    ("graph.build", "repro.core.spectral", "induced_grid_graph", None),
    ("graph.build", "repro.service.ordering", "induced_grid_graph", None),
    ("graph.build", "repro.service.ordering", "grid_graph_topology", None),
    ("graph.build", "repro.service.ordering", "grid_graph_from_topology",
     None),
    ("graph.build", "repro.core.fiedler", "laplacian", None),
    # linalg: the eigensolver entry point of the Fiedler pipeline
    ("linalg.solve", "repro.core.fiedler", "smallest_eigenpairs", None),
    # core: the spectral pipeline around them
    ("core.order", "repro.core.spectral",
     "SpectralLPM.order_graph_with_fiedler", None),
    # service: cache keys and the persistent tier
    ("service.fingerprint", "repro.service.ordering", "domain_fingerprint",
     None),
    ("service.fingerprint", "repro.service.ordering", "points_fingerprint",
     None),
    ("service.fingerprint", "repro.service.ordering", "order_key", None),
    ("service.store_save", "repro.service.store", "ArtifactStore.save",
     None),
    # api facade, query engine, geometry, index, storage
    ("api.query", "repro.api.index", "SpectralIndex.range", None),
    ("api.query", "repro.api.index", "SpectralIndex.nn", None),
    ("api.query", "repro.api.index", "SpectralIndex.join", None),
    ("query.range", "repro.query.engine", "LinearStore.range_query", None),
    ("geometry.cells", "repro.geometry.boxes", "Box.cell_indices", None),
    ("index.search", "repro.index.bplustree", "BPlusTree.range_search",
     lambda args, kwargs, result: len(result[0])),
    ("storage.pages", "repro.storage.pages", "PageLayout.pages_for_items",
     None),
    ("storage.pages", "repro.storage.pages", "PageLayout.page_run_lengths",
     None),
    ("storage.buffer", "repro.storage.buffer", "LRUBufferPool.access_many",
     None),
    ("query.nn_window", "repro.api.index", "window_candidates", None),
    ("query.join_report", "repro.api.index", "window_join_report", None),
    ("query.join_truth", "repro.query.join", "true_join_pairs", None),
    ("query.join_window", "repro.query.join", "window_join_candidates",
     None),
    # obs: the always-on histograms
    ("obs.observe", "repro.obs.metrics", "Histogram.observe", None),
    # net: the (seq, payload) pairs the client frames (sized after the
    # block) and the bytes it reads back
    ("net.send", "repro.net.client", "send_frame",
     lambda args, kwargs, result: (args[1], args[2])),
    ("net.recv", "repro.net.framing", "recv_exact",
     lambda args, kwargs, result: len(result)),
)


class LayerRecord:
    __slots__ = ("calls", "inclusive", "self_time", "captured")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.captured: List[object] = []

    def merge(self, other: "LayerRecord") -> None:
        self.calls += other.calls
        self.inclusive += other.inclusive
        self.self_time += other.self_time
        self.captured.extend(other.captured)


class LayerTracer:
    """Context manager that wraps ``ENTRY_POINTS`` while it is open."""

    def __init__(self) -> None:
        self._restore: List[Tuple[object, str, object, bool]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, LayerRecord]] = []  # guarded-by: _lock

    def __enter__(self) -> "LayerTracer":
        for label, module, path, capture in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            own = name in vars(owner)
            original = vars(owner)[name] if own else getattr(owner, name)
            self._restore.append((owner, name, original, own))
            setattr(owner, name, self._wrap(label, original, capture))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original, own in reversed(self._restore):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._restore.clear()

    def _table(self) -> Dict[str, LayerRecord]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            self._local.stack = []
            with self._lock:
                self._tables.append(table)
        return table

    def _wrap(self, label: str, fn, capture):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = tracer._table()
            stack = tracer._local.stack
            stack.append(0.0)
            start = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                elapsed = time.perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record = table.get(label)
                if record is None:
                    record = table[label] = LayerRecord()
                record.calls += 1
                record.inclusive += elapsed
                record.self_time += elapsed - inner
                if capture is not None and done:
                    record.captured.append(capture(args, kwargs, result))

        return wrapper

    def records(self) -> Dict[str, LayerRecord]:
        """Every label's totals, merged over threads."""
        merged: Dict[str, LayerRecord] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for label, record in table.items():
                merged.setdefault(label, LayerRecord()).merge(record)
        return merged
