"""The on-disk tier of the ordering cache.

A directory of versioned artifacts, one pair of files per order:

* ``<key>.json`` — metadata: store version, key, the full
  :class:`~repro.core.spectral.SpectralConfig` as a field dict, the
  domain descriptor, the solve provenance (backend, ``lambda_2``,
  residual, multiplicity, diagnostic eigenvalues, solver calls), and
  the SHA-256 of the permutation's ``int64`` bytes;
* ``<key>.npy`` — the order's permutation array (``int64``), written
  with :func:`numpy.save` so a million-cell order loads in one
  ``mmap``-able read instead of a JSON parse.

Writes are atomic (temp file + ``os.replace``), so a crashed process
never leaves a half-written artifact a later service could trust.  Loads
are *defensive*: version mismatch, key mismatch, malformed JSON, a
missing half of the pair, a corrupt permutation, or a valid permutation
whose SHA-256 differs from the one recorded at save all count as a miss
(``None``) rather than an error — a cache must degrade to recomputation,
never take the service down or serve a wrong order.  This is what lets
a restarted service pay zero eigensolves for every domain it has seen
before.

The store is also *size-bounded* on request: construct with
``max_bytes=`` (every save then evicts least-recently-used artifacts
beyond the bound, never the one just written) or call
:meth:`ArtifactStore.evict_to` explicitly.  Recency is tracked through
the metadata file's mtime, which successful loads refresh — so a
long-lived cache directory sheds the orders nobody asks for anymore,
not merely the oldest.  The ``repro-orders`` CLI
(:mod:`repro.service.cli`) wraps ``ls`` / ``inspect`` / ``evict`` over
the same primitives.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.core.ordering import LinearOrder
from repro.core.spectral import SpectralConfig
from repro.errors import InvalidParameterError
from repro.obs import Timer, registry
from repro.service.artifacts import OrderArtifact

try:  # POSIX; Windows has no fcntl — cross-process locking degrades
    import fcntl
except ImportError:  # pragma: no cover - exercised only on Windows
    fcntl = None

#: On-disk format version.  Bump on any incompatible layout change;
#: artifacts written under another version are ignored (treated as
#: misses), never misread.
STORE_VERSION = 2

#: Name of the advisory lock file inside a store directory.  Never
#: matches an artifact glob (keys are hex digests, files ``*.json`` /
#: ``*.npy``), so it is invisible to listing, accounting, and eviction.
LOCK_FILENAME = ".repro-store.lock"

#: Temp files older than this many seconds are presumed orphaned by a
#: writer that died mid-save and are swept at store startup.  An
#: in-flight save holds its temp file for milliseconds (one JSON dump or
#: one ``np.save``), so minutes of age-gating can never reap a live one.
STALE_TEMP_SECONDS = 300.0

#: Disk-tier latency, labelled ``op="save"`` / ``op="load"`` — the
#: registry view that tells a slow store apart from a slow solver.
_STORE_SECONDS = registry().histogram(
    "repro_store_seconds",
    "Artifact-store operation latency by op (save/load).")


def _permutation_digest(permutation: np.ndarray) -> str:
    """SHA-256 of a permutation's ``int64`` bytes.

    Catches a stored order that is still a valid permutation, but not
    the one that was saved (a bit flip in a large index, an edited or
    swapped file), which the structural checks cannot.
    """
    data = np.ascontiguousarray(permutation, dtype=np.int64)
    return hashlib.sha256(data.tobytes()).hexdigest()


class _StoreLock:
    """Thread- *and* process-level mutual exclusion for one store dir.

    A ``threading.RLock`` serializes writers within the process (as
    before), and — while the outermost level is held — an ``flock`` on
    ``<root>/.repro-store.lock`` serializes writers *across* processes:
    two workers sharing one shard directory can no longer interleave an
    eviction sweep with the two file writes of a save.  Reentrant, so
    ``save -> evict_to -> delete`` acquires once.

    On Windows (no ``fcntl``) and on filesystems that refuse ``flock``
    (some network mounts), the cross-process half degrades to a no-op
    while the in-process half keeps working — the pre-existing
    guarantee, never less.
    """

    def __init__(self, root: Path) -> None:
        self._root = root
        self._thread_lock = threading.RLock()
        self._depth = 0
        self._handle = None

    def __enter__(self) -> "_StoreLock":
        self._thread_lock.acquire()
        self._depth += 1
        if self._depth == 1 and fcntl is not None and self._root.is_dir():
            handle = None
            try:
                handle = open(self._root / LOCK_FILENAME, "ab")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                # Degraded: in-process locking only (e.g. a filesystem
                # refusing flock).  Close the handle, or every write
                # would leak one fd until EMFILE.
                if handle is not None:
                    handle.close()
            else:
                self._handle = handle
        return self

    def __exit__(self, *exc) -> None:
        if self._depth == 1 and self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            finally:
                self._handle.close()
                self._handle = None
        self._depth -= 1
        self._thread_lock.release()


@dataclass(frozen=True)
class StoreEntry:
    """One artifact's on-disk footprint and identity summary.

    ``accessed`` is the metadata file's mtime — refreshed on every
    successful load, so it approximates last use, not just write time.
    ``domain`` / ``n`` / ``backend`` are best-effort reads of the
    metadata (``"?"`` / ``None`` when the file is unreadable — listing
    a corrupt store must still work, that is when it matters most).
    """

    key: str
    bytes: int
    accessed: float
    domain: str = "?"
    n: Optional[int] = None
    backend: Optional[str] = None


class ArtifactStore:
    """A directory-backed, versioned store of :class:`OrderArtifact`.

    Parameters
    ----------
    root:
        Directory holding the artifacts (created on first write).
    max_bytes:
        Optional size bound.  After every :meth:`save` the store evicts
        least-recently-used artifacts until the total footprint fits
        (the artifact just written is never evicted, even if it exceeds
        the bound by itself — losing the order we were asked to persist
        would turn a full cache into a broken one).
    """

    def __init__(self, root, max_bytes: Optional[int] = None) -> None:
        self._root = Path(root).expanduser()
        if max_bytes is not None and max_bytes < 1:
            raise InvalidParameterError(
                f"max_bytes must be a positive integer, got {max_bytes}"
            )
        self._max_bytes = max_bytes
        # Serializes save/evict/delete within this process *and*, via
        # flock on a lock file in the store directory, across
        # processes: a thread-safe OrderingService runs leader saves
        # concurrently, two workers may share one shard directory, and
        # an eviction sweeping between another writer's meta and
        # permutation writes would orphan the .npy half.  (Reentrant:
        # evict_to calls delete.)
        self._write_lock = _StoreLock(self._root)
        self.loads = 0
        self.load_failures = 0
        self.evictions = 0
        self.temps_swept = 0
        # A writer that died mid-save leaves a *.tmp behind; sweep the
        # stale ones now so a long-lived directory never accretes them.
        if self._root.is_dir():
            self.sweep_stale_temps()

    @property
    def max_bytes(self) -> Optional[int]:
        """The configured size bound, if any."""
        return self._max_bytes

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    def _meta_path(self, key: str) -> Path:
        self._check_key(key)
        return self._root / f"{key}.json"

    def _perm_path(self, key: str) -> Path:
        self._check_key(key)
        return self._root / f"{key}.npy"

    @staticmethod
    def _check_key(key: str) -> None:
        # Keys are hex digests; refuse anything that could escape the
        # store directory or collide with the temp-file suffix.
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise InvalidParameterError(
                f"artifact keys must be lowercase hex digests, got {key!r}"
            )

    # ------------------------------------------------------------------
    def save(self, artifact: OrderArtifact) -> None:
        """Persist an artifact (atomic per file; last writer wins)."""
        # The directory must exist before the lock is taken: the
        # cross-process flock lives inside it.
        with Timer() as timer:
            self._root.mkdir(parents=True, exist_ok=True)
            with self._write_lock:
                self._save_locked(artifact)
        _STORE_SECONDS.observe(timer.seconds, op="save")

    def _save_locked(self, artifact: OrderArtifact) -> None:
        permutation = np.asarray(artifact.order.permutation,
                                 dtype=np.int64)
        meta = {
            "version": STORE_VERSION,
            "key": artifact.key,
            "config": dataclasses.asdict(artifact.config),
            "domain": artifact.domain,
            "n": artifact.order.n,
            "lambda2": artifact.lambda2,
            "multiplicity": artifact.multiplicity,
            "backend": artifact.backend,
            "residual": artifact.residual,
            "eigenvalues": (list(artifact.eigenvalues)
                            if artifact.eigenvalues is not None else None),
            "solver_calls": artifact.solver_calls,
            "sha256": _permutation_digest(permutation),
        }
        self._atomic_write_bytes(
            self._meta_path(artifact.key),
            (json.dumps(meta, indent=1, sort_keys=True) + "\n")
            .encode("utf-8"),
        )
        perm_path = self._perm_path(artifact.key)
        tmp = perm_path.with_suffix(".npy.tmp")
        # Write through a file handle: np.save() on a *path* appends
        # ".npy" when absent, which would break the temp-file rename.
        try:
            with open(tmp, "wb") as handle:
                np.save(handle, permutation)
            os.replace(tmp, perm_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if self._max_bytes is not None:
            self.evict_to(self._max_bytes, protect=(artifact.key,))

    def _atomic_write_bytes(self, path: Path, payload: bytes) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def sweep_stale_temps(self,
                          max_age: float = STALE_TEMP_SECONDS) -> List[Path]:
        """Remove ``*.tmp`` files older than ``max_age`` seconds.

        A worker killed between opening a temp file and the atomic
        ``os.replace`` orphans the temp; nothing ever reads it (loads
        and accounting see only ``*.json`` / ``*.npy``), but it would
        hold disk space forever.  The age gate keeps a *concurrent*
        in-flight save safe: its temp file is seconds old at most.
        Runs automatically at store construction; returns the swept
        paths.
        """
        if max_age < 0:
            raise InvalidParameterError(
                f"max_age must be >= 0, got {max_age}"
            )
        swept: List[Path] = []
        cutoff = time.time() - max_age
        for tmp in self._root.glob("*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    swept.append(tmp)
            except OSError:
                # Raced with the writer completing (rename) or another
                # sweeper; either way the orphan is gone.
                continue
        self.temps_swept += len(swept)
        return swept

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[OrderArtifact]:
        """The stored artifact under ``key``, or ``None``.

        A wholly absent artifact is a clean miss.  Any *defect* — a
        metadata file whose permutation half is missing (a crash between
        the two writes), version or key mismatch, malformed JSON or
        permutation, a checksum mismatch — also yields ``None`` but bumps
        ``load_failures``, so store corruption stays distinguishable
        from cold misses in monitoring; the caller recomputes either
        way.
        """
        with Timer() as timer:
            artifact = self._load_timed(key)
        _STORE_SECONDS.observe(timer.seconds, op="load")
        return artifact

    def _load_timed(self, key: str) -> Optional[OrderArtifact]:
        self.loads += 1
        meta_path = self._meta_path(key)
        perm_path = self._perm_path(key)
        try:
            meta_text = meta_path.read_text()
        except FileNotFoundError:
            return None
        try:
            meta = json.loads(meta_text)
            if (meta.get("version") != STORE_VERSION
                    or meta.get("key") != key):
                raise ValueError("version or key mismatch")
            config = SpectralConfig(**meta["config"])
            permutation = np.load(perm_path)
            if len(permutation) != meta.get("n"):
                raise ValueError("permutation length mismatch")
            if _permutation_digest(permutation) != meta.get("sha256"):
                raise ValueError("permutation checksum mismatch")
            order = LinearOrder(permutation)
            eigenvalues = meta.get("eigenvalues")
            # Refresh recency so size-bounded eviction is LRU, not
            # oldest-written; failure (read-only store) is harmless.
            try:
                os.utime(meta_path, (time.time(), time.time()))
            except OSError:
                pass
            return OrderArtifact(
                key=key,
                config=config,
                domain=str(meta.get("domain", "")),
                order=order,
                lambda2=meta.get("lambda2"),
                multiplicity=meta.get("multiplicity"),
                backend=meta.get("backend"),
                residual=meta.get("residual"),
                eigenvalues=(tuple(eigenvalues)
                             if eigenvalues is not None else None),
                solver_calls=0,
                source="disk",
            )
        except Exception:
            self.load_failures += 1
            return None

    def __contains__(self, key: str) -> bool:
        return self._meta_path(key).exists()

    def keys(self) -> List[str]:
        """Keys of every artifact present (by metadata file)."""
        if not self._root.is_dir():
            return []
        return sorted(p.stem for p in self._root.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def delete(self, key: str) -> bool:
        """Remove one artifact; returns whether anything was deleted."""
        removed = False
        with self._write_lock:
            for path in (self._meta_path(key), self._perm_path(key)):
                try:
                    path.unlink()
                    removed = True
                except FileNotFoundError:
                    pass
        return removed

    # ------------------------------------------------------------------
    # Size accounting and eviction
    # ------------------------------------------------------------------
    def meta_path(self, key: str) -> Path:
        """Path of an artifact's metadata file (for external tooling).

        The file layout is an implementation detail; tooling (the
        ``repro-orders`` CLI) must come through here rather than
        reconstructing names.
        """
        return self._meta_path(key)

    def _footprint(self, key: str) -> Optional[Tuple[int, float]]:
        """``(bytes, accessed)`` by ``stat`` alone, or ``None``.

        The eviction hot path runs after *every* save on a bounded
        store, so it must not parse metadata — sizes and mtimes are all
        the policy needs.
        """
        try:
            stat = self._meta_path(key).stat()
        except FileNotFoundError:
            return None
        size = stat.st_size
        try:
            size += self._perm_path(key).stat().st_size
        except FileNotFoundError:
            pass
        return size, stat.st_mtime

    def _footprints(self) -> List[Tuple[str, int, float]]:
        """``(key, bytes, accessed)`` triples, least recently used first."""
        found = []
        for key in self.keys():
            footprint = self._footprint(key)
            if footprint is not None:
                found.append((key, footprint[0], footprint[1]))
        return sorted(found, key=lambda item: (item[2], item[0]))

    def entry(self, key: str) -> Optional[StoreEntry]:
        """The :class:`StoreEntry` of one artifact, or ``None``.

        Unlike the eviction path, this parses the metadata for the
        display fields — it serves listing/inspection tooling.
        """
        footprint = self._footprint(key)
        if footprint is None:
            return None
        domain, n, backend = "?", None, None
        try:
            meta = json.loads(self._meta_path(key).read_text())
            domain = str(meta.get("domain", "?"))
            n = meta.get("n")
            backend = meta.get("backend")
        except Exception:
            pass
        return StoreEntry(key=key, bytes=footprint[0],
                          accessed=footprint[1], domain=domain, n=n,
                          backend=backend)

    def entries(self) -> List[StoreEntry]:
        """Every artifact's footprint, least recently used first."""
        found = (self.entry(key) for key in self.keys())
        return sorted((e for e in found if e is not None),
                      key=lambda e: (e.accessed, e.key))

    def total_bytes(self) -> int:
        """Total on-disk footprint of every artifact."""
        return sum(size for _, size, _ in self._footprints())

    def evict_to(self, max_bytes: int, protect=(),
                 dry_run: bool = False) -> List[str]:
        """Delete LRU artifacts until the store fits in ``max_bytes``.

        Keys in ``protect`` are never deleted.  With ``dry_run`` the
        same policy runs but nothing is deleted.  Returns the (would-be)
        evicted keys, least recently used first.
        """
        if max_bytes < 0:
            raise InvalidParameterError(
                f"max_bytes must be >= 0, got {max_bytes}"
            )
        with self._write_lock:
            footprints = self._footprints()
            total = sum(size for _, size, _ in footprints)
            protected = set(protect)
            evicted: List[str] = []
            for key, size, _ in footprints:
                if total <= max_bytes:
                    break
                if key in protected:
                    continue
                if dry_run:
                    total -= size
                    evicted.append(key)
                elif self.delete(key):
                    total -= size
                    evicted.append(key)
                    self.evictions += 1
        return evicted
