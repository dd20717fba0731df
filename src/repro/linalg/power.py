"""Deterministic start vectors for the iterative eigensolvers.

Every Krylov and block solver in the stack starts from vectors built
here rather than from a random generator, so a solve's bits depend only
on its input: repeated runs, different backends and different
processes see the same start.  :func:`deterministic_start` gives one
vector (the Lanczos and ARPACK starts, and the Fiedler pipeline's
canonicalization probe); :func:`deterministic_block` gives any number
of independent columns (the LOBPCG block).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError


def deterministic_start(n: int, salt: int = 0) -> np.ndarray:
    """A fixed, generic, unit-norm start vector.

    Derived from a quasi-random sequence of vertex ids so that repeated
    runs (and different backends) see the same vector; ``salt`` yields
    alternative vectors for restarts.
    """
    if n <= 0:
        raise InvalidParameterError(f"n must be positive, got {n}")
    ids = np.arange(n, dtype=np.float64)
    v = np.sin(0.5 + 0.731 * ids + 0.1 * salt) + 1e-3 * np.cos(1.7 * ids)
    norm = np.linalg.norm(v)
    if norm == 0.0:  # cannot happen for n >= 1, but stay safe
        v = np.ones(n)
        norm = np.sqrt(n)
    return v / norm


def deterministic_block(n: int, columns: int, salt: int = 0) -> np.ndarray:
    """``columns`` fixed, generic, unit-norm vectors of length ``n``.

    Column ``j`` hashes each vertex id with ``salt + j`` (SplitMix64's
    finalizer in wrapping ``uint64`` arithmetic), so the block is
    bit-identical on every platform and, unlike salted
    :func:`deterministic_start` vectors (which all lie in one
    3-dimensional span), as independent as random columns: block
    solvers can fill any number of start columns from it.
    """
    if n <= 0:
        raise InvalidParameterError(f"n must be positive, got {n}")
    ids = np.arange(n, dtype=np.uint64)[:, None]
    keys = np.arange(salt, salt + columns, dtype=np.uint64)[None, :]
    z = ids * np.uint64(0x9E3779B97F4A7C15) \
        + (keys + np.uint64(1)) * np.uint64(0xD1B54A32D192ED03)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    block = (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 - 0.5
    return block / np.linalg.norm(block, axis=0)
