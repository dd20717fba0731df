"""Deflated power iteration.

A deliberately simple eigensolver used two ways:

* as an independent oracle in tests (its convergence theory is elementary,
  so a disagreement with Lanczos or LAPACK localizes bugs), and
* as a tiny-footprint fallback for computing a single Fiedler pair on
  small graphs.

Power iteration converges to the dominant eigenpair of an operator; to
reach the *smallest* nontrivial Laplacian eigenpair we iterate the shifted
operator ``c I - L`` (``c`` a Gershgorin upper bound on ``lambda_max``)
while continually deflating the known null vector (the constant vector)
and any other supplied directions.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from repro.errors import ConvergenceError, InvalidParameterError

MatVec = Callable[[np.ndarray], np.ndarray]


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


def _project_out(x: np.ndarray, basis: Sequence[np.ndarray]) -> np.ndarray:
    for b in basis:
        x = x - (b @ x) * b
    return x


def power_iteration(matvec: MatVec, n: int,
                    deflate: Sequence[np.ndarray] = (),
                    tol: float = 1e-10, max_iter: int = 10000,
                    start: np.ndarray | None = None
                    ) -> Tuple[float, np.ndarray, int]:
    """Dominant eigenpair of a symmetric operator, avoiding ``deflate``.

    Parameters
    ----------
    matvec:
        The operator ``x -> A x`` (must be symmetric).
    n:
        Operator dimension.
    deflate:
        Orthonormal vectors to project out at every step (e.g. known
        eigenvectors, or the constant vector for Laplacians).
    tol:
        Convergence threshold on the residual ``||A v - theta v||``.
    max_iter:
        Iteration cap; exceeding it raises :class:`ConvergenceError`.
    start:
        Optional start vector; defaults to :func:`deterministic_start`.

    Returns
    -------
    (value, vector, iterations)
    """
    v = deterministic_start(n) if start is None else np.asarray(
        start, dtype=np.float64).copy()
    v = _project_out(v, deflate)
    norm = np.linalg.norm(v)
    if norm < 1e-13:
        v = _project_out(deterministic_start(n, salt=1), deflate)
        norm = np.linalg.norm(v)
        if norm < 1e-13:
            raise InvalidParameterError(
                "start vector lies entirely in the deflated subspace"
            )
    v /= norm
    theta = 0.0
    for iteration in range(1, max_iter + 1):
        w = matvec(v)
        w = _project_out(w, deflate)
        theta = float(v @ w)
        residual = np.linalg.norm(w - theta * v)
        scale = max(abs(theta), 1.0)
        if residual <= tol * scale:
            return theta, v, iteration
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            # The operator annihilated v: theta is (numerically) zero and
            # v is already an eigenvector of the deflated operator.
            return theta, v, iteration
        v = w / norm
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        iterations=max_iter,
        residual=float(residual),
    )
