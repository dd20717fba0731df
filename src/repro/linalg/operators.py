"""Block helpers shared by the eigensolvers.

* :func:`deflation_matrix` stacks deflation vectors into one ``(n, p)``
  array, so the Lanczos and LOBPCG solvers project them out with two
  BLAS GEMVs (``D.T @ x`` then ``D @ c``) and never form an ``n x n``
  projector; the scipy backend uses it for its Woodbury-folded shift.
* :func:`orthonormalize_block` orthonormalizes a block, optionally
  against such a deflation.
* :func:`canonical_in_span` picks the deterministic unit vector of a
  (possibly degenerate) eigenspace, so orders do not depend on which
  backend found the eigenspace.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import DimensionError


def deflation_matrix(deflate: Sequence[np.ndarray] | np.ndarray,
                     n: int) -> np.ndarray:
    """Stack deflation vectors into an ``(n, p)`` column matrix.

    Accepts a sequence of length-``n`` vectors or an already-stacked 2-D
    array; always returns a float64 ``(n, p)`` array (``p = 0`` for an
    empty sequence).  The columns are expected to be orthonormal — that
    is the contract throughout the solver stack — but this helper does
    not re-orthonormalize, it only validates shapes.
    """
    if isinstance(deflate, np.ndarray) and deflate.ndim == 2:
        d = np.asarray(deflate, dtype=np.float64)
    else:
        vectors = list(deflate)
        if not vectors:
            return np.empty((n, 0))
        d = np.column_stack([np.asarray(v, dtype=np.float64)
                             for v in vectors])
    if d.shape[0] != n:
        raise DimensionError(
            f"deflation vectors must have length {n}, got {d.shape[0]}"
        )
    return d


def canonical_in_span(basis: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """A deterministic unit vector in the span of ``basis`` columns.

    The sign comes for free: the projection of the probe onto the
    subspace satisfies ``probe @ v > 0`` by construction, so two solvers
    that agree on the subspace agree on the vector *including its sign*
    (an explicit largest-entry sign rule would be unstable whenever
    symmetric eigenvectors make two entries equal in magnitude).

    Falls back to alternative deterministic probes when the given one is
    (numerically) orthogonal to the subspace, then to the first basis
    vector with a first-significant-entry sign rule.
    """
    from repro.linalg.power import deterministic_start

    # Re-orthonormalize: solver eigenvectors are orthonormal only to
    # solver tolerance, and exactly orthonormal columns make the
    # projection below well-conditioned.
    q, _ = np.linalg.qr(basis)
    projected = q @ (q.T @ probe)
    norm = np.linalg.norm(projected)
    if norm < 1e-8:
        for salt in (3, 7, 11):
            candidate = q @ (q.T @ deterministic_start(len(basis), salt))
            norm = np.linalg.norm(candidate)
            if norm >= 1e-8:
                projected = candidate
                break
        else:
            projected = q[:, 0]
            threshold = 0.5 * np.abs(projected).max()
            anchor = int(np.argmax(np.abs(projected) >= threshold))
            if projected[anchor] < 0:
                projected = -projected
    return projected / np.linalg.norm(projected)


def orthonormalize_block(block: np.ndarray,
                         against: np.ndarray | None = None,
                         tol: float = 1e-12) -> np.ndarray:
    """Orthonormalize the columns of ``block``; optionally first project
    out the span of ``against`` (an ``(n, p)`` orthonormal matrix).

    Columns that become numerically zero after projection are dropped,
    so the result may have fewer columns than the input.  Two projection
    passes keep the result orthogonal to ``against`` to machine
    precision even for ill-conditioned inputs.
    """
    q = np.asarray(block, dtype=np.float64)
    if q.ndim != 2:
        raise DimensionError(f"expected a 2-D block, got shape {q.shape}")
    if against is not None and against.shape[1]:
        for _ in range(2):
            q = q - against @ (against.T @ q)
    if q.shape[1] == 0:
        return q
    scale = np.linalg.norm(q, axis=0).max()
    if scale <= tol:
        return q[:, :0]
    if q.shape[0] >= 32 * q.shape[1]:
        # Cholesky-QR fast path for tall blocks: two Gram-matrix
        # factorizations (CholQR2) cost a fraction of Householder QR at
        # these shapes and reach machine-precision orthogonality for
        # well-conditioned inputs.  The Cholesky pivots play the same
        # role as QR's R diagonal — the norm of each column's component
        # orthogonal to its predecessors — so a small pivot means the
        # block needs the rank-revealing treatment below instead.
        out = q
        for _ in range(2):
            gram = out.T @ out
            pass_scale = float(np.sqrt(np.diag(gram).max()))
            try:
                r_chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                out = None
                break
            if (np.diag(r_chol) <= 1e-6 * pass_scale).any():
                out = None
                break
            out = out @ np.linalg.inv(r_chol).T
        if out is not None:
            return out
    q_mat, r = np.linalg.qr(q)
    keep = np.abs(np.diag(r)) > tol * scale
    return q_mat[:, keep]
