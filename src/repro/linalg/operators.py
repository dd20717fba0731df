"""Matrix-free linear operators for the eigensolver hot path.

Deflation used to be applied two different ways depending on the
backend: the dense path shifted deflated directions to the top of the
spectrum by adding ``shift * d d^T`` (fine — the matrix is already
dense), while the sparse paths either looped over deflation vectors in
Python or, worst of all, *materialized* the rank-1 update as a sparse
matrix — for the constant vector that is a fully dense ``n x n`` CSR
bomb.

This module centralizes the matrix-free alternative: a
:class:`DeflatedOperator` represents ``P A P`` (or the spectral-shift
variant ``A + shift * D D^T``) without ever forming an ``n x n``
intermediate.  Deflation vectors are stored as the columns of a single
``(n, p)`` array so every application is two BLAS GEMVs
(``D.T @ x`` / ``D @ c``) instead of a Python loop.

All operators expose the minimal ``LinearOperator``-style protocol the
in-house solvers need (``shape``, ``n``, ``matvec``, ``__matmul__``,
``matmat``).  The scipy backend needs none of them: it folds the same
spectral shift into its shift-invert solve with the Woodbury identity.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import DimensionError, InvalidParameterError

MatVec = Callable[[np.ndarray], np.ndarray]


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


class _OperatorBase:
    """Shared ndarray protocol for the operators below."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        if n <= 0:
            raise InvalidParameterError(f"n must be positive, got {n}")
        self._n = int(n)

    @property
    def n(self) -> int:
        return self._n

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    def matvec(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def matmat(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
        for j in range(x.shape[1]):
            out[:, j] = self.matvec(x[:, j])
        return out

    def __matmul__(self, other):
        other = np.asarray(other)
        if other.ndim == 1:
            return self.matvec(other)
        return self.matmat(other)


class DeflatedOperator(_OperatorBase):
    """``P A P`` with ``P = I - D D^T`` — deflation without densifying.

    Parameters
    ----------
    matvec:
        The base operator ``x -> A x``.
    n:
        Operator dimension.
    deflate:
        Orthonormal deflation directions (sequence of vectors or an
        ``(n, p)`` column matrix).  With ``p = 0`` the operator is just
        ``A``.
    shift:
        When nonzero the operator is ``P A P + shift * D D^T`` instead:
        the deflated directions become exact eigenvectors at ``shift``,
        which keeps the operator nonsingular on the whole space.  Pass a
        value above the spectrum of ``A`` to push the deflated
        directions to the top (the convention of
        :func:`repro.linalg.backends.smallest_eigenpairs`).
    """

    __slots__ = ("_matvec", "_d", "_shift")

    def __init__(self, matvec: MatVec, n: int,
                 deflate: Sequence[np.ndarray] | np.ndarray = (),
                 shift: float = 0.0):
        super().__init__(n)
        self._matvec = matvec
        self._d = deflation_matrix(deflate, n)
        self._shift = float(shift)

    @property
    def num_deflated(self) -> int:
        return self._d.shape[1]

    @property
    def deflation(self) -> np.ndarray:
        """The ``(n, p)`` deflation column matrix (read-only view)."""
        return self._d

    def project(self, x: np.ndarray) -> np.ndarray:
        """``P x``: remove the deflated components from ``x``."""
        if self._d.shape[1] == 0:
            return x
        return x - self._d @ (self._d.T @ x)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self._d.shape[1] == 0:
            return self._matvec(x)
        coeffs = self._d.T @ x
        px = x - self._d @ coeffs
        y = self.project(self._matvec(px))
        if self._shift != 0.0:
            y = y + self._d @ (self._shift * coeffs)
        return y


class ShiftedOperator(_OperatorBase):
    """``c I - A``: maps the smallest eigenvalues of ``A`` to the largest.

    The standard spectral transform for finding the *bottom* of a PSD
    spectrum with solvers that converge to the dominant end (Lanczos,
    power iteration).  Eigenvalues map back via ``lambda = c - theta``.
    """

    __slots__ = ("_matvec", "_c")

    def __init__(self, matvec: MatVec, n: int, c: float):
        super().__init__(n)
        self._matvec = matvec
        self._c = float(c)

    @property
    def c(self) -> float:
        return self._c

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self._c * x - self._matvec(x)


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
