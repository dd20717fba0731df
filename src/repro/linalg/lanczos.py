"""Thick-restart Lanczos with full reorthogonalization.

The production eigensolver for large graphs when scipy is not available.
Given a symmetric operator, the Lanczos process builds an orthonormal
Krylov basis ``Q`` and a small projected matrix ``T = Q^T A Q``; Ritz
pairs of ``T`` approximate extremal eigenpairs of ``A``.

Two design decisions keep the hot path at BLAS speed:

* The basis lives in one preallocated ``(n, max_dim)`` column matrix.
  Reorthogonalization is two-pass *block* Gram-Schmidt — a pair of GEMVs
  (``Q[:, :m].T @ w`` then ``w -= Q[:, :m] @ c``) per pass — instead of
  a Python loop over stored vectors.  The first-pass coefficients are
  exactly column ``m-1`` of the projected matrix, so ``T`` is filled as
  a by-product and need not be tridiagonal (which is what makes the
  restart below legal).
* When the basis fills up without converging, the run performs a *thick
  restart* (Wu & Simon): the best Ritz vectors are compressed back into
  the leading basis columns, the residual direction is kept, and the
  iteration continues — no information is thrown away.  The previous
  implementation restarted from scratch with a doubled basis, repaying
  the full orthogonalization cost at every attempt; growth is now a rare
  fallback used only when many restarts stagnate (tightly clustered
  spectra on very small gaps).

Full reorthogonalization (two Gram-Schmidt passes against all basis
columns and all deflated directions) trades flops for robustness: it
eliminates the ghost-eigenvalue problem entirely at the basis sizes this
library needs (tens of vectors).

Convention: extremal means *largest* here.  Callers that need the smallest
eigenvalues of a PSD matrix (the Fiedler pipeline) iterate the shifted
operator ``c I - A`` and map the Ritz values back — that keeps the wanted
end of the spectrum dominant, where Lanczos converges fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.errors import ConvergenceError, InvalidParameterError
from repro.linalg.operators import deflation_matrix
from repro.linalg.power import deterministic_start

MatVec = Callable[[np.ndarray], np.ndarray]

#: Hard cap on restart cycles before giving up (each cycle is cheap, and
#: basis growth kicks in long before this).
_MAX_CYCLES = 400

#: Grow the basis after this many consecutive unconverged cycles at one
#: size.  Thick restarts usually converge in a handful of cycles; hitting
#: this means the Krylov space itself is too small for the spectrum.
_GROW_AFTER = 8

#: Cap on the per-cycle residual trajectory recorded into a ``stats``
#: dict — enough to see convergence shape, bounded so the record stays
#: cheap to pickle/serialize as a span attribute.
_HISTORY_CAP = 32


@dataclass(frozen=True)
class LanczosResult:
    """Converged Ritz pairs and iteration diagnostics."""

    values: np.ndarray        # ascending
    vectors: np.ndarray       # columns aligned with values
    residuals: np.ndarray     # per-pair residual-norm estimates
    basis_size: int           # Krylov dimension used


def _block_orthogonalize(w: np.ndarray, q: np.ndarray, m: int,
                         d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Two-pass block Gram-Schmidt of ``w`` against ``Q[:, :m]`` and ``D``.

    Returns ``(w, coeffs)`` where ``coeffs`` are the summed projection
    coefficients onto the basis columns — i.e. column ``m-1`` of the
    projected matrix when ``w`` is a fresh operator image.
    """
    coeffs = np.zeros(m)
    for _ in range(2):
        if d.shape[1]:
            w = w - d @ (d.T @ w)
        if m:
            c = q[:, :m].T @ w
            w = w - q[:, :m] @ c
            coeffs += c
    return w, coeffs


def _fresh_direction(q: np.ndarray, m: int, d: np.ndarray, n: int,
                     salt0: int) -> np.ndarray | None:
    """A unit vector orthogonal to the current basis and deflation, or
    ``None`` when every probe lies (numerically) inside the span."""
    for attempt in range(8):
        cand, _ = _block_orthogonalize(
            deterministic_start(n, salt=salt0 + attempt), q, m, d
        )
        norm = np.linalg.norm(cand)
        if norm > 1e-10:
            return cand / norm
    # Quasi-random probes can conspire to (numerically) lie inside the
    # span on tiny operators.  The canonical basis cannot: it spans all
    # of R^n, so whenever the orthogonal complement is nonempty at least
    # one projected e_i survives with norm >= 1/sqrt(n).
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cand, _ = _block_orthogonalize(e, q, m, d)
        norm = np.linalg.norm(cand)
        if norm > 1e-10:
            return cand / norm
    return None


def lanczos_symmetric(matvec: MatVec, n: int, k: int,
                      deflate: Sequence[np.ndarray] = (),
                      max_dim: int | None = None,
                      tol: float = 1e-9,
                      start: np.ndarray | None = None,
                      stats: dict | None = None) -> LanczosResult:
    """The ``k`` largest eigenpairs of a symmetric operator.

    Parameters
    ----------
    matvec:
        The operator ``x -> A x``; must be symmetric on the subspace
        orthogonal to ``deflate``.
    n:
        Operator dimension.
    k:
        Number of wanted eigenpairs (largest).
    deflate:
        Orthonormal directions excluded from the Krylov space (e.g. the
        constant vector when ``A`` is a shifted Laplacian).
    max_dim:
        Krylov basis size; defaults to
        ``min(n_eff, max(4k + 24, 48))`` with ``n_eff = n - len(deflate)``.
        Unconverged runs thick-restart at this size; the basis only grows
        when several restarts in a row stagnate.
    tol:
        Relative residual target for the wanted pairs.
    start:
        Optional start vector (defaults to a fixed deterministic one, so
        results are reproducible run to run).
    stats:
        Optional dict receiving iteration diagnostics, updated in place
        as the run progresses (so it is populated even when the solve
        raises): ``restart_cycles``, ``basis_size``, and
        ``residual_history`` — the worst wanted residual estimate per
        cycle, capped at ``_HISTORY_CAP`` entries.

    Raises
    ------
    ConvergenceError
        If the wanted pairs fail to meet ``tol`` even with a full-size
        basis.
    """
    if n <= 0:
        raise InvalidParameterError(f"n must be positive, got {n}")
    d = deflation_matrix(deflate, n)
    n_eff = n - d.shape[1]
    if not 1 <= k <= n_eff:
        raise InvalidParameterError(
            f"k must be in [1, {n_eff}] after deflation, got {k}"
        )
    if max_dim is None:
        max_dim = min(n_eff, max(4 * k + 24, 48))
    max_dim = min(max(max_dim, k), n_eff)

    # ------------------------------------------------------------------
    # Start vector: orthogonal to the deflated subspace, unit norm.
    # The default is salted by the deflation count: eigenspace-closing
    # callers deflate previously converged vectors and re-solve, and the
    # *unsalted* start is exactly orthogonal to the remaining copy of a
    # degenerate eigenvalue (the converged vector IS the start's
    # projection onto that eigenspace).  A fresh quasi-random start per
    # deflation level keeps a genuine component along every remaining
    # direction instead of relying on rounding noise to drift one in.
    # ------------------------------------------------------------------
    v = deterministic_start(n, salt=d.shape[1]) if start is None \
        else np.asarray(start, dtype=np.float64).copy()
    v, _ = _block_orthogonalize(v, np.empty((n, 0)), 0, d)
    norm = np.linalg.norm(v)
    salt = d.shape[1] + 1
    while norm < 1e-12 and salt < d.shape[1] + 9:
        v, _ = _block_orthogonalize(
            deterministic_start(n, salt), np.empty((n, 0)), 0, d)
        norm = np.linalg.norm(v)
        salt += 1
    if norm < 1e-12:
        raise InvalidParameterError(
            "could not find a start vector outside the deflated subspace"
        )

    q = np.empty((n, max_dim))
    t = np.zeros((max_dim, max_dim))
    q[:, 0] = v / norm
    m = 1                 # filled basis columns
    ell = 0               # columns 0..ell-1 hold retained Ritz vectors
    scale_estimate = 0.0
    stagnant_cycles = 0
    history = stats.setdefault("residual_history", []) \
        if stats is not None else None

    for cycle in range(_MAX_CYCLES):
        # --------------------------------------------------------------
        # Expansion: extend the basis to max_dim columns.  Columns
        # 0..ell-1 are retained Ritz vectors from the last restart and
        # are never re-expanded; column ``ell`` onward follow the
        # Lanczos recurrence (with full reorthogonalization, so the
        # recurrence structure is free to be arrowhead after a restart).
        # --------------------------------------------------------------
        exhausted = False
        while True:
            w = matvec(q[:, m - 1])
            w, coeffs = _block_orthogonalize(w, q, m, d)
            t[:m, m - 1] = coeffs
            t[m - 1, :m] = coeffs
            scale_estimate = max(scale_estimate, float(np.abs(coeffs).max()))
            beta = float(np.linalg.norm(w))
            if m == max_dim:
                break
            if beta > 1e-12 * max(scale_estimate, 1.0):
                q[:, m] = w / beta
                t[m, m - 1] = beta
                t[m - 1, m] = beta
                m += 1
            else:
                # Happy breakdown: the span is invariant.  Inject a fresh
                # orthogonal direction to keep hunting for further
                # (possibly degenerate) eigenpairs.
                cand = _fresh_direction(q, m, d, n, salt0=10 + m)
                if cand is None:
                    exhausted = True
                    beta = 0.0
                    break
                q[:, m] = cand
                t[m, m - 1] = 0.0
                t[m - 1, m] = 0.0
                m += 1

        # --------------------------------------------------------------
        # Rayleigh-Ritz on the projected matrix.
        # --------------------------------------------------------------
        theta, s = np.linalg.eigh(t[:m, :m])
        if m < k:
            # The basis exhausted every direction outside the deflated
            # subspace before reaching k columns — numerically the
            # reachable space is smaller than requested.  Surface the
            # standard non-convergence signal so callers can fall back.
            raise ConvergenceError(
                f"Lanczos basis exhausted at {m} columns with {k} pairs "
                "requested",
                iterations=m,
                residual=float("nan"),
            )
        wanted = np.arange(m - k, m)          # largest k, ascending
        scale = max(float(np.abs(theta).max()) if m else 1.0, 1.0)
        estimates = abs(beta) * np.abs(s[m - 1, wanted])
        if stats is not None:
            stats["restart_cycles"] = cycle + 1
            stats["basis_size"] = m
            if len(history) < _HISTORY_CAP:
                history.append(float(estimates.max()))
        at_capacity = exhausted or m >= n_eff
        if at_capacity or (estimates <= tol * scale).all():
            vectors = q[:, :m] @ s[:, wanted]
            values = theta[wanted]
            residuals = np.empty(k)
            for j in range(k):
                y = vectors[:, j]
                y = y / np.linalg.norm(y)
                vectors[:, j] = y
                # Residual of the *deflated* operator P A P: project the
                # image, because a deflated Ritz vector need not be an
                # eigenvector of the raw operator when the deflated
                # directions are not exact eigenvectors.
                image = matvec(y)
                if d.shape[1]:
                    image = image - d @ (d.T @ image)
                residuals[j] = np.linalg.norm(image - values[j] * y)
            if (residuals <= tol * scale * 100).all():
                return LanczosResult(values=values, vectors=vectors,
                                     residuals=residuals, basis_size=m)
            if at_capacity:
                raise ConvergenceError(
                    "Lanczos did not converge even with a full Krylov "
                    f"basis (basis {m}, worst residual "
                    f"{residuals.max():.2e})",
                    iterations=m,
                    residual=float(residuals.max()),
                )

        # --------------------------------------------------------------
        # Thick restart: compress the best Ritz vectors into the leading
        # columns, keep the residual direction, continue.  Grow the
        # basis instead when restarts stagnate or there is no room.
        # --------------------------------------------------------------
        stagnant_cycles += 1
        grow = (stagnant_cycles >= _GROW_AFTER
                or max_dim < k + 4) and max_dim < n_eff
        if grow:
            new_dim = min(n_eff, 2 * max_dim)
            q_new = np.empty((n, new_dim))
            q_new[:, :m] = q[:, :m]
            t_new = np.zeros((new_dim, new_dim))
            t_new[:m, :m] = t[:m, :m]
            q, t, max_dim = q_new, t_new, new_dim
            stagnant_cycles = 0
            # Re-enter expansion from the current state: the last filled
            # column resumes the recurrence (its image will be measured
            # against every retained column, so correctness does not
            # depend on tridiagonal structure).
            residual_dir = (w / beta) if beta > 1e-12 * max(
                scale_estimate, 1.0) else _fresh_direction(
                    q, m, d, n, salt0=50 + m)
            if residual_dir is not None and m < max_dim:
                q[:, m] = residual_dir
                t[m, m - 1] = beta if beta > 0 else 0.0
                t[m - 1, m] = t[m, m - 1]
                m += 1
            continue

        ell = min(max(k + 8, max_dim // 4), m - 4)
        ell = max(ell, min(k, m - 1))
        keep = np.arange(m - ell, m)          # largest ell Ritz pairs
        compressed = q[:, :m] @ s[:, keep]
        residual_coupling = beta * s[m - 1, keep]
        q[:, :ell] = compressed
        t[:, :] = 0.0
        t[:ell, :ell] = np.diag(theta[keep])
        if beta > 1e-12 * max(scale_estimate, 1.0):
            q[:, ell] = w / beta
            t[ell, :ell] = residual_coupling
            t[:ell, ell] = residual_coupling
        else:
            # Residual vanished but the true residual check failed (a
            # numerically invariant span that is not accurate enough):
            # continue from a fresh direction instead.
            cand = _fresh_direction(q, ell, d, n, salt0=30 + m)
            if cand is None:
                raise ConvergenceError(
                    "Lanczos stagnated: no direction left outside the "
                    f"converged span (basis {m})",
                    iterations=m,
                    residual=float(residuals.max()),
                )
            q[:, ell] = cand
        m = ell + 1

    raise ConvergenceError(
        f"Lanczos did not converge within {_MAX_CYCLES} restart cycles",
        iterations=_MAX_CYCLES,
        residual=float("nan"),
    )


def smallest_eigenpairs_shifted(matvec: MatVec, n: int, k: int,
                                upper_bound: float,
                                deflate: Sequence[np.ndarray] = (),
                                max_dim: int | None = None,
                                tol: float = 1e-9,
                                stats: dict | None = None
                                ) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest eigenpairs of a symmetric PSD operator.

    Runs Lanczos on ``c I - A`` with ``c = upper_bound`` (any bound with
    ``c >= lambda_max`` works; Gershgorin is fine) and maps Ritz values
    back via ``lambda = c - theta``.  Returns ``(values, vectors)`` with
    values ascending.  ``stats`` is forwarded to
    :func:`lanczos_symmetric` (the recorded residual trajectory is of
    the shifted operator — same norms, mirrored spectrum).
    """
    if upper_bound <= 0:
        upper_bound = 1.0

    result = lanczos_symmetric(lambda x: upper_bound * x - matvec(x), n, k,
                               deflate=deflate, max_dim=max_dim, tol=tol,
                               stats=stats)
    values = upper_bound - result.values[::-1]
    vectors = result.vectors[:, ::-1]
    return values, vectors

