"""Blocked LOBPCG for the bottom of a symmetric PSD spectrum.

Locally Optimal Block Preconditioned Conjugate Gradient (Knyazev 2001):
each iteration performs a Rayleigh-Ritz projection on the subspace
spanned by the current Ritz block ``X``, the (preconditioned) residual
block ``W``, and the previous search-direction block ``P``.  With a good
preconditioner the convergence rate is bounded by the *preconditioned*
spectral condition number — for a graph Laplacian with the multilevel
V-cycle (:class:`repro.core.multilevel.MultilevelPreconditioner`) that
is ``O(1)``, so iteration counts stay in the tens regardless of grid
size, where unpreconditioned Lanczos needs ``O(sqrt(lambda_max /
lambda_2))`` matvecs.

This implementation trades the classic three-block recurrence's raw
speed for robustness: the trial subspace is explicitly re-orthonormalized
(QR with rank-revealing column drops) against the deflated directions
every iteration, which eliminates the basis-degeneracy failure mode that
plagues textbook LOBPCG near convergence.  Blocks are small (``k + 2``
columns by default) so the extra QR cost is negligible next to the
operator applications.

Determinism: start blocks come from a fixed hashed family
(:func:`repro.linalg.power.deterministic_block`, salted by the deflation
count), and every step is deterministic dense linear algebra — repeated
runs give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.errors import ConvergenceError, InvalidParameterError
from repro.linalg.operators import deflation_matrix, orthonormalize_block
from repro.linalg.power import deterministic_block

MatVec = Callable[[np.ndarray], np.ndarray]

#: Cap on the per-iteration residual trajectory recorded into a
#: ``stats`` dict — enough to see convergence shape, bounded so the
#: record stays cheap to serialize as a span attribute.
_HISTORY_CAP = 32


@dataclass(frozen=True)
class LOBPCGResult:
    """Converged Ritz pairs and iteration diagnostics."""

    values: np.ndarray      # ascending
    vectors: np.ndarray     # columns aligned with values
    residuals: np.ndarray   # true residual norms on the deflated operator
    iterations: int         # Rayleigh-Ritz iterations performed


def _apply(matvec: MatVec, matmat, block: np.ndarray) -> np.ndarray:
    if matmat is not None:
        return matmat(block)
    out = np.empty_like(block)
    for j in range(block.shape[1]):
        out[:, j] = matvec(block[:, j])
    return out


def lobpcg_smallest(matvec: MatVec, n: int, k: int,
                    deflate: Sequence[np.ndarray] = (),
                    preconditioner: Callable[[np.ndarray], np.ndarray]
                    | None = None,
                    tol: float = 1e-9,
                    upper_bound: float | None = None,
                    maxiter: int = 500,
                    block_size: int | None = None,
                    matmat=None,
                    x0: np.ndarray | None = None,
                    stats: dict | None = None) -> LOBPCGResult:
    """The ``k`` smallest eigenpairs of a symmetric PSD operator.

    Parameters
    ----------
    matvec:
        The operator ``x -> A x``; must be symmetric on the complement
        of ``deflate``.
    n, k:
        Operator dimension and number of wanted pairs.
    deflate:
        Orthonormal directions excluded from the search space (the
        constant vector for Laplacians).
    preconditioner:
        Optional SPD operator applied to the residual block each
        iteration (ideally approximating ``A^+`` on the deflated
        subspace).  ``None`` degrades gracefully to unpreconditioned
        LOBPCG.
    tol:
        Residual target: converged when every wanted pair satisfies
        ``||A y - theta y|| <= tol * scale`` with ``scale =
        max(upper_bound, 1)`` — the same absolute accuracy the
        shifted-Lanczos backend delivers, so cross-backend order
        equivalence holds.
    upper_bound:
        Spectrum upper bound for the residual scale (Gershgorin); when
        ``None`` the scale falls back to the largest current Ritz value.
    maxiter:
        Iteration cap; exceeding it raises
        :class:`~repro.errors.ConvergenceError`.
    block_size:
        Columns carried in the Ritz block; defaults to ``k + 2`` (the
        guard vectors sharpen convergence of the k-th pair and keep
        degenerate eigenspaces together).
    matmat:
        Optional blocked operator application (``CSRMatrix.matmat``);
        falls back to column-wise ``matvec``.
    x0:
        Optional warm-start columns ``(n, j)`` (or a single vector)
        seeding the search block before the deterministic fill-up.
        Columns near the deflated subspace are dropped; convergence is
        unconditional either way — a good guess (e.g. Ritz vectors of a
        previous solve over a nearby subspace) just collapses the
        iteration count, which is how the Fiedler closure certificate
        reuses the leftover pairs of its initial window solve.
    stats:
        Optional dict receiving ``iterations``, ``operator_columns``
        (total operator applications, in columns),
        ``preconditioner_applications`` (this solve's calls of
        ``preconditioner``; a block counts once) and
        ``residual_history`` (worst wanted residual per iteration,
        capped at ``_HISTORY_CAP`` entries).

    Raises
    ------
    ConvergenceError
        When ``maxiter`` is reached before the wanted residuals meet the
        tolerance.
    """
    if n <= 0:
        raise InvalidParameterError(f"n must be positive, got {n}")
    d = deflation_matrix(deflate, n)
    n_eff = n - d.shape[1]
    if not 1 <= k <= n_eff:
        raise InvalidParameterError(
            f"k must be in [1, {n_eff}] after deflation, got {k}"
        )
    if block_size is None:
        block_size = k + 2
    m = int(min(max(block_size, k), n_eff))
    counters = {"iterations": 0, "operator_columns": 0,
                "preconditioner_applications": 0}
    history: list | None = [] if stats is not None else None
    if history is not None:
        counters["residual_history"] = history

    def operate(block: np.ndarray) -> np.ndarray:
        counters["operator_columns"] += block.shape[1]
        return _apply(matvec, matmat, block)

    # ------------------------------------------------------------------
    # Start block: warm-start columns first (if any survive the
    # deflation projection), then deterministic fill-up, orthonormal
    # and clear of the deflation either way.
    # ------------------------------------------------------------------
    salt = d.shape[1]
    seeds = []
    if x0 is not None:
        guess = np.asarray(x0, dtype=np.float64)
        if guess.ndim == 1:
            guess = guess[:, None]
        if guess.shape[0] != n:
            raise InvalidParameterError(
                f"x0 columns must have length {n}, got {guess.shape[0]}"
            )
        seeds.append(guess[:, :m])
    fill = m - (seeds[0].shape[1] if seeds else 0)
    if fill > 0:
        seeds.append(deterministic_block(n, fill, salt))
    x = np.column_stack(seeds)
    x = orthonormalize_block(x, against=d if d.shape[1] else None)
    extra = 0
    while x.shape[1] < m and extra < 8 * m:
        top_up = deterministic_block(n, m - x.shape[1], salt + m + extra)
        extra += m - x.shape[1]
        x = orthonormalize_block(
            np.column_stack([x, top_up]),
            against=d if d.shape[1] else None)
    if x.shape[1] == 0:
        raise InvalidParameterError(
            "could not build a start block outside the deflated subspace"
        )
    m = x.shape[1]
    if k > m:
        raise InvalidParameterError(
            f"start block collapsed below k (block {m}, k {k})"
        )

    ax = operate(x)
    h = x.T @ ax
    theta, c = np.linalg.eigh((h + h.T) / 2.0)
    x = x @ c
    ax = ax @ c
    p = np.empty((n, 0))
    scale = max(float(upper_bound), 1.0) if upper_bound is not None \
        else max(float(np.abs(theta).max()), 1.0)

    for iteration in range(1, maxiter + 1):
        counters["iterations"] = iteration
        r = ax - x * theta[None, :]
        residuals = np.linalg.norm(r[:, :k], axis=0)
        if history is not None and len(history) < _HISTORY_CAP:
            history.append(float(residuals.max()))
        if (residuals <= tol * scale).all():
            if stats is not None:
                stats.update(counters)
            return LOBPCGResult(values=theta[:k].copy(),
                                vectors=x[:, :k].copy(),
                                residuals=residuals,
                                iterations=iteration - 1)
        # Soft locking: columns whose residual already meets the target
        # stop feeding the search space — no V-cycle, no new Krylov
        # direction.  They stay in X (still refined by Rayleigh-Ritz),
        # so accuracy is not frozen, but the per-iteration cost shrinks
        # as the block converges.  The convergence test above guarantees
        # at least one wanted column is still active here.
        res_all = np.linalg.norm(r, axis=0)
        active = res_all > tol * scale
        r_active = r[:, active] if not active.all() else r
        w = r_active
        if preconditioner is not None:
            counters["preconditioner_applications"] += 1
            w = preconditioner(r_active)
        against = np.column_stack([d, x]) if d.shape[1] else x
        w = orthonormalize_block(w, against=against)
        if p.shape[1]:
            against_p = np.column_stack([against, w]) if w.shape[1] \
                else against
            p_ortho = orthonormalize_block(p, against=against_p)
        else:
            p_ortho = p
        s = np.column_stack([x, w, p_ortho])
        a_s = np.column_stack([ax, operate(s[:, m:])]) \
            if s.shape[1] > m else ax
        h = s.T @ a_s
        theta_s, c = np.linalg.eigh((h + h.T) / 2.0)
        keep = min(m, s.shape[1])
        x_new = s @ c[:, :keep]
        ax_new = a_s @ c[:, :keep]
        # Next search directions: the part of the new block that did not
        # come from the old X columns (classic LOBPCG "P" block).
        c_p = c[:, :keep].copy()
        c_p[:m, :] = 0.0
        p = s @ c_p
        x, ax, theta = x_new, ax_new, theta_s[:keep]
        m = keep

    if stats is not None:
        stats.update(counters)
    r = ax - x * theta[None, :]
    residuals = np.linalg.norm(r[:, :k], axis=0)
    raise ConvergenceError(
        f"LOBPCG did not converge within {maxiter} iterations "
        f"(worst wanted residual {residuals.max():.2e} vs target "
        f"{tol * scale:.2e})",
        iterations=maxiter,
        residual=float(residuals.max()),
    )


def smallest_eigenpairs_lobpcg(matvec: MatVec, n: int, k: int,
                               upper_bound: float,
                               deflate: Sequence[np.ndarray] = (),
                               preconditioner=None,
                               tol: float = 1e-9,
                               matmat=None,
                               x0: np.ndarray | None = None,
                               stats: dict | None = None
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`lobpcg_smallest` with the backend-registry return shape.

    Re-measures the final residuals on the deflated operator (projecting
    the image exactly the way the Lanczos backend does) and enforces the
    same ``tol * scale * 100`` acceptance bound, raising
    :class:`~repro.errors.ConvergenceError` on a miss so callers can
    fall back.
    """
    result = lobpcg_smallest(matvec, n, k, deflate=deflate,
                             preconditioner=preconditioner, tol=tol,
                             upper_bound=upper_bound, matmat=matmat,
                             x0=x0, stats=stats)
    d = deflation_matrix(deflate, n)
    scale = max(float(upper_bound), 1.0)
    values = result.values
    vectors = result.vectors
    residuals = np.empty(k)
    for j in range(k):
        y = vectors[:, j] / np.linalg.norm(vectors[:, j])
        vectors[:, j] = y
        image = matvec(y)
        if d.shape[1]:
            image = image - d @ (d.T @ image)
        residuals[j] = np.linalg.norm(image - values[j] * y)
    if not (residuals <= tol * scale * 100).all():
        raise ConvergenceError(
            "LOBPCG missed the residual tolerance on the deflated "
            f"operator (worst {residuals.max():.2e} vs "
            f"{tol * scale * 100:.2e})",
            iterations=result.iterations,
            residual=float(residuals.max()),
        )
    return values, vectors
