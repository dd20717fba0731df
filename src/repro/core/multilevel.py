"""Multilevel approximation of the Fiedler pair.

The scalability extension of Spectral LPM: instead of solving the
Fiedler problem on the full graph, coarsen it by heavy-edge matching
(:mod:`repro.graph.coarsening`), solve a small *block* eigenproblem
exactly on the coarsest level, prolong the block back level by level
(piecewise-constant interpolation), smooth at each level with a
Chebyshev polynomial filter, and finish with one exact Rayleigh-Ritz
projection on the finest level.

Two upgrades over the classic Barnard & Simon recipe (which prolonged a
single vector and smoothed with plain power iteration):

* **Chebyshev-accelerated smoothing.**  A degree-``d`` Chebyshev filter
  damps the unwanted band ``[a, lambda_max]`` uniformly, so error modes
  decay like ``exp(-2 d sqrt(a / lambda_max))`` — exponentially faster
  than the ``(1 - lambda/lambda_max)^d`` of shifted power iteration at
  equal matvec count.  The low edge ``a`` is set adaptively from the
  Rayleigh quotients of the incoming block.
* **Blocked prolongation + final Rayleigh-Ritz.**  Carrying a small
  block (default 4 vectors) instead of one vector keeps *degenerate*
  Fiedler eigenspaces intact — square grids have multiplicity 2, cubes
  multiplicity 3 — and the closing Rayleigh-Ritz projection on the fine
  level extracts the best eigenpair approximations the block spans,
  together with trustworthy residual norms for quality control.

The result approximates the true Fiedler pair — the Ritz value typically
lands well within a percent of ``lambda_2`` — and the induced order is
competitive with exact Spectral LPM at a fraction of the eigensolver
cost, making million-cell grids practical without scipy.
:func:`multilevel_eigenspace` is the algorithm; the ``"multilevel"``
backend (:func:`repro.core.fiedler.fiedler_vector`, and so
``SpectralLPM(backend="multilevel")``) turns its bottom Ritz group into
the canonical Fiedler vector and orders by it like every other backend.

The same hierarchy preconditions the ``lobpcg`` backend
(:class:`MultilevelPreconditioner`).  A preconditioner is built from the
graph alone; the constants :data:`VCYCLE_MIN_SIZE`,
:data:`VCYCLE_SMOOTH_DEGREE` and :data:`VCYCLE_BAND_RATIO` fix its shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphStructureError, InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.coarsening import coarsen_hierarchy
from repro.graph.laplacian import laplacian
from repro.graph.traversal import is_connected
from repro.linalg.backends import smallest_eigenpairs
from repro.linalg.operators import orthonormalize_block
from repro.linalg.power import deterministic_start
from repro.linalg.sparse import CSRMatrix

#: Ritz values within this relative distance of the smallest one are
#: treated as one (possibly degenerate) eigenspace group.  Looser than
#: the exact backends' grouping tolerance because multilevel Ritz values
#: carry approximation error, not just solver noise.
GROUP_RTOL = 1e-2

#: Coarsening stop of the preconditioner's hierarchy; the coarsest
#: Laplacian is pseudo-inverted densely.
VCYCLE_MIN_SIZE = 64

#: Degree of the preconditioner's Chebyshev smoothing polynomial per
#: pre/post sweep on the finest level (coarser levels add two).
VCYCLE_SMOOTH_DEGREE = 3

#: The preconditioner smooths the band ``[b / VCYCLE_BAND_RATIO, b]``
#: (``b`` a Gershgorin bound) and leaves the rest to the coarse
#: correction.
VCYCLE_BAND_RATIO = 30.0


@dataclass(frozen=True)
class MultilevelEigenspace:
    """Approximate bottom eigenpairs of a connected graph's Laplacian
    (constant vector excluded), with quality diagnostics."""

    values: np.ndarray       # ascending Ritz values
    vectors: np.ndarray      # matching orthonormal Ritz vectors
    residuals: np.ndarray    # true residual norms ||L y - theta y||
    levels: int              # coarsening levels used
    coarsest_size: int


def _smooth_block(lap: CSRMatrix, block: np.ndarray, degree: int,
                  window_low: float | None = None) -> np.ndarray:
    """Chebyshev-filtered smoothing of a block toward the bottom
    eigenspace of ``lap`` (constant direction projected out).

    Applies ``T_degree(g(L))`` to every column, where ``g`` maps the
    damped band ``[a, b]`` onto ``[-1, 1]`` (``b`` a Gershgorin bound,
    ``a`` = ``window_low``, defaulting to an estimate from the block's
    Rayleigh quotients).  Eigenvalues below ``a`` are amplified
    exponentially in ``degree`` relative to the damped band — the
    Chebyshev replacement for the plain power iteration this function
    used to run.  Callers that track eigenvalue estimates (the
    multilevel hierarchy) should pass ``window_low`` explicitly:
    prolongation error inflates Rayleigh quotients, and an inflated
    ``a`` lets exactly the low-frequency error the filter exists to
    remove pass through undamped.
    """
    n = lap.n
    ones = np.ones(n) / np.sqrt(n)
    x = block - ones[:, None] * (ones @ block)
    norms = np.linalg.norm(x, axis=0)
    keep = norms > 1e-12
    if not keep.any():
        return x
    x = x[:, keep] / norms[keep]
    if degree <= 0:
        return x
    b = lap.gershgorin_upper_bound()
    if b <= 0:
        return x
    lx = lap.matmat(x)
    if window_low is None:
        quotients = np.einsum("ij,ij->j", x, lx)
        window_low = 2.0 * float(quotients.max())
    # Floor the damped band's low edge so the filter stays *selective*:
    # the bottom modes are amplified by roughly cosh(2 d sqrt(a/b))
    # relative to the band, so an ``a`` far below ``b / d^2`` buys no
    # separation per sweep no matter how small the wanted eigenvalues
    # are.  The floor fixes the per-sweep gain around cosh(9) ~ 4000x
    # and leaves eigenvalue-estimate-based lower edges in force only
    # when they are the binding constraint.
    floor = b * (4.5 / max(degree, 1)) ** 2
    a = float(np.clip(max(window_low, floor), 1e-12, 0.5 * b))
    half_width = (b - a) / 2.0
    center = (b + a) / 2.0
    x_prev = x
    x_cur = (lx - center * x) / half_width
    for _ in range(degree - 1):
        x_next = (2.0 / half_width) * (lap.matmat(x_cur) - center * x_cur)
        x_next -= x_prev
        x_next -= ones[:, None] * (ones @ x_next)
        scale = float(np.abs(x_next).max())
        if scale > 1e100:
            x_next /= scale
            x_cur /= scale
        x_prev, x_cur = x_cur, x_next
    return x_cur


def _rayleigh_ritz(lap: CSRMatrix, block: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Rayleigh-Ritz of ``lap`` on the span of ``block``.

    Returns ``(theta, vectors, residuals)`` with ascending Ritz values,
    orthonormal Ritz vectors (all orthogonal to the constant vector),
    and true residual norms ``||L y - theta y||``.
    """
    n = lap.n
    ones = np.ones(n) / np.sqrt(n)
    q = orthonormalize_block(block, against=ones[:, None])
    if q.shape[1] == 0:  # block collapsed; seed a fresh probe
        q = orthonormalize_block(
            deterministic_start(n)[:, None], against=ones[:, None]
        )
    lq = lap.matmat(q)
    h = q.T @ lq
    h = (h + h.T) / 2.0
    theta, s = np.linalg.eigh(h)
    vectors = q @ s
    residual_block = lq @ s - vectors * theta[None, :]
    residuals = np.linalg.norm(residual_block, axis=0)
    return theta, vectors, residuals


class MultilevelPreconditioner:
    """Symmetric multilevel V-cycle approximating the Laplacian
    pseudo-inverse on the complement of the constant vector.

    Reuses the eigensolver hierarchy (heavy-edge matching coarsening,
    piecewise-constant transfer) as an AMG-style preconditioner for the
    iterative eigensolvers: one application runs a V-cycle — Chebyshev
    pre-smooth, restrict the residual, recurse, prolong the coarse
    correction, Chebyshev post-smooth — with an exact (dense
    pseudo-inverse) solve on the coarsest level.  Using the *same*
    polynomial smoother before and after the coarse correction, together
    with the Galerkin coarse operators the matching transfer induces,
    makes the cycle a symmetric positive operator on the complement of
    the constant vector — the property CG and LOBPCG require of a
    preconditioner.

    The Chebyshev smoother approximates ``L^{-1}`` on the upper spectral
    band ``[b / VCYCLE_BAND_RATIO, b]`` (``b`` a Gershgorin bound),
    which is exactly the complement of what the coarse correction
    handles; the resulting polynomial is positive on ``(0, b]``, so
    symmetry survives the smoothing.

    A built preconditioner is immutable: applying it writes nothing, so
    one instance may serve concurrent solves on any thread.

    Parameters
    ----------
    graph:
        The graph whose Laplacian the preconditioner targets.  Need not
        be connected (the coarsest pseudo-inverse annihilates every
        component indicator), though production use is connected.
    """

    def __init__(self, graph: Graph):
        levels = coarsen_hierarchy(graph, min_size=VCYCLE_MIN_SIZE)
        all_maps = [level.fine_to_coarse for level in levels]
        all_graphs = [graph] + [level.graph for level in levels]
        # Fuse runs of matching levels on the *large* end of the chain:
        # composing piecewise-constant transfers is another piecewise-
        # constant transfer, and the Galerkin operator the composition
        # induces is exactly the descendant level's Laplacian
        # (P2^T (P1^T L P1) P2 = the grandchild's, and so on), so
        # intermediate levels can be dropped without losing coarse-
        # operator consistency.  Matching coarsens slowly (~1.7x per
        # level); fusing triples gives a ~5x ratio that roughly halves
        # the V-cycle's smoothing work on a 256^2 grid for a few extra
        # outer iterations — a large net win where levels are expensive.
        # Small levels are kept unfused: they cost nearly nothing to
        # smooth, and on small problems (1-D chains especially) the
        # thinned coarse space measurably degrades the correction —
        # to the point of stalling LOBPCG just above its tolerance.
        fuse, fuse_min_size = 3, 4096
        maps, graphs = [], [all_graphs[0]]
        i = 0
        while i < len(all_maps):
            take = (min(fuse, len(all_maps) - i)
                    if all_graphs[i].num_vertices >= fuse_min_size else 1)
            composed = all_maps[i]
            for j in range(1, take):
                composed = all_maps[i + j][composed]
            maps.append(composed)
            graphs.append(all_graphs[i + take])
            i += take
        # Smoothing degrees per level: the finest level pays for every
        # extra polynomial term in full-size matvecs, so it keeps the
        # base degree; coarser levels are cheap enough that two more
        # terms cost almost nothing and measurably sharpen the coarse
        # correction (fewer outer LOBPCG/CG iterations for the same
        # fine-level work per cycle).
        self._degrees = [VCYCLE_SMOOTH_DEGREE] + \
            [VCYCLE_SMOOTH_DEGREE + 2] * len(maps)
        # Apply the coarse correction twice at the first level small
        # enough that revisiting its whole sub-hierarchy is cheap.  The
        # doubled correction ``2M - MLM`` stays symmetric positive
        # (eigenvalues mu(2 - mu) of the single-cycle mu in (0, 2]), and
        # squares the error-reduction factor of everything below the
        # chosen level — most of the benefit of an exact coarse solve at
        # that size for a sliver of its cost.
        self._double_at = next(
            (idx for idx, g in enumerate(graphs)
             if 0 < idx < len(graphs) - 1
             and g.num_vertices < fuse_min_size), -1)
        self._maps = maps
        self._laps = [laplacian(g) for g in graphs]
        self._bounds = [max(lap.gershgorin_upper_bound(), 1e-300)
                        for lap in self._laps]
        # Pseudo-inverse of the (symmetric PSD) coarsest Laplacian via
        # eigh rather than np.linalg.pinv: same result, but a symmetric
        # eigendecomposition costs a fraction of pinv's SVD — this is
        # the single most expensive step of hierarchy construction.
        dense = self._laps[-1].to_dense()
        w, v = np.linalg.eigh((dense + dense.T) / 2.0)
        cutoff = max(float(w.max()), 0.0) * len(w) * np.finfo(np.float64).eps
        inv_w = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
        self._coarse_inverse = (v * inv_w) @ v.T
        n = graph.num_vertices
        self._ones = np.ones(n) / np.sqrt(n)

    def _smooth(self, level: int, b: np.ndarray,
                return_residual: bool = False):
        """Chebyshev semi-iteration from zero: ``x ~ L^{-1} b`` on the
        band ``[a, bound]`` (classic three-term recurrence).

        With ``return_residual`` the final residual ``b - L x`` rides
        along for free (the recurrence maintains it anyway); without it
        the last residual update is skipped entirely.  Together the two
        modes cut the V-cycle from ``2 * degree + 2`` operator
        applications per level to ``2 * degree``.
        """
        lap = self._laps[level]
        bound = self._bounds[level]
        degree = self._degrees[level]
        a = bound / VCYCLE_BAND_RATIO
        theta = 0.5 * (bound + a)
        delta = 0.5 * (bound - a)
        sigma = theta / delta
        rho = 1.0 / sigma
        x = b / theta
        if degree == 1:
            if return_residual:
                r = b - (lap.matmat(x) if b.ndim == 2 else lap.matvec(x))
                return x, r
            return x
        r = b - (lap.matmat(x) if b.ndim == 2 else lap.matvec(x))
        d = x.copy()
        for step in range(degree - 1):
            rho_next = 1.0 / (2.0 * sigma - rho)
            d = (rho_next * rho) * d + (2.0 * rho_next / delta) * r
            x = x + d
            if return_residual or step < degree - 2:
                r = r - (lap.matmat(d) if d.ndim == 2 else lap.matvec(d))
            rho = rho_next
        return (x, r) if return_residual else x

    def _restrict(self, level: int, r: np.ndarray) -> np.ndarray:
        fine_to_coarse = self._maps[level]
        nc = self._laps[level + 1].n
        if r.ndim == 1:
            return np.bincount(fine_to_coarse, weights=r, minlength=nc)
        out = np.empty((nc, r.shape[1]))
        for j in range(r.shape[1]):
            out[:, j] = np.bincount(fine_to_coarse, weights=r[:, j],
                                    minlength=nc)
        return out

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self._laps) - 1:
            return self._coarse_inverse @ b
        lap = self._laps[level]
        x, r = self._smooth(level, b, return_residual=True)
        coarse_b = self._restrict(level, r)
        e = self._cycle(level + 1, coarse_b)
        if level + 1 == self._double_at:
            # Second sweep of the sub-hierarchy below ``_double_at``
            # (see ``__init__``): one extra pass over levels that are
            # all small, squaring the coarse-correction quality.
            lc = self._laps[level + 1]
            residual = coarse_b - (lc.matmat(e) if e.ndim == 2
                                   else lc.matvec(e))
            e = e + self._cycle(level + 1, residual)
        x = x + e[self._maps[level]]
        r = b - (lap.matmat(x) if x.ndim == 2 else lap.matvec(x))
        return x + self._smooth(level, r)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle: an approximation of ``L^+ b``.

        Accepts a vector or an ``(n, m)`` block.  Input and output are
        projected against the constant vector, so the operator is
        symmetric positive semi-definite with the constant direction as
        its only intended nullspace — safe as a CG/LOBPCG
        preconditioner on the deflated subspace.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim == 1:
            b = b - self._ones * (self._ones @ b)
            x = self._cycle(0, b)
            return x - self._ones * (self._ones @ x)
        b = b - self._ones[:, None] * (self._ones @ b)
        x = self._cycle(0, b)
        return x - self._ones[:, None] * (self._ones @ x)

    __call__ = apply


def multilevel_eigenspace(graph: Graph, block_size: int = 4,
                          min_size: int = 64, smoothing_steps: int = 40,
                          coarse_backend: str = "dense"
                          ) -> MultilevelEigenspace:
    """Approximate bottom Laplacian eigenpairs via coarsen-filter-project.

    Parameters
    ----------
    graph:
        A connected graph with at least 2 vertices.
    block_size:
        Number of vectors carried through the hierarchy (and of Ritz
        pairs returned, spectrum permitting).  Must cover the expected
        ``lambda_2`` multiplicity; 4 handles every grid family in this
        library.
    min_size:
        Coarsening stops at this many vertices; the coarsest block
        eigenproblem is solved exactly.
    smoothing_steps:
        Chebyshev filter degree applied after each prolongation.
    coarse_backend:
        Eigensolver backend for the coarsest solve (must be a
        matrix-level backend, i.e. not ``"multilevel"``).
    """
    if not is_connected(graph):
        raise GraphStructureError(
            "multilevel Fiedler requires a connected graph; order "
            "components separately"
        )
    return _connected_eigenspace(graph, block_size, min_size,
                                 smoothing_steps, coarse_backend)


def _connected_eigenspace(graph: Graph, block_size: int = 4,
                          min_size: int = 64, smoothing_steps: int = 40,
                          coarse_backend: str = "dense"
                          ) -> MultilevelEigenspace:
    """:func:`multilevel_eigenspace` without the connectivity check, for
    :func:`~repro.core.fiedler.fiedler_vector`, which has checked (or
    been told) that the graph is connected."""
    n = graph.num_vertices
    if n < 2:
        raise InvalidParameterError(
            f"multilevel ordering needs at least 2 vertices, got {n}"
        )
    if smoothing_steps < 0:
        raise InvalidParameterError(
            f"smoothing_steps must be >= 0, got {smoothing_steps}"
        )
    if block_size < 1:
        raise InvalidParameterError(
            f"block_size must be >= 1, got {block_size}"
        )
    levels = coarsen_hierarchy(graph, min_size=min_size)
    graphs = [graph] + [level.graph for level in levels]
    coarsest = graphs[-1]
    nc = coarsest.num_vertices
    k = max(1, min(block_size, nc - 1))
    ones_c = np.ones(nc) / np.sqrt(nc)
    theta, block = smallest_eigenpairs(laplacian(coarsest), k,
                                       backend=coarse_backend,
                                       deflate=[ones_c])
    # Prolong back up; at every level (including the finest) smooth with
    # the Chebyshev filter and realign the block with an exact
    # Rayleigh-Ritz projection.  The per-level projection does two jobs:
    # it rotates prolongation-induced mixing *within* the block span
    # back onto eigenvector approximations, and it refreshes the
    # eigenvalue estimates that set the next filter window.  Windows
    # come from those estimates — not from the incoming block's Rayleigh
    # quotients, which prolongation error inflates by orders of
    # magnitude (see :func:`_smooth_block`).
    theta_max = float(theta[-1])
    lap = None
    for depth in range(len(levels) - 1, -1, -1):
        block = block[levels[depth].fine_to_coarse]
        lap = laplacian(graphs[depth])
        window_low = 8.0 * max(theta_max, 1e-12)
        block = _smooth_block(lap, block, smoothing_steps, window_low)
        theta, block, residuals = _rayleigh_ritz(lap, block)
        theta_max = float(theta[-1])
    if lap is None:
        lap = laplacian(graph)
        block = _smooth_block(lap, block, smoothing_steps,
                              8.0 * max(theta_max, 1e-12))
        theta, block, residuals = _rayleigh_ritz(lap, block)
    # One polish sweep on the finest level: the level loop leaves the
    # *eigenvalues* accurate but the vectors still carry high-frequency
    # residue from the last prolongation; a second filter + projection
    # multiplies that residue by another band-damping factor, which is
    # what makes the residual-based quality bound tight enough to be
    # useful.
    block = _smooth_block(lap, block, smoothing_steps,
                          8.0 * max(theta_max, 1e-12))
    theta, block, residuals = _rayleigh_ritz(lap, block)
    return MultilevelEigenspace(
        values=theta,
        vectors=block,
        residuals=residuals,
        levels=len(levels),
        coarsest_size=nc,
    )
