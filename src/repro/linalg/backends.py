"""Eigensolver backend registry.

The Fiedler pipeline needs "the ``k`` smallest eigenpairs of a symmetric
PSD sparse matrix".  Five interchangeable backends provide it:

``dense``
    ``numpy.linalg.eigh`` on the dense matrix.  Exact and simple, and
    the reference oracle for the others, but it computes all ``n``
    eigenpairs where the Fiedler pipeline needs a handful: it wins only
    up to a few hundred vertices (see :data:`DENSE_CUTOFF`).
``lanczos``
    Our thick-restart Lanczos (:mod:`repro.linalg.lanczos`).  Pure
    numpy, BLAS-level reorthogonalization, scales to large sparse
    graphs; iteration count grows like ``O(sqrt(lambda_max/lambda_2))``
    on the clustered bottom spectra Laplacians have.
``lobpcg``
    Blocked LOBPCG (:mod:`repro.linalg.lobpcg`) preconditioned by the
    multilevel V-cycle
    (:class:`repro.core.multilevel.MultilevelPreconditioner`).  The
    fastest pure-numpy option on large Laplacians.
``scipy``
    ``scipy.sparse.linalg.eigsh`` in shift-invert mode, when scipy is
    importable.  Fastest exact option above a few hundred vertices.
    Every solve inverts through one sparse LU of ``M = A - sigma I``
    with ``sigma = -1e-5`` times the Gershgorin scale, just below
    ``lambda_2``, so ARPACK separates the bottom pairs in few solves.
    ``M`` is symmetric positive definite, so SuperLU pivots on its
    diagonal and orders its symmetric pattern by minimum degree, which
    leaves about 0.6x the fill of scipy's default.  ARPACK starts from
    :func:`~repro.linalg.power.deterministic_start`, so a solve's bits
    depend only on its input.  Deflation is matrix-free: the rank-``p``
    spectral shift is folded into the shift-invert operator with the
    Woodbury identity, so the sparse factorization never sees an
    ``n x n`` dense update, and inside :func:`shared_factorization`
    every solve of one matrix reuses one LU factor.
``multilevel``
    Coarsen-solve-refine approximation
    (:mod:`repro.core.multilevel`).  It needs the *graph*, not just the
    matrix, so it is dispatched by
    :func:`repro.core.fiedler.fiedler_vector` rather than by
    :func:`smallest_eigenpairs`; requesting it here raises with a
    pointer to the right entry point.  Results carry a documented
    quality tolerance instead of solver-precision guarantees.

``lobpcg`` is an exact-accuracy backend with a safety net: when a
solve misses its residual tolerance (bad preconditioner fit,
non-Laplacian input) it *falls back to the plain Lanczos path* instead
of returning an unverified pair — the same miss-tolerance-then-fall-back
contract the multilevel quality gate implements at the Fiedler level.

Backend selection under ``auto``
--------------------------------
* a full grid under the orthogonal radius-1 model, any weights, any
  size (only via :class:`~repro.core.spectral.SpectralLPM`, which sees
  the grid): no solver.  :func:`repro.core.fiedler.grid_fiedler_result`
  builds its exact pair from cosines and reports backend
  ``"closed-form"``, a name outside :data:`BACKENDS`.  The rules below
  serve everything else, including a pair that fails its certificate.
* ``n <= DENSE_CUTOFF`` (or ``k`` close to ``n``): ``dense``.  The
  cutoff is the measured crossover of whole Fiedler solves, one per
  leg: 225 vertices against ``scipy``, 441 against ``lanczos`` when
  scipy is not installed.
* larger matrices: ``scipy`` when importable; otherwise ``lobpcg``
  above ``LOBPCG_CUTOFF`` (where preconditioned iteration beats the
  flat Lanczos sweep) and ``lanczos`` in between.
* graphs above ``MULTILEVEL_CUTOFF`` vertices (only via
  :func:`~repro.core.fiedler.fiedler_vector`, which sees the graph):
  ``multilevel`` with a quality check — the approximate pair is accepted
  only when its estimated relative ``lambda_2`` error is within
  :data:`MULTILEVEL_QUALITY_RTOL`, otherwise the exact path runs.  The
  multilevel solve coarsens the graph on its own edge weights every
  time (nothing is cached across solves), so its answer depends only on
  the graph, whichever front asked.

The cutoffs are module constants, not environment knobs: an order is
cached under its :class:`~repro.core.spectral.SpectralConfig` and its
domain alone, so nothing outside that key may move ``auto``'s choice.
``MULTILEVEL_CUTOFF`` in particular picks an approximation whose order
differs from the exact one; an approximate order is asked for with
``backend="multilevel"``, which is part of the key.

All backends return eigenvalues in ascending order with orthonormal
eigenvector columns; all are cross-validated in the test suite.
"""

from __future__ import annotations

import importlib.util
import threading
from contextlib import contextmanager
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.caching import LRUCache
from repro.errors import (
    BackendUnavailableError,
    ConvergenceError,
    InvalidParameterError,
)
from repro.linalg.lanczos import smallest_eigenpairs_shifted
from repro.linalg.lobpcg import smallest_eigenpairs_lobpcg
from repro.linalg.operators import deflation_matrix
from repro.linalg.power import deterministic_start
from repro.linalg.sparse import CSRMatrix
from repro.obs import Timer, registry, span

# Solve latency by *resolved* backend (``auto`` is resolved before the
# observation, so the label always names the algorithm that ran, and a
# closed-form grid pair observes under "closed-form").
_SOLVE_SECONDS = registry().histogram(
    "repro_linalg_solve_seconds",
    "Eigensolve latency by resolved backend.")

# Solves one backend handed to another.  Always on: the span attributes
# that also record a switch exist only while a trace is recording.
_FALLBACKS = registry().counter(
    "repro_linalg_fallbacks_total",
    "Solves handed from one eigensolver backend to another.")


def count_fallback(source: str, target: str) -> None:
    """Count one solve that backend ``source`` handed to ``target``."""
    _FALLBACKS.inc(**{"from": source, "to": target})


#: ``auto``'s dense cutoff when scipy is installed: the largest size at
#: which a whole dense Fiedler solve still beat the scipy one (see the
#: README's "Choosing an eigensolver backend" for the measurements).
SCIPY_DENSE_CUTOFF = 225

#: ``auto``'s dense cutoff without scipy, where dense competes with the
#: in-house Lanczos instead.
NUMPY_DENSE_CUTOFF = 441

#: Matrices at or below this size use the dense path under ``auto``:
#: :data:`SCIPY_DENSE_CUTOFF` when scipy is installed, else
#: :data:`NUMPY_DENSE_CUTOFF`.  ``find_spec`` locates scipy without
#: importing it, so ``import repro`` stays scipy-free.
DENSE_CUTOFF = (SCIPY_DENSE_CUTOFF
                if importlib.util.find_spec("scipy") is not None
                else NUMPY_DENSE_CUTOFF)

#: Without scipy, matrices above this size use the preconditioned LOBPCG
#: backend under ``auto`` instead of plain Lanczos: that is the regime
#: where the multilevel preconditioner's O(1) iteration count beats the
#: flat Lanczos sweep by more than the hierarchy-construction overhead
#: costs.
LOBPCG_CUTOFF = 4096

#: Graphs above this many vertices use the multilevel approximation under
#: ``auto`` (subject to its quality check).  Only meaningful at the
#: :func:`repro.core.fiedler.fiedler_vector` level, where the graph
#: structure needed for coarsening is still available.
MULTILEVEL_CUTOFF = 131_072

#: Bound on the estimated relative ``lambda_2`` error of a multilevel
#: result accepted under ``auto``; read at each solve, like
#: :data:`MULTILEVEL_CUTOFF`.
MULTILEVEL_QUALITY_RTOL = 0.05

#: Default residual tolerance of the iterative exact backends (relative
#: to the spectrum's Gershgorin scale) when no explicit ``tol`` is given.
DEFAULT_SOLVER_TOL = 1e-9

BACKENDS = ("auto", "dense", "lanczos", "lobpcg", "scipy", "multilevel")

# Per-thread tally of counted solves.  Delta measurements taken *around
# a synchronous solve* must use this one: under the ordering service's
# single-flight concurrency, solves on distinct keys run in parallel, so
# a process-wide delta would charge each computation with every other
# thread's invocations too.
_THREAD_TALLY = threading.local()


def solver_invocations() -> int:
    """How many eigensolves this process has run.

    Every :func:`smallest_eigenpairs` call counts one, and so does every
    closed-form Fiedler pair of a full radius-1 grid
    (:func:`repro.core.fiedler.grid_fiedler_result`, backend
    ``"closed-form"``), which stands in for a solve, and every stack of
    same-size dense Fiedler solves
    (:func:`repro.core.fiedler.dense_fiedler_results`, backend
    ``"dense"``): a graph whose components of three and four vertices
    solve dense counts two, however many components there are.  It is
    the count of ``repro_linalg_solve_seconds`` summed over its backend
    labels, so it never resets and is meant for deltas: record it, run
    the operation under test, and compare.  Cache layers use it to
    *prove* a warm path never reached an eigensolver.
    """
    return _SOLVE_SECONDS.total_count()


def thread_solver_invocations() -> int:
    """Like :func:`solver_invocations`, but counting this thread only.

    The right baseline for attributing invocations to one synchronous
    computation when other threads may be solving concurrently (e.g.
    the ordering service's per-artifact ``solver_calls`` provenance).
    """
    return getattr(_THREAD_TALLY, "count", 0)


def scipy_available() -> bool:
    """Whether the optional scipy backend can be imported."""
    try:
        import scipy.sparse.linalg  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_auto(n: int, k: int = 1) -> str:
    """The concrete matrix backend ``auto`` selects for an (n, k) solve.

    The single source of truth for the policy — callers that need to
    know the resolved backend up front (e.g. the Fiedler pipeline's
    eigenspace closure, which behaves differently per backend) must use
    this rather than re-deriving the rules.
    """
    if n <= DENSE_CUTOFF or k >= n - 1:
        return "dense"
    if scipy_available():
        return "scipy"
    if n > LOBPCG_CUTOFF:
        return "lobpcg"
    return "lanczos"


def _smallest_dense(matrix: CSRMatrix, k: int,
                    deflate: Sequence[np.ndarray]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    dense = matrix.to_dense()
    # Deflation by spectral shifting: push deflated directions to the top
    # of the spectrum so the bottom-k are the wanted pairs.
    if len(deflate):
        shift = matrix.gershgorin_upper_bound() + 1.0
        for d in deflate:
            dense = dense + shift * np.outer(d, d)
    values, vectors = np.linalg.eigh(dense)
    return values[:k], vectors[:, :k]


def _smallest_lanczos(matrix: CSRMatrix, k: int,
                      deflate: Sequence[np.ndarray],
                      tol: float = DEFAULT_SOLVER_TOL,
                      stats: dict | None = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    bound = matrix.gershgorin_upper_bound()
    return smallest_eigenpairs_shifted(
        matrix.matvec, matrix.n, k, upper_bound=bound, deflate=deflate,
        tol=tol, stats=stats
    )


# Hierarchy construction costs ~1s at 256^2 while a Fiedler solve calls
# smallest_eigenpairs several times on the *same* Laplacian (the k=4
# probe solve plus one deflated k=1 solve per degenerate direction), so
# preconditioners are memoized on matrix content.  Keyed by a digest of
# the CSR arrays rather than object identity: CSRMatrix is slotted
# (no weakrefs), id() recycles, and content keys also share work across
# equal matrices built independently.  A built preconditioner is
# immutable, so one instance serves every solve of an equal Laplacian,
# on any thread; the LRU locks its own bookkeeping.
_PRECONDITIONER_CACHE: "LRUCache[tuple, object]" = LRUCache(4)


def _matrix_content_key(matrix: CSRMatrix) -> tuple:
    import hashlib

    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(matrix.indptr).tobytes())
    digest.update(np.ascontiguousarray(matrix.indices).tobytes())
    digest.update(np.ascontiguousarray(matrix.data).tobytes())
    return (matrix.n, matrix.nnz, digest.hexdigest())


def multilevel_preconditioner_for(matrix: CSRMatrix):
    """A multilevel V-cycle preconditioner for ``matrix``, when it is one.

    Recognises graph Laplacians
    (:func:`repro.graph.laplacian.graph_from_laplacian`) and builds the
    :class:`~repro.core.multilevel.MultilevelPreconditioner` on the
    recovered graph; returns ``None`` for anything else, so the
    preconditioned backends degrade gracefully to unpreconditioned
    iteration on general SPD input.  Preconditioners are cached on
    matrix content, so the repeated solves of a single Fiedler
    computation pay the hierarchy construction once.  A ``None``
    verdict is not cached: recognising a non-Laplacian is one O(nnz)
    pass.
    """
    key = _matrix_content_key(matrix)
    preconditioner = _PRECONDITIONER_CACHE.get(key)
    if preconditioner is not None:
        return preconditioner

    # Lazy imports: repro.core.multilevel imports this module at load
    # time, and the graph package is above linalg in the layer order.
    from repro.graph.laplacian import graph_from_laplacian

    graph = graph_from_laplacian(matrix)
    if graph is None or graph.num_vertices < 2:
        return None
    from repro.core.multilevel import MultilevelPreconditioner

    try:
        preconditioner = MultilevelPreconditioner(graph)
    except np.linalg.LinAlgError:
        return None
    _PRECONDITIONER_CACHE.put(key, preconditioner)
    return preconditioner


def _smallest_lobpcg(matrix: CSRMatrix, k: int,
                     deflate: Sequence[np.ndarray],
                     tol: float = DEFAULT_SOLVER_TOL,
                     x0: np.ndarray | None = None,
                     stats: dict | None = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    bound = matrix.gershgorin_upper_bound()
    try:
        return smallest_eigenpairs_lobpcg(
            matrix.matvec, matrix.n, k, upper_bound=bound,
            deflate=deflate, tol=tol, matmat=matrix.matmat, x0=x0,
            preconditioner=multilevel_preconditioner_for(matrix),
            stats=stats,
        )
    except ConvergenceError:
        # Miss-tolerance-falls-back contract: the preconditioned
        # iteration could not certify the pairs (bad preconditioner
        # fit, non-Laplacian input); the flat Lanczos sweep is slower
        # but assumption-free.
        count_fallback("lobpcg", "lanczos")
        if stats is not None:
            stats["fallback"] = "lanczos"
        return _smallest_lanczos(matrix, k, deflate, tol, stats=stats)


# The LU factor of ``A - sigma I`` held for the open
# shared_factorization() block of this thread: ``[matrix, factor]``, an
# empty list before the block's first scipy solve, and None (or unset)
# outside any block.
_HELD_FACTOR = threading.local()


@contextmanager
def shared_factorization() -> Iterator[None]:
    """Let the scipy solves of one matrix inside the block share one LU.

    A Fiedler computation solves the same Laplacian once for its window
    and once per closure certificate, and each scipy solve starts with
    a sparse LU factorization of ``L - sigma I`` (``sigma`` depends on
    the matrix only).  Inside this block the first solve's factor is
    kept and reused by later solves of the *same* matrix object on the
    *same* thread; it is dropped when the block exits.  Deliberately
    not a process-wide cache like the preconditioner's: factors are
    large (a four-entry process-wide cache of them lifted the
    ``cold-order`` benchmark's peak RSS from 105 to 142-146 MB), and
    SuperLU objects are not documented as thread-safe.
    """
    outer = getattr(_HELD_FACTOR, "slot", None)
    _HELD_FACTOR.slot = []
    try:
        yield
    finally:
        _HELD_FACTOR.slot = outer


def _shifted_factor(matrix: CSRMatrix, a, sigma: float):
    """The sparse LU factor of ``a - sigma I`` (``a`` is ``matrix`` as
    scipy CSR), reused within a :func:`shared_factorization` block.

    ``a`` is symmetric positive semi-definite and ``sigma < 0``, so
    ``a - sigma I`` is symmetric positive definite and every diagonal
    entry is a safe pivot.  SuperLU therefore runs in symmetric mode:
    diagonal pivots and a minimum-degree order of the pattern of
    ``A + A^T``.  Its default, COLAMD, orders for unsymmetric and
    least-squares problems and left grid Laplacians 1.5-1.7x the fill,
    which sets the cost of the factorization and of every solve.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    slot = getattr(_HELD_FACTOR, "slot", None)
    if slot and slot[0] is matrix:
        return slot[1]
    factor = spla.splu((a - sigma * sp.identity(matrix.n)).tocsc(),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    if slot is not None:
        slot[:] = [matrix, factor]
    return factor


def _smallest_scipy(matrix: CSRMatrix, k: int,
                    deflate: Sequence[np.ndarray]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    try:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
    except ImportError as exc:  # pragma: no cover - exercised via mock
        raise BackendUnavailableError(
            "scipy backend requested but scipy is not importable"
        ) from exc
    a = sp.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
    )
    n = matrix.n
    if k >= n - 1:
        # eigsh requires k < n; fall back to dense for tiny systems.
        # (The deflation must carry over — dropping it would let the
        # deflated directions back into the bottom of the spectrum.)
        count_fallback("scipy", "dense")
        return _smallest_dense(matrix, k, deflate)
    # Shift-invert around a point just below the spectrum: the matrix
    # M = A - sigma I is then definite and the smallest eigenvalues map
    # to the largest of the inverted operator.  The nearer sigma sits to
    # lambda_2, the further apart inversion spreads the bottom pairs and
    # the fewer LU solves ARPACK needs: on a 100 x 100 grid a shift of
    # -1e-3 * scale inverted the three lowest distinct eigenvalues to
    # 111, 100 and 84, and -1e-5 * scale inverts them to 937, 487 and
    # 248.  kappa(M) ~ 1e5 is well within a backward-stable LU's reach.
    bound = matrix.gershgorin_upper_bound()
    sigma = -1e-5 * max(bound, 1.0)
    factor = _shifted_factor(matrix, a, sigma)
    d = deflation_matrix(deflate, n)
    p = d.shape[1]
    if p:
        # Deflation without densification.  The deflated operator is
        # ``B = A + shift * D D^T`` (deflated directions pushed above the
        # window).  Forming ``D D^T`` — even "sparsely" — materializes an
        # n x n dense block for the constant vector, so instead the
        # rank-p update is folded into the *inverse* with the Woodbury
        # identity:
        #
        #   B - sigma I = M + shift D D^T,   M = A - sigma I  (sparse!)
        #   (B - sigma I)^-1 x
        #       = M^-1 x - Z (I/shift + D^T Z)^-1 Z^T x,  Z = M^-1 D.
        #
        # One sparse factorization of M plus p extra solves.
        shift = bound + 1.0
        z = factor.solve(d)
        capacitance = np.linalg.inv(np.eye(p) / shift + d.T @ z)

        def op_inv(x: np.ndarray) -> np.ndarray:
            return factor.solve(x) - z @ (capacitance @ (z.T @ x))
    else:
        # p = 0: the Woodbury term vanishes and B is A itself.
        op_inv = factor.solve
    # ARPACK's shift-invert mode iterates OPinv exclusively and recovers
    # each eigenvalue as sigma + 1/theta, so the A operand only sets the
    # shape and dtype: the sparse A stands in for B.  The fixed start
    # vector keeps a solve's bits independent of what the process
    # solved before (ARPACK otherwise draws a random one per call).
    values, vectors = spla.eigsh(
        a, k=k, sigma=sigma, which="LM", v0=deterministic_start(n),
        OPinv=spla.LinearOperator((n, n), matvec=op_inv,
                                  dtype=np.float64))
    order = np.argsort(values)
    return values[order], vectors[:, order]


def smallest_eigenpairs(matrix: CSRMatrix, k: int, backend: str = "auto",
                        deflate: Sequence[np.ndarray] = (),
                        tol: float | None = None,
                        x0: np.ndarray | None = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest eigenpairs of a symmetric PSD CSR matrix.

    Parameters
    ----------
    matrix:
        Symmetric positive semi-definite matrix (e.g. a graph Laplacian).
    k:
        Number of wanted pairs, ``1 <= k <= n``.
    backend:
        One of :data:`BACKENDS`.  ``"multilevel"`` is graph-based and
        only available through
        :func:`repro.core.fiedler.fiedler_vector`; requesting it here
        raises :class:`~repro.errors.InvalidParameterError`.
    deflate:
        Orthonormal directions to exclude from the spectrum (the constant
        vector, for connected-Laplacian Fiedler computations).  Deflated
        directions are pushed above the returned window, so the result is
        the bottom of the spectrum *of the deflated operator*.
    tol:
        Residual tolerance of the iterative in-house backends
        (``lanczos``, ``lobpcg``), relative to the
        spectrum's Gershgorin scale; ``None`` means
        :data:`DEFAULT_SOLVER_TOL`.  The ``dense`` and ``scipy``
        backends solve to machine/ARPACK precision regardless, so
        passing a tolerance never perturbs their bit-exact results.
    x0:
        Optional warm-start columns for the ``lobpcg`` backend (an
        advisory hint: good guesses collapse the iteration count, bad
        ones cost nothing but the projection).  The other backends
        solve from their own deterministic starts and ignore it.

    Returns
    -------
    (values, vectors):
        Ascending eigenvalues and matching orthonormal eigenvector
        columns.
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "multilevel":
        raise InvalidParameterError(
            "the 'multilevel' backend needs the graph, not just its "
            "matrix; use repro.core.fiedler.fiedler_vector("
            "graph, backend='multilevel') or SpectralLPM("
            "backend='multilevel')"
        )
    n = matrix.n
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    if len(deflate) and any(d.shape != (n,) for d in deflate):
        raise InvalidParameterError("deflate vectors must have length n")
    if tol is None:
        tol = DEFAULT_SOLVER_TOL
    elif tol <= 0:
        raise InvalidParameterError(f"tol must be > 0, got {tol}")

    if backend == "auto":
        backend = resolve_auto(n, k)
    with counted_solve(backend, n, k) as stats:
        return _run_backend(matrix, k, backend, deflate, tol, x0, stats)


@contextmanager
def counted_solve(backend: str, n: int, k: int
                  ) -> Iterator[dict | None]:
    """Account for the wrapped block as one eigensolve by ``backend``.

    Bumps this thread's tally, opens one ``linalg.solve`` span and
    observes ``repro_linalg_solve_seconds``, whose count is
    :func:`solver_invocations`; a block that raises still counts.
    Yields a dict the block may fill with span attributes, allocated
    only while a trace is recording (``None`` otherwise), so the
    disabled-tracing path pays a single boolean check.
    :func:`smallest_eigenpairs`, the closed-form grid pair
    (:func:`repro.core.fiedler.grid_fiedler_result`) and each stacked
    dense eigensolve (:func:`repro.core.fiedler.dense_fiedler_results`,
    which adds the span attribute ``batch``, the matrices in the stack)
    solve through it.
    """
    _THREAD_TALLY.count = getattr(_THREAD_TALLY, "count", 0) + 1
    sp = span("linalg.solve", backend=backend, n=n, k=k)
    stats: dict | None = {} if sp.is_recording else None
    with sp, Timer() as timer:
        try:
            yield stats
        finally:
            if stats:
                for name, value in stats.items():
                    sp.set_attribute(name, value)
            _SOLVE_SECONDS.observe(timer.seconds, backend=backend)


def _run_backend(matrix: CSRMatrix, k: int, backend: str,
                 deflate: Sequence[np.ndarray], tol: float,
                 x0: np.ndarray | None, stats: dict | None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    n = matrix.n
    if backend == "dense":
        return _smallest_dense(matrix, k, deflate)
    if backend in ("lanczos", "lobpcg"):
        if k > n - len(deflate):
            count_fallback(backend, "dense")
            if stats is not None:
                stats["dense_fallback"] = True
            return _smallest_dense(matrix, k, deflate)
        if backend == "lanczos":
            return _smallest_lanczos(matrix, k, deflate, tol,
                                     stats=stats)
        return _smallest_lobpcg(matrix, k, deflate, tol, x0=x0,
                                stats=stats)
    return _smallest_scipy(matrix, k, deflate)
