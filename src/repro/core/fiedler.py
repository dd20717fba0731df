"""Fiedler value and vector computation (Steps 2-3 of the paper).

For a connected graph with Laplacian ``L``, the *Fiedler value* is the
second-smallest eigenvalue ``lambda_2`` (the algebraic connectivity,
Fiedler 1973) and the *Fiedler vector* is a corresponding eigenvector —
the minimizer of the paper's Theorem-1 objective among unit vectors
orthogonal to the constant vector (Theorems 2-3).

Degenerate eigenspaces
----------------------
``lambda_2`` of highly symmetric graphs is often *not simple*: for the
``s x s`` grid it has multiplicity 2 (the x- and y-cosine modes), and for a
``d``-cube grid multiplicity ``d``.  Every vector in the eigenspace attains
the same (optimal) objective value, but different eigensolvers return
different bases, so a naive implementation is non-deterministic exactly on
the paper's own examples.  We canonicalize: compute the full eigenspace
(growing the window until the eigenvalue group is closed), project a fixed
probe vector onto it, and fix the sign.  The result is deterministic and
backend-independent up to floating-point noise.

Eigenspace closing reuses converged pairs: iterative backends append one
deflated solve per missing direction instead of re-solving from scratch
with a doubled window (which repaid the full Krylov cost every round).

Dense solves in stacks
----------------------
Every Fiedler pair that solves dense (``backend="dense"``, or ``"auto"``
up to :data:`~repro.linalg.backends.DENSE_CUTOFF` vertices) comes from
:func:`dense_fiedler_results`: the same-size components of one graph
share one stacked :func:`numpy.linalg.eigh`, and a connected graph is a
stack of one.  Each pair is bit for bit the one its component gets
alone.

Backend dispatch
----------------
``backend`` accepts every name in :data:`repro.linalg.backends.BACKENDS`.
``"multilevel"`` runs the coarsen-solve-refine approximation
(:mod:`repro.core.multilevel`); ``"auto"`` also selects it for graphs
above :data:`repro.linalg.backends.MULTILEVEL_CUTOFF` vertices, falling
back to the exact path whenever the approximate pair misses the
:data:`~repro.linalg.backends.MULTILEVEL_QUALITY_RTOL` relative error
bound.

Full grids in closed form
-------------------------
The paper's default grid graph (orthogonal, radius 1) is a product of
weighted paths, so its eigenpairs are products of cosines:
:func:`grid_fiedler_result` gives the exact path's canonical pair
without a solve, and :class:`~repro.core.spectral.SpectralLPM` serves
every such grid ordered under ``"auto"`` from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.multilevel import GROUP_RTOL, _connected_eigenspace
from repro.errors import GraphStructureError, InvalidParameterError
from repro.graph.adjacency import Graph
from repro.graph.laplacian import (
    dense_laplacian_stack,
    laplacian,
    laplacian_matvec,
)
from repro.graph.traversal import is_connected
from repro.linalg import backends as backend_registry
from repro.linalg.backends import (
    BACKENDS,
    counted_solve,
    smallest_eigenpairs,
)
from repro.linalg.operators import canonical_in_span
from repro.linalg.power import deterministic_start

#: Relative tolerance grouping eigenvalues into the ``lambda_2``
#: eigenspace, in :func:`fiedler_vector`'s exact backends and in
#: :func:`grid_fiedler_result`, which reproduces them.
FIEDLER_GROUP_RTOL = 1e-6

#: Most float64 entries (matrices times size squared, about 8 MB) one
#: stacked dense eigensolve holds (:func:`dense_fiedler_results`): a
#: size with more components takes several stacks, so a large point set
#: never stacks gigabytes.
DENSE_STACK_ENTRIES = 1 << 20

#: Bound on a closed-form grid pair's certificate residual
#: (:func:`grid_fiedler_result`), relative to ``4 * sum(weights)``,
#: which bounds the spectrum.  An honest pair reads about 1e-16.
CLOSED_FORM_RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class FiedlerResult:
    """The Fiedler pair plus diagnostics.

    Attributes
    ----------
    value:
        The algebraic connectivity ``lambda_2``.
    vector:
        The canonical unit Fiedler vector (orthogonal to constant).
    multiplicity:
        Dimension of the ``lambda_2`` eigenspace that was detected.
    eigenvalues:
        All eigenvalues computed on the way (ascending, excludes the
        trivial 0), useful for spectral-gap diagnostics.
    backend:
        The eigensolver backend that produced the result
        (``"multilevel"`` when the approximate path served the answer,
        even under ``backend="auto"``; ``"closed-form"`` when a full
        radius-1 grid's pair came from its cosine formula
        (:func:`grid_fiedler_result`), a name reported but not
        selectable).
    """

    value: float
    vector: np.ndarray
    multiplicity: int
    eigenvalues: np.ndarray
    backend: str


def _multilevel_result(graph: Graph, probe: np.ndarray,
                       strict: bool) -> FiedlerResult | None:
    """The multilevel approximation as a :class:`FiedlerResult`.

    Returns ``None`` when ``strict`` is off (the ``auto`` path) and the
    bottom Ritz pair's relative eigenvalue error estimate exceeds
    :data:`~repro.linalg.backends.MULTILEVEL_QUALITY_RTOL` (read at call
    time) — the caller then runs an exact backend instead.
    """
    space = _connected_eigenspace(graph)
    theta0 = float(space.values[0])
    group_tol = max(GROUP_RTOL * max(abs(theta0), 1e-12), 1e-10)
    group = np.flatnonzero(space.values <= theta0 + group_tol)
    if not strict:
        # Relative eigenvalue-error estimate for the bottom Ritz pair.
        # With a measurable gap to the first Ritz value outside the
        # lambda_2 group, the Kato-Temple inequality sharpens the plain
        # residual bound |theta - lambda| <= r to r^2 / gap — the raw
        # ratio r / theta is hopelessly pessimistic exactly in the
        # regime multilevel serves (huge graphs, tiny lambda_2, modest
        # high-frequency residue left in the vector).
        residual = float(space.residuals[0])
        outside = space.values[space.values > theta0 + group_tol]
        denominator = max(theta0, 1e-300)
        if len(outside) and float(outside[0]) > theta0 + residual:
            error_bound = residual ** 2 / (float(outside[0]) - theta0)
        else:
            error_bound = residual
        if error_bound / denominator > \
                backend_registry.MULTILEVEL_QUALITY_RTOL:
            return None
    vector = canonical_in_span(space.vectors[:, group], probe)
    return FiedlerResult(
        value=theta0,
        vector=vector,
        multiplicity=len(group),
        eigenvalues=space.values.copy(),
        backend="multilevel",
    )


def fiedler_vector(graph: Graph, backend: str = "auto",
                   probe: np.ndarray | None = None) -> FiedlerResult:
    """The canonical Fiedler pair of a connected graph.

    Parameters
    ----------
    graph:
        A connected graph with at least 2 vertices.
    backend:
        Eigensolver backend (see :mod:`repro.linalg.backends`).
        ``"multilevel"`` always returns the coarsen-solve-refine
        approximation; ``"auto"`` uses it for graphs above
        :data:`~repro.linalg.backends.MULTILEVEL_CUTOFF` vertices when
        its pair meets
        :data:`~repro.linalg.backends.MULTILEVEL_QUALITY_RTOL`.  The
        exact backends group ``lambda_2`` by
        :data:`FIEDLER_GROUP_RTOL` and solve to
        :data:`~repro.linalg.backends.DEFAULT_SOLVER_TOL`.
    probe:
        Optional deterministic direction used to pick a canonical vector
        inside a degenerate eigenspace.  Defaults to a fixed quasi-random
        vector; pass e.g. a coordinate functional to bias the choice.

    Raises
    ------
    GraphStructureError
        If the graph is disconnected (``lambda_2 = 0`` there; order the
        components separately — see :mod:`repro.core.components`).
    """
    return _fiedler_vector(graph, backend, probe)


def _fiedler_vector(graph: Graph, backend: str = "auto",
                    probe: np.ndarray | None = None,
                    known_connected: bool = False) -> FiedlerResult:
    """:func:`fiedler_vector`; ``known_connected`` skips the connectivity
    check for a caller that has just labelled the graph's components
    (:class:`~repro.core.spectral.SpectralLPM`), so an order walks each
    graph once."""
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    n = graph.num_vertices
    if n < 2:
        raise InvalidParameterError(
            f"the Fiedler vector needs at least 2 vertices, got {n}"
        )
    if not known_connected and not is_connected(graph):
        raise GraphStructureError(
            "graph is disconnected: lambda_2 = 0 and the Fiedler vector "
            "is a component indicator; use per-component ordering instead"
        )
    probe = _checked_probe(probe, n)

    approximate = backend == "multilevel" or (
        backend == "auto" and n > backend_registry.MULTILEVEL_CUTOFF)
    if approximate:
        result = _multilevel_result(graph, probe,
                                    strict=backend == "multilevel")
        if result is not None:
            return result

    exact_backend = backend if backend != "auto" \
        else backend_registry.resolve_auto(n, min(4, n - 1))
    if approximate:
        # auto's approximate pair missed its quality check.
        backend_registry.count_fallback("multilevel", exact_backend)
    if exact_backend == "dense":
        return dense_fiedler_results(graph, np.arange(n)[None, :],
                                     probe)[1][0]
    # The window solve and every closure certificate below solve the
    # same Laplacian: on the scipy backend they share one LU factor,
    # released when this call returns.
    with backend_registry.shared_factorization():
        return _exact_fiedler_result(graph, exact_backend, probe)


def solves_dense(n: int, backend: str) -> bool:
    """Whether :func:`fiedler_vector` solves a connected ``n``-vertex
    graph under ``backend`` with :func:`dense_fiedler_results` and
    tries nothing first."""
    return backend == "dense" or (
        backend == "auto" and n <= backend_registry.MULTILEVEL_CUTOFF
        and backend_registry.resolve_auto(n, min(4, n - 1)) == "dense")


def _checked_probe(probe: np.ndarray | None, n: int) -> np.ndarray:
    """The canonicalization probe for an ``n``-vertex solve."""
    if probe is None:
        return deterministic_start(n)
    probe = np.asarray(probe, dtype=np.float64)
    if probe.shape != (n,):
        raise InvalidParameterError(
            f"probe must have shape ({n},), got {probe.shape}"
        )
    return probe


def _group_tol(lambda2: float | np.ndarray) -> float | np.ndarray:
    """Width of the ``lambda_2`` group: eigenvalues up to
    ``lambda_2 + _group_tol`` share its eigenspace (elementwise over an
    array of ``lambda_2`` values)."""
    return np.maximum(FIEDLER_GROUP_RTOL * np.maximum(np.abs(lambda2), 1.0),
                      1e-10)


def _exact_fiedler_result(graph: Graph, exact_backend: str,
                          probe: np.ndarray) -> FiedlerResult:
    """The canonical Fiedler pair from an iterative backend (``lanczos``,
    ``lobpcg`` or ``scipy``)."""
    n = graph.num_vertices
    lap = laplacian(graph)
    ones = np.ones(n) / np.sqrt(n)
    # With the constant direction deflated, the bottom of the spectrum is
    # lambda_2 <= lambda_3 <= ...; the lambda_2 group is closed once a
    # computed eigenvalue rises above it.
    k = min(n - 1, 4)
    values, vectors = smallest_eigenpairs(lap, k, backend=exact_backend,
                                          deflate=[ones])
    lambda2 = float(values[0])
    tol = _group_tol(lambda2)
    # Window entirely inside the group means multiplicity >= k (stars,
    # complete graphs).  Double the window until a value above the group
    # appears: closing a high-multiplicity group one deflated solve at a
    # time would cost O(multiplicity) Krylov runs — doubling reaches the
    # (effectively dense) full-window solve in O(log n) steps instead.
    # In the common case the first window already contains an
    # above-group value and this loop never runs.
    while (values <= lambda2 + tol).all() and k < n - 1:
        k = min(n - 1, 2 * k)
        values, vectors = smallest_eigenpairs(
            lap, k, backend=exact_backend, deflate=[ones])
        lambda2 = float(values[0])
        tol = _group_tol(lambda2)
    group = np.flatnonzero(values <= lambda2 + tol)
    basis = vectors[:, group]
    # Guard against solver drift: project the eigenspace basis against the
    # constant direction once more, then orthonormalize.
    basis = basis - ones[:, None] * (ones @ basis)
    basis, _ = np.linalg.qr(basis)
    # Close the eigenspace by explicit deflation, reusing every
    # already-converged pair: keep asking for the smallest remaining
    # eigenpair with everything found so far projected out, until the
    # answer rises above lambda_2.  This covers both an unclosed window
    # (all computed values still inside the group) and degenerate copies
    # a single Krylov sequence cannot see.  The window solve's
    # above-group Ritz vectors warm-start each certificate: they already
    # converged to the pairs the deflated solve is about to look for, so
    # a supporting backend (lobpcg) certifies in a handful of iterations
    # instead of a cold run.
    extra_seen: list[float] = []
    above = np.flatnonzero(values > lambda2 + tol)
    guess = vectors[:, above] if above.size else None
    while basis.shape[1] < n - 1:
        deflate = [ones] + [basis[:, j] for j in range(basis.shape[1])]
        extra_values, extra_vectors = smallest_eigenpairs(
            lap, 1, backend=exact_backend, deflate=deflate, x0=guess)
        extra_seen.append(float(extra_values[0]))
        if extra_values[0] > lambda2 + tol:
            break
        fresh = extra_vectors[:, 0]
        for d in deflate:
            fresh = fresh - (d @ fresh) * d
        norm = np.linalg.norm(fresh)
        if norm < 1e-8:
            break
        basis = np.column_stack([basis, fresh / norm])
    vector = canonical_in_span(basis, probe)
    # Fold the closure loop's finds into the diagnostic spectrum so the
    # field always shows the first value above the lambda_2 group (the
    # spectral gap) even when the initial window closed entirely inside
    # the group.
    eigenvalues = np.sort(np.concatenate([values, np.array(extra_seen)])) \
        if extra_seen else values.copy()
    return FiedlerResult(
        value=lambda2,
        vector=vector,
        multiplicity=basis.shape[1],
        eigenvalues=eigenvalues,
        backend=exact_backend,
    )


def dense_fiedler_results(graph: Graph, members: np.ndarray,
                          probe: np.ndarray | None = None
                          ) -> Tuple[np.ndarray, List[FiedlerResult]]:
    """The canonical Fiedler pairs of same-size components, solved dense
    in stacks.

    Row ``b`` of the ``(count, n)`` array ``members`` lists one
    connected component of ``graph`` (``n >= 3`` vertices, ascending; the
    whole graph when connected).  Returns ``(vectors, results)``:
    ``results[b]`` is component ``b``'s :class:`FiedlerResult`, exactly
    :func:`fiedler_vector`'s dense pair of the component alone with
    ``probe`` (default :func:`~repro.linalg.power.deterministic_start`),
    and row ``b`` of the ``(count, n)`` array ``vectors`` is its vector.

    One :func:`numpy.linalg.eigh` solves a stack of up to
    :data:`DENSE_STACK_ENTRIES` entries and counts as one eigensolve
    (:func:`~repro.linalg.backends.counted_solve`, backend ``"dense"``,
    span attribute ``batch``: the stack's matrix count).
    """
    count, n = members.shape
    probe = _checked_probe(probe, n)
    per_stack = max(1, DENSE_STACK_ENTRIES // (n * n))
    stacks = [_dense_stack(graph, members[start:start + per_stack], probe)
              for start in range(0, count, per_stack)]
    if len(stacks) == 1:
        return stacks[0]
    return (np.concatenate([vectors for vectors, _ in stacks]),
            [result for _, results in stacks for result in results])


def _dense_stack(graph: Graph, members: np.ndarray, probe: np.ndarray
                 ) -> Tuple[np.ndarray, List[FiedlerResult]]:
    """:func:`dense_fiedler_results` for one stack.

    Each step repeats, matrix by matrix, the arithmetic of one dense
    solve of the component alone (``smallest_eigenpairs`` on the dense
    backend, then ``canonical_in_span``), so every pair keeps its bits:
    the constant vector deflated by a shift past the Gershgorin bound, the
    window of 4 nontrivial eigenvalues doubled while inside the
    :data:`FIEDLER_GROUP_RTOL` group, and
    :func:`~repro.linalg.operators.canonical_in_span`'s two QRs and
    probe projection, here stacked for every simple ``lambda_2``.  A
    degenerate group, or a probe orthogonal to the pair, takes
    :func:`~repro.linalg.operators.canonical_in_span` itself.
    """
    count, n = members.shape
    lap = dense_laplacian_stack(graph, members)
    ones = np.ones(n) / np.sqrt(n)
    with counted_solve("dense", n, min(n - 1, 4)) as stats:
        if stats is not None:
            stats["batch"] = count
        # CSRMatrix.gershgorin_upper_bound per matrix: a sequential sum
        # over the dense row adds each entry in CSR order (the zeros
        # between them add nothing), as bincount sums a CSR row.
        diagonal = np.diagonal(lap, axis1=1, axis2=2)
        magnitude = np.cumsum(np.abs(lap), axis=2)[:, :, -1]
        shift = (diagonal + (magnitude - diagonal)).max(axis=1) + 1.0
        values, vectors = np.linalg.eigh(
            lap + shift[:, None, None] * np.outer(ones, ones))
    # Ascending, so the lambda_2 group is a prefix of the n - 1
    # nontrivial values (the deflated one is last).
    lambda2 = values[:, 0]
    inside = (values[:, :n - 1]
              <= (lambda2 + _group_tol(lambda2))[:, None]).sum(axis=1)
    window = np.full(count, min(n - 1, 4))
    grow = (inside >= window) & (window < n - 1)
    while grow.any():
        window[grow] = np.minimum(n - 1, 2 * window[grow])
        grow = (inside >= window) & (window < n - 1)
    multiplicity = np.minimum(inside, window)

    out = np.empty((count, n))
    degenerate = np.flatnonzero(multiplicity > 1).tolist()
    simple = np.flatnonzero(multiplicity == 1)
    if simple.size:
        # Stacked matmuls run, row by row, the BLAS dot of the
        # one-matrix path (norms included), so each row keeps its bits;
        # an axis-wise norm, a pairwise sum, would not.
        basis = np.ascontiguousarray(vectors[simple, :, :1])
        basis = basis - ones[:, None] * np.matmul(ones, basis)[:, None, :]
        basis = np.linalg.qr(basis)[0]
        q = np.linalg.qr(basis)[0]
        projected = np.matmul(
            q, np.matmul(q.transpose(0, 2, 1), probe)[:, :, None])[:, :, 0]
        norms = np.sqrt(np.matmul(projected[:, None, :],
                                  projected[:, :, None]))[:, 0, 0]
        found = norms >= 1e-8
        out[simple[found]] = projected[found] / norms[found, None]
        for row in np.flatnonzero(~found).tolist():
            out[simple[row]] = canonical_in_span(basis[row], probe)
    for b in degenerate:
        # A fancy-index copy, laid out as the one-matrix path's was.
        basis = vectors[b][:, np.arange(multiplicity[b])]
        basis = basis - ones[:, None] * (ones @ basis)
        out[b] = canonical_in_span(np.linalg.qr(basis)[0], probe)
    results = [
        FiedlerResult(value=value, vector=out[b], multiplicity=group,
                      eigenvalues=values[b, :width].copy(), backend="dense")
        for b, (value, group, width) in enumerate(zip(
            lambda2.tolist(), multiplicity.tolist(), window.tolist()))]
    return out, results


def grid_fiedler_result(shape: Sequence[int], weights: Sequence[float],
                        graph: Graph,
                        probe: np.ndarray) -> FiedlerResult | None:
    """The canonical Fiedler pair of a full grid, in closed form.

    The orthogonal radius-1 graph of a grid is the Cartesian product of
    one path per axis, every edge along axis ``a`` weighing
    ``weights[a]`` (axes of side 1 have no edges, so their weights do
    not matter).  Axis ``a`` of side ``n_a`` contributes the eigenvalues
    ``4 w_a sin^2(pi k / (2 n_a))`` with eigenvectors
    ``cos(pi k (x + 1/2) / n_a)``, ``0 <= k < n_a``; the grid's
    eigenpairs pick one ``k`` per axis, sum the eigenvalues and
    multiply the cosines.

    The answer is :func:`fiedler_vector`'s, not an approximation of it:
    the same window (4 smallest nontrivial eigenvalues, doubled while
    inside the group), the same :data:`FIEDLER_GROUP_RTOL` grouping of
    ``lambda_2``, and :func:`~repro.linalg.operators.canonical_in_span`
    of the group's cosines with the same ``probe``.

    One Laplacian matvec against ``graph``, the graph being ordered,
    certifies the pair.  It is applied to the canonical vector plus a
    fixed generic vector (:func:`~repro.linalg.power.deterministic_start`)
    and must give the group's image of the first plus the product's
    Laplacian applied to the second.  The first term shows that the
    cosines are the graph's eigenvectors; the second, that ``graph`` is
    the product, so an edge missing, extra or reweighted anywhere
    shows, even between cells the Fiedler vector ties.  Above
    :data:`CLOSED_FORM_RESIDUAL_RTOL`, ``None`` tells the caller to
    solve ``graph`` numerically.  Counts as one eigensolve with backend
    ``"closed-form"`` (:func:`~repro.linalg.backends.counted_solve`).
    """
    shape = tuple(int(side) for side in shape)
    n = int(np.prod(shape))
    if n < 2:
        raise InvalidParameterError(
            f"the Fiedler vector needs at least 2 vertices, got {n}"
        )
    if graph.num_vertices != n:
        raise InvalidParameterError(
            f"graph has {graph.num_vertices} vertices, the grid {n}"
        )
    probe = _checked_probe(probe, n)
    k = min(n - 1, 4)
    with counted_solve("closed-form", n, k) as stats:
        values, modes = _product_spectrum(shape, weights, k + 1)
        lambda2 = float(values[1])
        tol = _group_tol(lambda2)
        while (values[1:] <= lambda2 + tol).all() and k < n - 1:
            k = min(n - 1, 2 * k)
            values, modes = _product_spectrum(shape, weights, k + 1)
        group = np.flatnonzero(values <= lambda2 + tol)[1:]
        basis = np.column_stack([_product_cosine(shape, modes[j])
                                 for j in group])
        vector = canonical_in_span(basis, probe)
        witness = deterministic_start(n)
        expected = (basis @ (values[group] * (basis.T @ vector))
                    + _product_laplacian_matvec(shape, weights, witness))
        residual = float(np.linalg.norm(
            laplacian_matvec(graph, vector + witness) - expected))
        scale = 4.0 * sum(float(w) for w, side in zip(weights, shape)
                          if side > 1)
        if stats is not None:
            stats["residual"] = residual
    if not residual <= CLOSED_FORM_RESIDUAL_RTOL * scale:
        return None
    return FiedlerResult(
        value=lambda2,
        vector=vector,
        multiplicity=len(group),
        eigenvalues=values[1:].copy(),
        backend="closed-form",
    )


def _product_spectrum(shape: tuple, weights: Sequence[float],
                      count: int) -> tuple:
    """The ``count`` smallest eigenvalues of a product of weighted
    paths, ascending from the trivial 0, with their per-axis
    frequencies ``(count, ndim)``.

    Folds in one axis at a time and keeps the ``count`` smallest
    partial sums: every term is nonnegative, so a sum among the
    ``count`` smallest is built from partial sums that were.
    """
    values = np.zeros(1)
    modes = np.zeros((1, 0), dtype=np.int64)
    for side, weight in zip(shape, weights):
        ks = np.arange(min(side, count))
        mu = 4.0 * float(weight) * np.sin(np.pi * ks / (2 * side)) ** 2
        total = (values[:, None] + mu[None, :]).ravel()
        keep = np.argsort(total, kind="stable")[:count]
        modes = np.column_stack([np.repeat(modes, len(ks), axis=0)[keep],
                                 np.tile(ks, len(values))[keep]])
        values = total[keep]
    return values, modes


def _product_laplacian_matvec(shape: tuple, weights: Sequence[float],
                              x: np.ndarray) -> np.ndarray:
    """``L x`` for the product of weighted paths, one difference per
    axis: each edge ``(c, c + e_a)`` adds ``w_a (x[c] - x[c + e_a])``
    to row ``c`` and its negative to row ``c + e_a``."""
    cube = x.reshape(shape)
    out = np.zeros_like(cube)
    for axis, (side, weight) in enumerate(zip(shape, weights)):
        if side < 2:
            continue
        flow = float(weight) * np.diff(cube, axis=axis)
        lower = [slice(None)] * len(shape)
        upper = [slice(None)] * len(shape)
        lower[axis], upper[axis] = slice(None, -1), slice(1, None)
        out[tuple(lower)] -= flow
        out[tuple(upper)] += flow
    return out.ravel()


def _product_cosine(shape: tuple, mode: np.ndarray) -> np.ndarray:
    """The unit eigenvector of frequencies ``mode``, over row-major
    flat cell indices."""
    column = np.ones(1)
    for side, k in zip(shape, mode):
        scale = np.sqrt((2.0 if k else 1.0) / side)
        column = np.kron(column, scale * np.cos(
            np.pi * k * (np.arange(side) + 0.5) / side))
    return column


def fiedler_value(graph: Graph, backend: str = "auto") -> float:
    """The algebraic connectivity ``lambda_2`` alone."""
    return fiedler_vector(graph, backend=backend).value
