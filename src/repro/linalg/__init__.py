"""Numerical linear algebra substrate: sparse matrices and eigensolvers."""

from repro.linalg.backends import (
    BACKENDS,
    DEFAULT_SOLVER_TOL,
    DENSE_CUTOFF,
    LOBPCG_CUTOFF,
    MULTILEVEL_CUTOFF,
    MULTILEVEL_QUALITY_RTOL,
    multilevel_preconditioner_for,
    scipy_available,
    smallest_eigenpairs,
    solver_invocations,
)
from repro.linalg.lanczos import (
    LanczosResult,
    lanczos_symmetric,
    smallest_eigenpairs_shifted,
)
from repro.linalg.lobpcg import (
    LOBPCGResult,
    lobpcg_smallest,
    smallest_eigenpairs_lobpcg,
)
from repro.linalg.operators import (
    canonical_in_span,
    deflation_matrix,
    orthonormalize_block,
)
from repro.linalg.power import deterministic_start
from repro.linalg.sparse import CSRMatrix

__all__ = [
    "BACKENDS",
    "CSRMatrix",
    "DEFAULT_SOLVER_TOL",
    "DENSE_CUTOFF",
    "LOBPCGResult",
    "LOBPCG_CUTOFF",
    "LanczosResult",
    "MULTILEVEL_CUTOFF",
    "MULTILEVEL_QUALITY_RTOL",
    "canonical_in_span",
    "deflation_matrix",
    "deterministic_start",
    "lanczos_symmetric",
    "lobpcg_smallest",
    "multilevel_preconditioner_for",
    "orthonormalize_block",
    "scipy_available",
    "smallest_eigenpairs",
    "smallest_eigenpairs_lobpcg",
    "smallest_eigenpairs_shifted",
    "solver_invocations",
]
