"""The paper's contribution: the Spectral LPM algorithm and its pieces."""

from repro.core.bisection import spectral_bisection_order
from repro.core.components import order_components
from repro.core.extensions import (
    access_pattern_weights,
    add_access_pattern,
    correlated_pairs_from_trace,
    weighted_radius_model,
)
from repro.core.fiedler import FiedlerResult, fiedler_value, fiedler_vector
from repro.core.multilevel import MultilevelEigenspace, multilevel_eigenspace
from repro.core.ordering import LinearOrder, order_by_values
from repro.core.refinement import (
    OBJECTIVES,
    RefinementResult,
    refine_order,
)
from repro.core.spectral import (
    SpectralConfig,
    SpectralLPM,
    snap_ties,
    spectral_order,
    symmetric_grid_probe,
)

__all__ = [
    "FiedlerResult",
    "LinearOrder",
    "MultilevelEigenspace",
    "OBJECTIVES",
    "RefinementResult",
    "multilevel_eigenspace",
    "refine_order",
    "SpectralConfig",
    "SpectralLPM",
    "access_pattern_weights",
    "add_access_pattern",
    "correlated_pairs_from_trace",
    "fiedler_value",
    "fiedler_vector",
    "order_by_values",
    "order_components",
    "snap_ties",
    "spectral_bisection_order",
    "spectral_order",
    "symmetric_grid_probe",
    "weighted_radius_model",
]
