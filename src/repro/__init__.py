"""repro — Spectral LPM, reproduced.

A from-scratch implementation of *"Spectral LPM: An Optimal
Locality-Preserving Mapping using the Spectral (not Fractal) Order"*
(Mokbel, Aref & Grama, ICDE 2003): the spectral ordering algorithm, every
fractal and non-fractal baseline it compares against, the locality metrics
and query/storage substrates of its evaluation, and harnesses that
regenerate every figure.

Quick start::

    from repro import SpectralIndex

    index = SpectralIndex.build((8, 8))      # the paper's algorithm
    ranks = index.ranks                      # rank of every cell
    hilbert = index.ranks_for("hilbert")     # a fractal baseline
    hits = index.nn((3, 3), k=8)             # rank-window k-NN

The :mod:`repro.api` facade above is the front door; every underlying
layer (mappings, service, query engine, metrics) stays importable for
surgical use.  See the ``examples/`` directory and README for more.
"""

from repro._version import __version__
from repro.api import (
    JoinQuery,
    NNQuery,
    NNResult,
    RangeQuery,
    SpectralIndex,
    as_domain,
    make_mapping,
)
from repro.core import (
    FiedlerResult,
    LinearOrder,
    SpectralConfig,
    SpectralLPM,
    add_access_pattern,
    correlated_pairs_from_trace,
    fiedler_value,
    fiedler_vector,
    order_by_values,
    spectral_order,
    weighted_radius_model,
)
from repro.errors import (
    BackendUnavailableError,
    ConvergenceError,
    DimensionError,
    DomainError,
    GraphStructureError,
    InvalidParameterError,
    ReproError,
)
from repro.geometry import Box, Grid, PointSet
from repro.graph import Graph, grid_graph
from repro.mapping import (
    MAPPING_NAMES,
    PAPER_MAPPING_NAMES,
    CurveMapping,
    LocalityMapping,
    SpectralMapping,
    paper_mappings,
)
from repro.service import (
    ArtifactStore,
    OrderArtifact,
    OrderRequest,
    OrderingService,
)

__all__ = [
    "ArtifactStore",
    "BackendUnavailableError",
    "Box",
    "ConvergenceError",
    "CurveMapping",
    "DimensionError",
    "DomainError",
    "FiedlerResult",
    "Graph",
    "GraphStructureError",
    "Grid",
    "InvalidParameterError",
    "JoinQuery",
    "LinearOrder",
    "LocalityMapping",
    "MAPPING_NAMES",
    "NNQuery",
    "NNResult",
    "OrderArtifact",
    "OrderRequest",
    "OrderingService",
    "PAPER_MAPPING_NAMES",
    "PointSet",
    "RangeQuery",
    "ReproError",
    "SpectralConfig",
    "SpectralIndex",
    "SpectralLPM",
    "SpectralMapping",
    "__version__",
    "add_access_pattern",
    "as_domain",
    "correlated_pairs_from_trace",
    "fiedler_value",
    "fiedler_vector",
    "grid_graph",
    "make_mapping",
    "order_by_values",
    "paper_mappings",
    "spectral_order",
    "weighted_radius_model",
]
