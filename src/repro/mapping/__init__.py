"""Unified mapping interface over spectral and curve orders."""

from repro.mapping.interface import (
    MAPPING_NAMES,
    PAPER_MAPPING_NAMES,
    CurveMapping,
    ExplicitMapping,
    LocalityMapping,
    SpectralBisectionMapping,
    SpectralMapping,
    paper_mappings,
)

__all__ = [
    "MAPPING_NAMES",
    "PAPER_MAPPING_NAMES",
    "CurveMapping",
    "ExplicitMapping",
    "LocalityMapping",
    "SpectralBisectionMapping",
    "SpectralMapping",
    "paper_mappings",
]
