"""Tests for the spectral mapping variants in the registry."""

import pytest

from repro.geometry import Grid
from repro.graph import grid_graph
from repro.api import make_mapping
from repro.mapping import MAPPING_NAMES
from repro.metrics import two_sum


def test_registry_includes_all_spectral_variants():
    # A multilevel order is the "spectral" family under
    # backend="multilevel", not a registry name of its own.
    assert "spectral" in MAPPING_NAMES
    assert "spectral-rb" in MAPPING_NAMES


@pytest.mark.parametrize("name", ["spectral-rb"])
def test_variants_produce_permutations(name):
    grid = Grid((6, 6))
    mapping = make_mapping(name, backend="dense")
    ranks = mapping.ranks_for_grid(grid)
    assert sorted(ranks) == list(range(36))
    assert mapping.name == name


def test_variant_quality_ordering():
    """On the quadratic objective: global ~ multilevel << bisection."""
    grid = Grid((8, 8))
    graph = grid_graph(grid)
    costs = {}
    for label, name, backend in (("spectral", "spectral", "dense"),
                                 ("multilevel", "spectral", "multilevel"),
                                 ("spectral-rb", "spectral-rb", "dense")):
        mapping = make_mapping(name, backend=backend)
        costs[label] = two_sum(graph, mapping.order_for_grid(grid))
    assert costs["multilevel"] <= 1.5 * costs["spectral"]
    assert costs["spectral-rb"] > 2.0 * costs["spectral"]
