"""Graph substrate: CSR graphs, grid builders, Laplacians, traversal."""

from repro.graph.adjacency import DUPLICATE_POLICIES, Graph
from repro.graph.coarsening import (
    CoarseningLevel,
    coarsen,
    coarsen_hierarchy,
    contract,
    heavy_edge_matching,
    matching_invocations,
)
from repro.graph.builders import (
    GridTopology,
    complete_graph,
    cycle_graph,
    grid_graph,
    grid_graph_from_topology,
    grid_graph_topology,
    induced_grid_graph,
    knn_graph,
    path_graph,
    radius_graph,
    star_graph,
)
from repro.graph.laplacian import (
    graph_from_laplacian,
    laplacian,
    laplacian_dense,
    normalized_laplacian_dense,
    quadratic_form,
    rayleigh_quotient,
)
from repro.graph.traversal import (
    component_vertex_lists,
    connected_components,
    is_connected,
)
from repro.graph.weights import (
    gaussian,
    inverse_euclidean,
    inverse_manhattan,
    unit_weight,
    weight_function,
    weight_names,
)

__all__ = [
    "CoarseningLevel",
    "DUPLICATE_POLICIES",
    "Graph",
    "GridTopology",
    "coarsen",
    "coarsen_hierarchy",
    "contract",
    "heavy_edge_matching",
    "matching_invocations",
    "complete_graph",
    "component_vertex_lists",
    "connected_components",
    "cycle_graph",
    "gaussian",
    "grid_graph",
    "grid_graph_from_topology",
    "grid_graph_topology",
    "induced_grid_graph",
    "inverse_euclidean",
    "inverse_manhattan",
    "is_connected",
    "knn_graph",
    "graph_from_laplacian",
    "laplacian",
    "laplacian_dense",
    "normalized_laplacian_dense",
    "path_graph",
    "quadratic_form",
    "radius_graph",
    "rayleigh_quotient",
    "star_graph",
    "unit_weight",
    "weight_function",
    "weight_names",
]
