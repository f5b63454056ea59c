"""Graph substrate: CSR-backed undirected graphs, builders, IO, algorithms."""

from repro.graph.graph import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.io import load_adjacency_text, save_adjacency_text
from repro.graph.algorithms import (
    bfs_distances,
    connected_components,
    degeneracy_order,
    diameter_lower_bound,
    multi_source_bfs,
    triangle_count,
    triangles,
)
from repro.graph.cliques import enumerate_cliques, maximal_cliques
from repro.graph.labeled import (
    LabeledGraph,
    label_randomly,
)
from repro.graph.generators import (
    community_graph,
    erdos_renyi,
    grid_road_network,
    powerlaw_cluster,
    preferential_attachment,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "load_adjacency_text",
    "save_adjacency_text",
    "bfs_distances",
    "multi_source_bfs",
    "connected_components",
    "diameter_lower_bound",
    "degeneracy_order",
    "triangles",
    "triangle_count",
    "enumerate_cliques",
    "maximal_cliques",
    "LabeledGraph",
    "label_randomly",
    "grid_road_network",
    "erdos_renyi",
    "preferential_attachment",
    "powerlaw_cluster",
    "community_graph",
]
