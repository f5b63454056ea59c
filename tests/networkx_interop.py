"""NetworkX interoperability, kept beside its test (``test_interop.py``).

Graphs in `networkx` form convert both ways without copying more than the
edge list.  NetworkX is a dependency of this module only — the package
never imports it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.graph import Graph
from repro.query.pattern import Pattern

if TYPE_CHECKING:  # pragma: no cover
    import networkx


def graph_to_networkx(graph: Graph) -> "networkx.Graph":
    """Convert a :class:`repro.graph.Graph` to an undirected nx.Graph."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(graph.num_vertices))
    out.add_edges_from(graph.edges())
    return out


def graph_from_networkx(nx_graph: "networkx.Graph") -> tuple[Graph, dict]:
    """Convert an undirected nx.Graph to a :class:`Graph`.

    Node identifiers may be arbitrary hashables; they are densified to
    ``0..n-1``.  Returns the graph and the original-node -> vertex-id map.
    Self loops are dropped (the Graph type rejects them); directed graphs
    are rejected.
    """
    if nx_graph.is_directed():
        raise ValueError("expected an undirected networkx graph")
    nodes = _sorted_nodes(nx_graph)
    remap = {node: i for i, node in enumerate(nodes)}
    edges = [
        (remap[u], remap[v])
        for u, v in nx_graph.edges()
        if u != v
    ]
    return Graph.from_edges(len(nodes), edges), remap


def _sorted_nodes(nx_graph: "networkx.Graph") -> list:
    """Deterministic node order: natural sort, repr-sort as fallback
    (mixed-type node sets are not mutually comparable)."""
    nodes = list(nx_graph.nodes())
    try:
        return sorted(nodes)
    except TypeError:
        return sorted(nodes, key=repr)


def pattern_to_networkx(pattern: Pattern) -> "networkx.Graph":
    """Convert a query pattern to an nx.Graph (for drawing, inspection)."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(pattern.vertices())
    out.add_edges_from(pattern.edges())
    return out


def pattern_from_networkx(
    nx_graph: "networkx.Graph", name: str | None = None
) -> tuple[Pattern, dict]:
    """Convert an nx.Graph to a connected query :class:`Pattern`."""
    if nx_graph.is_directed():
        raise ValueError("expected an undirected networkx graph")
    nodes = _sorted_nodes(nx_graph)
    remap = {node: i for i, node in enumerate(nodes)}
    edges = [
        (remap[u], remap[v]) for u, v in nx_graph.edges() if u != v
    ]
    pattern = Pattern(len(nodes), edges, name=name)
    if not pattern.is_connected():
        raise ValueError("query patterns must be connected")
    return pattern, remap
