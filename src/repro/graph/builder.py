"""Incremental construction of :class:`repro.graph.Graph`."""

from __future__ import annotations

from repro.graph.graph import Graph


class GraphBuilder:
    """Mutable edge accumulator that finalises into an immutable Graph.

    Example
    -------
    >>> b = GraphBuilder()
    >>> b.add_edge(0, 1)
    >>> b.add_edge(1, 2)
    >>> g = b.build()
    >>> g.num_edges
    2
    """

    def __init__(self, num_vertices: int = 0):
        self._num_vertices = num_vertices
        self._edges: list[tuple[int, int]] = []
        self._edge_set: set[tuple[int, int]] = set()

    def ensure_vertex(self, v: int) -> None:
        """Grow the vertex range so that ``v`` is a valid id."""
        if v >= self._num_vertices:
            self._num_vertices = v + 1

    def add_edge(self, u: int, v: int) -> bool:
        """Add an undirected edge; returns False if it already existed."""
        if u == v:
            raise ValueError("self loops are not allowed")
        key = (u, v) if u < v else (v, u)
        if key in self._edge_set:
            return False
        self._edge_set.add(key)
        self._edges.append(key)
        self.ensure_vertex(max(u, v))
        return True

    def build(self) -> Graph:
        """Finalise into an immutable :class:`Graph`."""
        return Graph.from_edges(self._num_vertices, self._edges)
