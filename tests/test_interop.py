"""Tests for NetworkX interoperability helpers."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import enumerate_embeddings
from repro.graph import erdos_renyi
from networkx_interop import (
    graph_from_networkx,
    graph_to_networkx,
    pattern_from_networkx,
    pattern_to_networkx,
)
from repro.query.patterns import triangle


class TestGraphConversion:
    def test_roundtrip_preserves_structure(self):
        graph = erdos_renyi(40, 0.15, seed=6)
        nx_graph = graph_to_networkx(graph)
        assert nx_graph.number_of_nodes() == graph.num_vertices
        assert nx_graph.number_of_edges() == graph.num_edges
        back, remap = graph_from_networkx(nx_graph)
        assert back == graph
        assert remap == {v: v for v in range(graph.num_vertices)}

    def test_arbitrary_node_names_densified(self):
        nx_graph = nx.Graph([("alice", "bob"), ("bob", "carol")])
        graph, remap = graph_from_networkx(nx_graph)
        assert graph.num_vertices == 3
        assert graph.num_edges == 2
        assert graph.has_edge(remap["alice"], remap["bob"])
        assert not graph.has_edge(remap["alice"], remap["carol"])

    def test_self_loops_dropped(self):
        nx_graph = nx.Graph([(0, 0), (0, 1)])
        graph, _ = graph_from_networkx(nx_graph)
        assert graph.num_edges == 1

    def test_directed_rejected(self):
        with pytest.raises(ValueError):
            graph_from_networkx(nx.DiGraph([(0, 1)]))

    def test_nx_algorithms_agree(self):
        graph = erdos_renyi(60, 0.1, seed=9)
        nx_graph = graph_to_networkx(graph)
        from repro.graph import triangle_count

        assert (
            sum(nx.triangles(nx_graph).values()) // 3
            == triangle_count(graph)
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_roundtrip(self, seed):
        graph = erdos_renyi(25, 0.2, seed=seed)
        back, _ = graph_from_networkx(graph_to_networkx(graph))
        assert back == graph


class TestPatternConversion:
    def test_pattern_roundtrip(self):
        pattern = triangle()
        back, _ = pattern_from_networkx(
            pattern_to_networkx(pattern), name="triangle"
        )
        assert back == pattern
        assert back.name == "triangle"

    def test_disconnected_pattern_rejected(self):
        with pytest.raises(ValueError):
            pattern_from_networkx(nx.Graph([(0, 1), (2, 3)]))

    def test_enumeration_on_converted_pattern(self):
        """An nx-authored query runs through the standard enumerator."""
        nx_query = nx.cycle_graph(4)
        pattern, _ = pattern_from_networkx(nx_query, name="square-from-nx")
        data = erdos_renyi(30, 0.2, seed=12)
        found = enumerate_embeddings(
            data.neighbors, data.vertices(), pattern
        )
        # Cross-check with nx's subgraph isomorphism counting.
        matcher = nx.algorithms.isomorphism.GraphMatcher(
            graph_to_networkx(data), nx_query
        )
        expected = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
        assert len(found) == expected
