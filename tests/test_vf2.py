"""Tests for the VF2-style serial enumerator."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import EnumerationStats, enumerate_embeddings
from repro.graph import erdos_renyi
from repro.graph.graph import Graph
from repro.query import named_patterns
from repro.query.patterns import clique, path, star, triangle
from repro.query.symmetry import symmetry_breaking_constraints
from vf2 import VF2Enumerator, vf2_embeddings


def embeddings_on(graph, pattern, constraints=None):
    return vf2_embeddings(
        graph.neighbors, graph.vertices(), pattern, constraints=constraints
    )


class TestVF2Basics:
    def test_triangle_in_k3(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        found = embeddings_on(g, triangle())
        # 3! orderings without symmetry breaking.
        assert sorted(found) == sorted(
            [
                (0, 1, 2), (0, 2, 1), (1, 0, 2),
                (1, 2, 0), (2, 0, 1), (2, 1, 0),
            ]
        )

    def test_triangle_with_symmetry_breaking(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        pattern = triangle()
        constraints = symmetry_breaking_constraints(pattern)
        found = embeddings_on(g, pattern, constraints)
        assert len(found) == 1

    def test_no_match_in_triangle_free_graph(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert embeddings_on(g, triangle()) == []

    def test_path_pattern(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        found = embeddings_on(g, path(3))
        # Two directions of the single path.
        assert len(found) == 2

    def test_star_requires_degree(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        found = embeddings_on(g, star(3))
        # Only vertex 0 has degree 3; 3! leaf orderings.
        assert len(found) == 6
        assert all(emb[0] == 0 for emb in found)

    def test_limit_short_circuits(self):
        g = erdos_renyi(40, 0.3, seed=1)
        enumerator = VF2Enumerator(pattern=triangle(), adjacency=g.neighbors)
        found = list(islice(enumerator.run(g.vertices()), 5))
        assert len(found) == 5
        assert enumerator.stats.embeddings == 5  # stopped, not run out

    def test_allowed_predicate_restricts_all_positions(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        found = vf2_embeddings(
            g.neighbors,
            g.vertices(),
            triangle(),
            allowed=lambda v: v != 2,
        )
        assert found == []

    def test_single_vertex_pattern(self):
        from repro.query.pattern import Pattern

        g = Graph.from_edges(2, [(0, 1)])
        found = vf2_embeddings(g.neighbors, g.vertices(), Pattern(1, []))
        assert sorted(found) == [(0,), (1,)]

    def test_invalid_order_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            VF2Enumerator(
                pattern=triangle(), adjacency=g.neighbors, order=[0, 1]
            )

    def test_stats_populated(self):
        g = erdos_renyi(30, 0.2, seed=3)
        stats = EnumerationStats()
        vf2_embeddings(
            g.neighbors, g.vertices(), triangle(), stats=stats
        )
        assert stats.recursive_calls > 0
        assert stats.candidates_scanned > 0


class TestVF2AgreesWithBacktracking:
    @pytest.mark.parametrize(
        "qname", ["q1", "q2", "q3", "q4", "q6", "cq1", "cq3"]
    )
    def test_named_queries_on_er(self, er_graph, qname):
        pattern = named_patterns()[qname]
        constraints = symmetry_breaking_constraints(pattern)
        expected = enumerate_embeddings(
            er_graph.neighbors, er_graph.vertices(), pattern,
            constraints=constraints,
        )
        found = vf2_embeddings(
            er_graph.neighbors, er_graph.vertices(), pattern,
            constraints=constraints,
        )
        assert set(found) == set(expected)
        assert len(found) == len(expected)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(8, 30),
        k=st.integers(3, 4),
    )
    def test_cliques_on_random_graphs(self, seed, n, k):
        g = erdos_renyi(n, 0.35, seed=seed)
        pattern = clique(k)
        constraints = symmetry_breaking_constraints(pattern)
        expected = enumerate_embeddings(
            g.neighbors, g.vertices(), pattern, constraints=constraints
        )
        found = vf2_embeddings(
            g.neighbors, g.vertices(), pattern, constraints=constraints
        )
        assert set(found) == set(expected)
        assert len(found) == len(expected)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_symmetry_counting_identity(self, seed):
        """|constrained| * |Aut(P)| == |unconstrained| must hold for VF2."""
        from repro.query.symmetry import automorphisms

        g = erdos_renyi(25, 0.25, seed=seed)
        pattern = named_patterns()["q1"]
        aut = len(automorphisms(pattern))
        constrained = vf2_embeddings(
            g.neighbors, g.vertices(), pattern,
            constraints=symmetry_breaking_constraints(pattern),
        )
        unconstrained = vf2_embeddings(
            g.neighbors, g.vertices(), pattern
        )
        assert len(constrained) * aut == len(unconstrained)
