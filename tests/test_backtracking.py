"""Tests for the generic backtracking enumerator (ground truth oracle)."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.enumeration import (
    BacktrackingEnumerator,
    EnumerationStats,
    compute_matching_order,
    enumerate_embeddings,
)
from repro.graph import Graph, erdos_renyi, triangle_count
from repro.query import Pattern, symmetry_breaking_constraints
from repro.query.patterns import PAPER_QUERIES, square, triangle


def brute_force(graph: Graph, pattern: Pattern) -> set[tuple[int, ...]]:
    """All embeddings by checking every injective vertex assignment."""
    result = set()
    for perm in permutations(range(graph.num_vertices), pattern.num_vertices):
        if all(graph.has_edge(perm[u], perm[v]) for u, v in pattern.edges()):
            result.add(perm)
    return result


class TestMatchingOrderHeuristic:
    def test_order_is_permutation(self):
        for p in PAPER_QUERIES.values():
            order = compute_matching_order(p)
            assert sorted(order) == list(p.vertices())

    def test_order_connectivity(self):
        for p in PAPER_QUERIES.values():
            order = compute_matching_order(p)
            for i in range(1, len(order)):
                assert p.adj(order[i]) & set(order[:i])

    def test_explicit_start(self):
        order = compute_matching_order(PAPER_QUERIES["q1"], start=3)
        assert order[0] == 3


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("pattern", [triangle(), square()])
    def test_small_graphs(self, pattern, seed):
        graph = erdos_renyi(9, 0.4, seed=seed)
        expected = brute_force(graph, pattern)
        got = enumerate_embeddings(
            graph.neighbors, graph.vertices(), pattern
        )
        assert set(got) == expected
        assert len(got) == len(expected)

    def test_triangle_count_matches(self):
        graph = erdos_renyi(50, 0.15, seed=3)
        cons = symmetry_breaking_constraints(triangle())
        got = enumerate_embeddings(
            graph.neighbors, graph.vertices(), triangle(), cons
        )
        assert len(got) == triangle_count(graph)


class TestEnumeratorFeatures:
    @pytest.fixture()
    def graph(self):
        return erdos_renyi(40, 0.15, seed=4)

    def test_allowed_predicate(self, graph):
        allowed = np.arange(graph.num_vertices) < 20
        got = enumerate_embeddings(
            graph, graph.vertices(), triangle(), allowed=allowed
        )
        assert got
        for emb in got:
            assert allowed[list(emb)].all()

    def test_limit(self, graph):
        got = enumerate_embeddings(
            graph.neighbors, graph.vertices(), triangle(), limit=5
        )
        assert len(got) == 5

    def test_start_candidates_restrict_first_vertex(self, graph):
        pattern = triangle()
        order = compute_matching_order(pattern)
        got = enumerate_embeddings(
            graph.neighbors, [0, 1, 2], pattern, order=order
        )
        for emb in got:
            assert emb[order[0]] in {0, 1, 2}

    def test_stats_populated(self, graph):
        stats = EnumerationStats()
        enumerate_embeddings(
            graph.neighbors, graph.vertices(), square(), stats=stats
        )
        assert stats.total_ops > 0
        assert stats.embeddings > 0

    def test_bad_order_rejected(self, graph):
        with pytest.raises(ValueError):
            BacktrackingEnumerator(
                pattern=square(), adjacency=graph.neighbors, order=[0, 1]
            )

    def test_injectivity(self, graph):
        for emb in enumerate_embeddings(
            graph.neighbors, graph.vertices(), square()
        ):
            assert len(set(emb)) == len(emb)


class TestHypothesisInvariants:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100), prob=st.floats(0.05, 0.3))
    def test_embeddings_are_valid(self, seed, prob):
        graph = erdos_renyi(20, prob, seed=seed)
        pattern = PAPER_QUERIES["q2"]
        for emb in enumerate_embeddings(
            graph.neighbors, graph.vertices(), pattern
        ):
            assert len(set(emb)) == pattern.num_vertices
            for u, v in pattern.edges():
                assert graph.has_edge(emb[u], emb[v])
