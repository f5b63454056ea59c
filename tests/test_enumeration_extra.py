"""Additional enumeration edge cases and failure-injection tests."""

import numpy as np
import pytest

from repro.enumeration import (
    BacktrackingEnumerator,
    EnumerationStats,
    MatchingTables,
    block,
    compute_matching_order,
    enumerate_embeddings,
)
from repro.enumeration.labeled import LabeledPattern, labeled_embeddings
from repro.graph import Graph, LabeledGraph, erdos_renyi
from repro.query import Pattern
from repro.query.patterns import clique, path, star, triangle


class TestEdgeCases:
    def test_empty_graph(self):
        g = Graph.from_edges(5, [])
        assert enumerate_embeddings(g.neighbors, g.vertices(), triangle()) == []

    def test_graph_smaller_than_pattern(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert enumerate_embeddings(g.neighbors, g.vertices(), clique(4)) == []

    def test_pattern_equals_graph(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        embs = enumerate_embeddings(g.neighbors, g.vertices(), triangle())
        assert len(embs) == 6  # 3! automorphic images without breaking

    def test_single_edge_pattern(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        embs = enumerate_embeddings(g.neighbors, g.vertices(), path(2))
        assert len(embs) == 4  # each edge in both directions

    def test_isolated_vertices_never_matched(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2)])
        for emb in enumerate_embeddings(g.neighbors, g.vertices(), triangle()):
            assert set(emb) <= {0, 1, 2}

    def test_star_center_degree_filter(self):
        # star4's centre requires degree >= 4.
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        embs = enumerate_embeddings(g.neighbors, g.vertices(), star(4))
        assert all(emb[0] == 0 for emb in embs)
        assert len(embs) == 24  # 4! leaf orderings

    def test_duplicate_start_candidates(self):
        g = erdos_renyi(20, 0.3, seed=1)
        once = enumerate_embeddings(g.neighbors, [5], triangle())
        twice = enumerate_embeddings(g.neighbors, [5, 5], triangle())
        assert len(twice) == 2 * len(once)  # caller owns start multiplicity


class TestAdversarialPatterns:
    def test_disconnected_pattern_rejected(self):
        bad = Pattern(4, [(0, 1), (2, 3)])
        g = erdos_renyi(10, 0.5, seed=2)
        with pytest.raises(ValueError):
            enumerate_embeddings(g.neighbors, g.vertices(), bad)

    def test_a_callable_adjacency_is_a_type_error(self):
        g = erdos_renyi(25, 0.2, seed=3)
        with pytest.raises(TypeError, match="adjacency must be a Graph"):
            enumerate_embeddings(lambda v: g.neighbors(v), g.vertices(), triangle())
        with pytest.raises(TypeError, match="allowed must be a boolean"):
            enumerate_embeddings(g, g.vertices(), triangle(), allowed=lambda v: True)
        # A bound ``neighbors`` stands for its graph.
        assert enumerate_embeddings(
            g.neighbors, g.vertices(), triangle()
        ) == enumerate_embeddings(g, g.vertices(), triangle())

    def test_starts_are_charged_past_allowed_only(self):
        g = erdos_renyi(20, 0.3, seed=4)
        stats = EnumerationStats()
        found = enumerate_embeddings(
            g, [3, 5, 8], path(1), stats=stats,
            allowed=np.arange(g.num_vertices) != 5,
        )
        assert found == [(3,), (8,)]
        assert stats.candidates_scanned == 2

    @pytest.mark.parametrize("bad", [-2, 30])
    def test_seed_ids_outside_the_graph_raise(self, bad):
        # Negative ids used to alias through numpy indexing (``indptr[-2]``
        # is vertex 28's range) and come back *inside* embeddings; ids past
        # the end died with a bare IndexError inside the kernel.
        g = erdos_renyi(30, 0.3, seed=4)
        enumerator = BacktrackingEnumerator(triangle(), g)
        tables = MatchingTables(triangle(), [], [enumerator.order])
        with pytest.raises(ValueError, match=f"vertex id {bad} outside"):
            list(enumerator.run([1, bad]))
        for seeds in ([[bad]], [[1, bad]], [[bad, 1], [2, 3]]):
            with pytest.raises(ValueError, match=f"vertex id {bad} outside"):
                tables.block(g, EnumerationStats(), np.array(seeds), None)

    def test_limit_zero(self):
        g = erdos_renyi(20, 0.3, seed=4)
        tables = MatchingTables(triangle(), [], [compute_matching_order(triangle())])
        seeds = np.array([[0]])
        assert list(tables.emit(g.neighbors, EnumerationStats(), seeds, limit=0)) == []


def _limited(g, pattern, limit=None, stats=None):
    """The kernel's ``limit``, reached where a caller sets it: a labeled
    run (one label everywhere, so every embedding matches)."""
    return labeled_embeddings(
        LabeledGraph(g, [0] * g.num_vertices),
        LabeledPattern(pattern, [0] * pattern.num_vertices),
        limit=limit, stats=stats,
    )


class TestLimit:
    """``limit`` keeps the first ``limit`` embeddings in DFS order."""

    def test_limit_zero_yields_nothing_even_when_the_first_start_matches(self):
        # The recursive loop checked the limit only after its first yield
        # and returned [(0, 1, 2)] here.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        stats = EnumerationStats()
        got = _limited(g, triangle(), limit=0, stats=stats)
        assert got == []
        assert stats.recursive_calls == 0 and stats.embeddings == 0

    @pytest.mark.parametrize("rows_per_block", [3, 2048])
    def test_limit_k_is_a_prefix_of_the_full_list(
        self, monkeypatch, rows_per_block
    ):
        monkeypatch.setattr(block, "ROWS_PER_BLOCK", rows_per_block)
        g = erdos_renyi(20, 0.3, seed=4)
        full = _limited(g, triangle())
        assert len(full) > 10
        for k in (1, 2, 7, len(full), len(full) + 5):
            stats = EnumerationStats()
            got = _limited(g, triangle(), limit=k, stats=stats)
            assert got == full[:k]
            assert stats.embeddings == len(got)

    def test_limit_stops_expanding_further_chunks(self, monkeypatch):
        monkeypatch.setattr(block, "ROWS_PER_BLOCK", 3)
        g = erdos_renyi(20, 0.3, seed=4)
        unlimited, limited = EnumerationStats(), EnumerationStats()
        _limited(g, triangle(), stats=unlimited)
        _limited(g, triangle(), limit=1, stats=limited)
        assert 0 < limited.total_ops < unlimited.total_ops

    def test_single_vertex_pattern_honours_limit_and_counts(self):
        g = erdos_renyi(12, 0.3, seed=2)
        stats = EnumerationStats()
        got = _limited(g, Pattern(1, []), limit=5, stats=stats)
        assert got == [(v,) for v in range(5)]
        assert stats.embeddings == 5

    def test_run_seeded_limit(self):
        g = erdos_renyi(20, 0.3, seed=4)
        order = compute_matching_order(triangle(), prefix=[0, 1])
        a, b = next(
            (a, b) for a, b in g.edges()
            if len(np.intersect1d(g.neighbors(a), g.neighbors(b))) >= 2
        )
        tables, seeds = MatchingTables(triangle(), [], [order]), np.array([[a, b]])

        def seeded(limit=None):
            blocks = tables.emit(g, EnumerationStats(), seeds, limit=limit)
            return [tuple(row) for _, rows in blocks for row in rows.tolist()]

        full = seeded()
        assert len(full) >= 2
        assert seeded(limit=0) == []
        assert seeded(limit=1) == full[:1]
