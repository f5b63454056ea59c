"""Unit tests for the Crystal baseline (core choice, clique index)."""

import pytest

from repro.cluster import Cluster
from repro.engines import SingleMachineEngine
from repro.engines.crystal import (
    CliqueIndex,
    CrystalEngine,
    choose_core,
    minimum_vertex_covers,
)
from repro.graph import community_graph, erdos_renyi, powerlaw_cluster
from repro.query.patterns import PAPER_QUERIES, CLIQUE_QUERIES


class TestVertexCovers:
    def test_square_covers(self):
        covers = minimum_vertex_covers(PAPER_QUERIES["q1"], 2)
        assert sorted(map(sorted, covers)) == [[0, 2], [1, 3]]

    def test_triangle_needs_two(self):
        from repro.query.patterns import triangle

        assert not minimum_vertex_covers(triangle(), 1)
        assert len(minimum_vertex_covers(triangle(), 2)) == 3


class TestChooseCore:
    def test_buds_are_independent_set(self):
        for name, pattern in {**PAPER_QUERIES, **CLIQUE_QUERIES}.items():
            core, buds = choose_core(pattern)
            for i, a in enumerate(buds):
                for b in buds[i + 1:]:
                    assert not pattern.has_edge(a, b), name

    def test_core_is_cover(self):
        for pattern in PAPER_QUERIES.values():
            core, _ = choose_core(pattern)
            for a, b in pattern.edges():
                assert a in core or b in core

    def test_clique_attachment_preferred_on_tailed_triangle(self):
        # q2 = triangle + tail: the chosen decomposition should give the
        # bud-on-a-triangle-edge shape Crystal exploits.
        core, buds = choose_core(PAPER_QUERIES["q2"])
        pattern = PAPER_QUERIES["q2"]
        clique_buds = [
            u for u in buds
            if len(pattern.adj(u) & core) >= 2
        ]
        assert clique_buds  # at least one bud rides the clique index


class TestCliqueIndex:
    @pytest.fixture(scope="class")
    def graph(self):
        return community_graph(8, 8, intra_prob=0.6, seed=5)

    def test_size2_is_edges(self, graph):
        index = CliqueIndex(graph, max_size=2)
        assert index.count(2) == graph.num_edges

    def test_counts_match_enumeration(self, graph):
        from repro.graph import enumerate_cliques

        index = CliqueIndex(graph, max_size=4)
        by_size = {3: 0, 4: 0}
        for c in enumerate_cliques(graph, 3, 4):
            by_size[len(c)] += 1
        assert index.count(3) == by_size[3]
        assert index.count(4) == by_size[4]

    def test_size_bytes_grows_with_max_size(self, graph):
        small = CliqueIndex(graph, max_size=2).size_bytes()
        large = CliqueIndex(graph, max_size=4).size_bytes()
        assert large > small

    def test_entry_cap(self, graph):
        index = CliqueIndex(graph, max_size=4, max_entries=10)
        assert index.count(3) + index.count(4) <= 12
        assert not index.complete
        assert CliqueIndex(graph, max_size=4).complete


class TestCrystalEngine:
    def test_prebuilt_index_reused(self):
        graph = erdos_renyi(60, 0.15, seed=6)
        index = CliqueIndex(graph, max_size=3)
        engine = CrystalEngine(index=index)
        cluster = Cluster.create(graph, 3)
        pattern = PAPER_QUERIES["q2"]
        expected = SingleMachineEngine().run(
            cluster.fresh_copy(), pattern
        ).embeddings
        result = engine.run(cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == set(expected)

    def test_truncated_index_is_not_read_as_all_cliques(self):
        """``max_entries`` stops construction early: the core's fast path
        would take the entries it holds for every clique and undercount."""
        graph = powerlaw_cluster(150, 5, 0.3, seed=3)
        cluster = Cluster.create(graph, 4)
        pattern = CLIQUE_QUERIES["cq1"]
        expected = SingleMachineEngine().run(
            cluster.fresh_copy(), pattern, collect_embeddings=False
        )
        index = CliqueIndex(graph, max_size=4, max_entries=10)
        result = CrystalEngine(index).run(
            cluster.fresh_copy(), pattern, collect_embeddings=False
        )
        assert not result.failed
        assert result.embedding_count == expected.embedding_count == 132

    def test_disk_time_charged_for_index(self):
        graph = community_graph(6, 8, intra_prob=0.6, seed=7)
        cluster = Cluster.create(graph, 2)
        result = CrystalEngine().run(cluster, CLIQUE_QUERIES["cq1"])
        assert result.makespan > 0

    def test_single_vertex_core(self):
        # A star query has a single-vertex cover.
        from repro.query.patterns import star

        graph = erdos_renyi(50, 0.1, seed=8)
        cluster = Cluster.create(graph, 2)
        pattern = star(3)
        expected = SingleMachineEngine().run(
            cluster.fresh_copy(), pattern
        ).embeddings
        result = CrystalEngine().run(cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == set(expected)
