"""Tests for query patterns and the reconstructed paper query set."""

import pytest

from repro.query import CLIQUE_QUERIES, Pattern, named_patterns, paper_query
from repro.query.patterns import PAPER_QUERIES, CLIQUE_QUERIES, running_example


class TestPattern:
    def test_basic(self):
        p = Pattern(3, [(0, 1), (1, 2)])
        assert p.num_vertices == 3
        assert p.num_edges == 2
        assert p.degree(1) == 2
        assert p.adj(0) == {1}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Pattern(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Pattern(2, [(0, 2)])

    def test_connectivity(self):
        assert Pattern(3, [(0, 1), (1, 2)]).is_connected()
        assert not Pattern(4, [(0, 1), (2, 3)]).is_connected()

    def test_span(self):
        path = Pattern(4, [(0, 1), (1, 2), (2, 3)])
        assert path.span(0) == 3
        assert path.span(1) == 2
        assert path.diameter() == 3

    def test_max_clique(self):
        assert paper_query("q2").max_clique_size() == 3
        assert CLIQUE_QUERIES["cq1"].max_clique_size() == 4
        assert paper_query("q1").max_clique_size() == 2

    def test_relabel_preserves_structure(self):
        p = paper_query("q4")
        mapping = {u: (u + 1) % p.num_vertices for u in p.vertices()}
        q = p.relabel(mapping)
        assert q.num_edges == p.num_edges
        assert sorted(sorted((p.degree(u)) for u in p.vertices())) == sorted(
            sorted((q.degree(u)) for u in q.vertices())
        )

    def test_equality(self):
        a = Pattern(3, [(0, 1), (1, 2)])
        b = Pattern(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)


class TestPaperQueries:
    """Structural constraints recovered from the paper's Sec. 7 prose."""

    def test_all_connected(self):
        for name, p in {**PAPER_QUERIES, **CLIQUE_QUERIES}.items():
            assert p.is_connected(), name

    def test_triangle_queries(self):
        # q2, q4, q5 contain a triangle; q1, q3, q6, q7, q8 are triangle-free.
        for name in ("q2", "q4", "q5"):
            assert PAPER_QUERIES[name].max_clique_size() >= 3, name
        for name in ("q1", "q3", "q6", "q7", "q8"):
            assert PAPER_QUERIES[name].max_clique_size() == 2, name

    def test_q5_extends_q4_with_end_vertex(self):
        q4, q5 = PAPER_QUERIES["q4"], PAPER_QUERIES["q5"]
        assert q5.num_vertices == q4.num_vertices + 1
        assert q5.num_edges == q4.num_edges + 1
        assert q5.degree(5) == 1  # the end vertex u5

    def test_query_sizes_grow_to_six(self):
        assert PAPER_QUERIES["q1"].num_vertices == 4
        for name in ("q5", "q6", "q7", "q8"):
            assert PAPER_QUERIES[name].num_vertices == 6

    def test_clique_queries_have_cliques(self):
        for name, p in CLIQUE_QUERIES.items():
            assert p.max_clique_size() >= 3, name

    def test_q6_q7_not_isomorphic(self):
        """Both are 6-vertex 7-edge triangle-free, but distinct graphs."""
        from repro.engines import SingleMachineEngine
        from repro.cluster import Cluster
        from repro.graph import erdos_renyi

        g = erdos_renyi(40, 0.15, seed=9)
        counts = []
        for name in ("q6", "q7"):
            cluster = Cluster.create(g, 1)
            counts.append(
                SingleMachineEngine().run(cluster, PAPER_QUERIES[name]).embedding_count
            )
        assert counts[0] != counts[1]

    def test_running_example_matches_paper(self):
        p = running_example()
        assert p.num_vertices == 10
        assert p.num_edges == 14
        # Example 4's MLST-based plans have 3 units, i.e. c_P = 3.
        from repro.query.spanning import connected_domination_number

        assert connected_domination_number(p) == 3

    def test_named_patterns_registry(self):
        reg = named_patterns()
        assert "q1" in reg and "cq4" in reg and "triangle" in reg
        assert all(p.is_connected() for p in reg.values())
