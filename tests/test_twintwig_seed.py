"""Unit tests for the TwinTwig / SEED decompositions and join machinery."""

import pytest

from repro.cluster import Cluster
from repro.engines.join_common import ConstraintChecker, DistributedJoinRunner, JoinUnit
from repro.engines.seed import _pattern_cliques, seed_decomposition
from repro.engines.twintwig import twintwig_decomposition
from repro.graph import erdos_renyi
from repro.query.patterns import PAPER_QUERIES, CLIQUE_QUERIES


ALL_QUERIES = {**PAPER_QUERIES, **CLIQUE_QUERIES}


class TestTwinTwigDecomposition:
    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_covers_all_edges_exactly_once(self, name):
        pattern = ALL_QUERIES[name]
        units = twintwig_decomposition(pattern)
        covered = [e for u in units for e in u.covered_edges]
        assert sorted(covered) == sorted(pattern.edges())

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_stars_have_at_most_two_edges(self, name):
        for unit in twintwig_decomposition(ALL_QUERIES[name]):
            assert len(unit.covered_edges) <= 2
            assert unit.kind == "star"

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_join_connectivity(self, name):
        units = twintwig_decomposition(ALL_QUERIES[name])
        placed = set(units[0].vertices)
        for unit in units[1:]:
            assert placed & set(unit.vertices), "disconnected join"
            placed |= set(unit.vertices)

    def test_star_edges_incident_to_pivot(self):
        for unit in twintwig_decomposition(ALL_QUERIES["q8"]):
            for e in unit.covered_edges:
                assert unit.pivot in e


class TestSEEDDecomposition:
    def test_pattern_cliques_k4(self):
        cliques = _pattern_cliques(CLIQUE_QUERIES["cq1"])
        sizes = sorted(len(c) for c in cliques)
        assert sizes == [3, 3, 3, 3, 4]

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_covers_all_edges_exactly_once(self, name):
        pattern = ALL_QUERIES[name]
        units = seed_decomposition(pattern)
        covered = [e for u in units for e in u.covered_edges]
        assert sorted(covered) == sorted(pattern.edges())

    def test_clique_units_on_clique_queries(self):
        units = seed_decomposition(CLIQUE_QUERIES["cq1"])
        assert units[0].kind == "clique"
        assert len(units[0].vertices) == 4

    def test_fewer_units_than_twintwig_on_triangle_queries(self):
        for name in ("q2", "q4", "cq1", "cq4"):
            pattern = ALL_QUERIES[name]
            assert len(seed_decomposition(pattern)) <= len(
                twintwig_decomposition(pattern)
            )

    def test_triangle_free_falls_back_to_stars(self):
        units = seed_decomposition(ALL_QUERIES["q1"])
        assert all(u.kind == "star" for u in units)


class TestConstraintChecker:
    def test_pairs_compiled_per_schema(self):
        pattern = ALL_QUERIES["q1"]
        checker = ConstraintChecker(pattern, [(0, 1), (1, 3)])
        pairs = checker.pairs((1, 3))
        assert pairs == [(0, 1)]  # only (1,3) is fully inside the schema

    def test_pairs_cached(self):
        checker = ConstraintChecker(ALL_QUERIES["q1"], [(0, 1)])
        assert checker.pairs((0, 1)) is checker.pairs((0, 1))


class TestJoinRunner:
    def test_star_instances_satisfy_star_edges(self):
        graph = erdos_renyi(40, 0.15, seed=8)
        cluster = Cluster.create(graph, 3)
        pattern = ALL_QUERIES["q1"]
        runner = DistributedJoinRunner(cluster, pattern, [])
        unit = JoinUnit((0, 1, 3), ((0, 1), (0, 3)), "star")
        for t in range(3):
            for inst in runner.star_instances(t, unit):
                centre, leaf1, leaf2 = inst
                assert graph.has_edge(centre, leaf1)
                assert graph.has_edge(centre, leaf2)
                assert leaf1 != leaf2

    def test_clique_instances_are_cliques(self):
        graph = erdos_renyi(40, 0.3, seed=9)
        cluster = Cluster.create(graph, 2)
        pattern = ALL_QUERIES["cq1"]
        runner = DistributedJoinRunner(cluster, pattern, [])
        unit = JoinUnit((0, 1, 2), ((0, 1), (0, 2), (1, 2)), "clique")
        for t in range(2):
            for a, b, c in runner.clique_instances(t, unit):
                assert graph.has_edge(a, b)
                assert graph.has_edge(a, c)
                assert graph.has_edge(b, c)

    def test_join_requires_shared_vertices(self):
        graph = erdos_renyi(20, 0.2, seed=10)
        cluster = Cluster.create(graph, 2)
        runner = DistributedJoinRunner(cluster, ALL_QUERIES["q1"], [])
        with pytest.raises(ValueError):
            runner.join_round(
                {0: [], 1: []}, (0, 1),
                {0: [], 1: []}, JoinUnit((2, 3), ((2, 3),), "star"),
            )


class TestCostOrientedDecomposition:
    def test_covers_all_edges(self):
        from repro.engines.twintwig import cost_oriented_decomposition

        for name in sorted(ALL_QUERIES):
            units = cost_oriented_decomposition(ALL_QUERIES[name], 8.0)
            covered = sorted(e for u in units for e in u.covered_edges)
            assert covered == sorted(ALL_QUERIES[name].edges()), name

    def test_units_are_small_stars(self):
        from repro.engines.twintwig import cost_oriented_decomposition

        for unit in cost_oriented_decomposition(ALL_QUERIES["q8"], 8.0):
            assert len(unit.covered_edges) <= 2

    def test_engine_correct(self):
        from repro.cluster import Cluster
        from repro.engines import SingleMachineEngine
        from repro.engines.twintwig import TwinTwigEngine

        graph = erdos_renyi(70, 0.12, seed=44)
        cluster = Cluster.create(graph, 3)
        pattern = ALL_QUERIES["q4"]
        expected = set(
            SingleMachineEngine().run(cluster.fresh_copy(), pattern).embeddings
        )
        result = TwinTwigEngine(cost_oriented=True).run(
            cluster.fresh_copy(), pattern
        )
        assert set(result.embeddings) == expected

    def test_cost_oriented_no_worse_on_powerlaw(self):
        from repro.cluster import Cluster
        from repro.engines.twintwig import TwinTwigEngine
        from repro.graph import powerlaw_cluster

        graph = powerlaw_cluster(200, 4, seed=45)
        cluster = Cluster.create(graph, 3)
        pattern = ALL_QUERIES["q5"]
        naive = TwinTwigEngine().run(
            cluster.fresh_copy(), pattern, collect_embeddings=False
        )
        smart = TwinTwigEngine(cost_oriented=True).run(
            cluster.fresh_copy(), pattern, collect_embeddings=False
        )
        assert smart.embedding_count == naive.embedding_count
        assert smart.peak_memory <= naive.peak_memory * 1.5
