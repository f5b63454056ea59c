"""Tests for pattern generators and partition statistics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import grid_road_network, erdos_renyi
from repro.partition import GraphPartition, HashPartitioner, MetisLikePartitioner
from partition_stats import partition_report, sme_share
from repro.query import paper_query
from repro.query.pattern_gen import (
    book,
    complete_bipartite,
    cycle,
    random_connected_pattern,
    wheel,
)
from repro.query.patterns import k33, square, triangle
from repro.query.isomorphism import are_isomorphic


class TestPatternGenerators:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 8),
        extra=st.integers(0, 6),
        seed=st.integers(0, 1000),
    )
    def test_random_patterns_connected(self, n, extra, seed):
        p = random_connected_pattern(n, extra, seed)
        assert p.is_connected()
        assert p.num_vertices == n
        assert p.num_edges >= n - 1

    def test_random_pattern_deterministic(self):
        assert random_connected_pattern(6, 2, seed=9) == \
            random_connected_pattern(6, 2, seed=9)

    def test_cycle_matches_named(self):
        assert are_isomorphic(cycle(4), square())
        assert are_isomorphic(cycle(3), triangle())

    def test_wheel_structure(self):
        w = wheel(4)
        assert w.num_vertices == 5
        assert w.degree(0) == 4
        assert w.max_clique_size() == 3

    def test_book_pages_are_triangles(self):
        b = book(3)
        assert b.num_vertices == 5
        for v in range(2, 5):
            assert b.has_edge(0, v) and b.has_edge(1, v)

    def test_complete_bipartite_matches_k33(self):
        assert are_isomorphic(complete_bipartite(3, 3), k33())

    @pytest.mark.parametrize("factory,arg", [
        (cycle, 2), (wheel, 2), (book, 0), (random_connected_pattern, 1),
    ])
    def test_invalid_sizes_rejected(self, factory, arg):
        with pytest.raises(ValueError):
            factory(arg)

    def test_generated_patterns_enumerable(self):
        """Random patterns run through the full engine stack."""
        from repro.cluster import Cluster
        from repro.core.rads import RADSEngine
        from repro.engines import SingleMachineEngine

        graph = erdos_renyi(50, 0.15, seed=3)
        pattern = random_connected_pattern(4, 2, seed=5)
        cluster = Cluster.create(graph, 3)
        expected = set(
            SingleMachineEngine().run(cluster.fresh_copy(), pattern).embeddings
        )
        got = RADSEngine().run(cluster.fresh_copy(), pattern)
        assert set(got.embeddings) == expected


class TestPartitionStats:
    @pytest.fixture(scope="class")
    def grid(self):
        return grid_road_network(16, 16, extra_edge_prob=0.05, seed=5)

    def test_report_fields(self, grid):
        owner = MetisLikePartitioner(seed=0).assign(grid, 4)
        report = partition_report(GraphPartition(grid, owner))
        assert report.num_machines == 4
        assert 0 <= report.edge_cut_fraction <= 1
        assert 0 <= report.border_fraction <= 1
        assert "machines" in report.describe()

    def test_metis_beats_hash_on_every_measure(self, grid):
        metis = partition_report(
            GraphPartition(grid, MetisLikePartitioner(seed=0).assign(grid, 4))
        )
        hashed = partition_report(
            GraphPartition(grid, HashPartitioner(seed=0).assign(grid, 4))
        )
        assert metis.edge_cut < hashed.edge_cut
        assert metis.border_fraction < hashed.border_fraction
        assert metis.mean_border_distance > hashed.mean_border_distance

    def test_sme_share_higher_with_locality(self, grid):
        pattern = paper_query("q1")
        metis = sme_share(
            GraphPartition(grid, MetisLikePartitioner(seed=0).assign(grid, 4)),
            pattern,
        )
        hashed = sme_share(
            GraphPartition(grid, HashPartitioner(seed=0).assign(grid, 4)),
            pattern,
        )
        assert metis > hashed

    def test_sme_share_single_machine_is_total(self, grid):
        partition = GraphPartition(
            grid, MetisLikePartitioner().assign(grid, 1)
        )
        assert sme_share(partition, paper_query("q4")) == 1.0
