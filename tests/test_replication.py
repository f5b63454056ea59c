"""Tests for the Fan et al. d-hop replication engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.engines import ReplicationEngine, SingleMachineEngine
from repro.graph import erdos_renyi, grid_road_network, powerlaw_cluster
from repro.query import named_patterns
from repro.query.patterns import path, triangle


def oracle(cluster, pattern):
    return set(
        SingleMachineEngine().run(cluster.fresh_copy(), pattern).embeddings
    )


class TestReplicationCorrectness:
    @pytest.mark.parametrize(
        "qname", ["q1", "q2", "q3", "q4", "q6", "q7", "q8", "cq1", "cq3"]
    )
    def test_agrees_with_oracle_on_er(self, er_cluster, qname):
        pattern = named_patterns()[qname]
        expected = oracle(er_cluster, pattern)
        result = ReplicationEngine().run(er_cluster.fresh_copy(), pattern)
        assert not result.failed
        assert set(result.embeddings) == expected
        assert result.embedding_count == len(expected)

    def test_grid_graph(self, grid_cluster):
        pattern = named_patterns()["q1"]
        expected = oracle(grid_cluster, pattern)
        result = ReplicationEngine().run(grid_cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected

    def test_counting_mode_matches(self, er_cluster):
        """Collecting only keeps the rows: the simulated run is the same."""
        pattern = named_patterns()["q2"]
        collected = ReplicationEngine().run(er_cluster.fresh_copy(), pattern)
        counted = ReplicationEngine().run(
            er_cluster.fresh_copy(), pattern, collect_embeddings=False
        )
        assert counted.embedding_count == collected.embedding_count
        assert counted.embeddings is None
        assert counted.makespan == collected.makespan
        assert counted.per_machine_time == collected.per_machine_time
        assert counted.peak_memory == collected.peak_memory
        assert counted.total_comm_bytes == collected.total_comm_bytes
        assert counted.counters == collected.counters
        assert counted.counters["enum_ops"] > 0

    def test_single_machine_no_replication(self, er_graph):
        cluster = Cluster.create(er_graph, 1)
        engine = ReplicationEngine()
        result = engine.run(cluster.fresh_copy(), triangle())
        assert engine.last_replicated_vertices == 0
        assert result.total_comm_bytes == 0
        assert set(result.embeddings) == oracle(cluster, triangle())

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), machines=st.integers(2, 6))
    def test_property_random_graphs(self, seed, machines):
        g = erdos_renyi(35, 0.18, seed=seed)
        cluster = Cluster.create(g, machines)
        pattern = named_patterns()["q2"]
        expected = oracle(cluster, pattern)
        result = ReplicationEngine().run(cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected


class TestReplicationVolume:
    def test_small_diameter_graph_replicates_heavily(self):
        """The paper: on small-diameter (social) graphs with a wide query,
        "the entire partition of the neighboring machine may have to be
        fetched"."""
        g = powerlaw_cluster(150, 4, seed=7)
        cluster = Cluster.create(g, 4)
        wide = path(4)  # diameter 3
        engine = ReplicationEngine()
        engine.run(cluster.fresh_copy(), wide)
        foreign_totals = [
            g.num_vertices - len(cluster.partition.machine(t).owned_vertices)
            for t in range(4)
        ]
        # Heavy replication: a large share of all foreign vertices is
        # copied somewhere.
        assert engine.last_replicated_vertices > 0.5 * sum(foreign_totals)

    def test_radius_grows_replication(self, er_cluster):
        """The radius is the query diameter: 1 for a triangle, 3 for P4."""
        narrow = ReplicationEngine()
        narrow.run(er_cluster.fresh_copy(), triangle())
        wide = ReplicationEngine()
        wide.run(er_cluster.fresh_copy(), path(4))
        assert wide.last_replicated_vertices >= narrow.last_replicated_vertices
        assert wide.last_replicated_bytes >= narrow.last_replicated_bytes

    def test_road_network_replicates_lightly(self):
        """Huge-diameter graphs keep the d-hop ball thin."""
        g = grid_road_network(20, 20, extra_edge_prob=0.05, seed=2)
        cluster = Cluster.create(g, 4)
        engine = ReplicationEngine()
        engine.run(cluster.fresh_copy(), triangle())
        assert engine.last_replicated_vertices < 0.5 * g.num_vertices

    def test_memory_charged_for_replicas(self, er_cluster):
        engine = ReplicationEngine()
        result = engine.run(er_cluster.fresh_copy(), named_patterns()["q3"])
        assert engine.last_replicated_bytes > 0
        assert result.peak_memory >= engine.last_replicated_bytes / er_cluster.num_machines


class TestReplicationMemory:
    def test_result_claims_fail_with_the_work_charged(self):
        """Under a 1 MiB cap the replicas fit but q4's results on a hub
        graph do not: the run fails at a result claim, and the failed
        result still carries the replication and the enumeration work."""
        g = powerlaw_cluster(200, 5, 0.3, seed=1)
        pattern = named_patterns()["q4"]
        uncapped = ReplicationEngine().run(Cluster.create(g, 4), pattern)
        assert not uncapped.failed and uncapped.peak_memory > 1 << 20
        result = ReplicationEngine().run(
            Cluster.create(g, 4, memory_capacity=1 << 20), pattern
        )
        assert result.failed and "OOM" in result.failure
        assert result.embedding_count == 0 and result.embeddings is None
        assert result.counters["replicated_bytes"] > 0
        assert 0 < result.counters["enum_ops"] <= uncapped.counters["enum_ops"]
        assert result.counters["result_bytes"] <= 1 << 20
