"""Tests for the Afrati-Ullman single-round multiway join engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.engines import MultiwayJoinEngine, SingleMachineEngine, compute_shares
from repro.graph import erdos_renyi
from repro.query import named_patterns
from repro.query.patterns import path, triangle


def oracle(cluster, pattern):
    return set(
        SingleMachineEngine().run(cluster.fresh_copy(), pattern).embeddings
    )


class TestComputeShares:
    def test_product_bounded(self):
        for m in (1, 2, 4, 8, 10, 16):
            shares = compute_shares(triangle(), m)
            assert int(np.prod(shares)) <= m

    def test_triangle_shares_balanced(self):
        # The classic hypercube result: the triangle wants a cube-balanced
        # grid, so with m = 8 every vertex gets share 2.
        assert compute_shares(triangle(), 8) == (2, 2, 2)

    def test_path_uses_middle_vertex(self):
        # For a 2-edge path, hashing the middle vertex splits both
        # relations without replication; the optimum puts all share there.
        shares = compute_shares(path(3), 4)
        assert shares[1] == 4
        assert shares[0] == shares[2] == 1

    def test_single_reducer_degenerates(self):
        assert compute_shares(named_patterns()["q4"], 1) == (1,) * 5

    def test_invalid_reducer_count(self):
        with pytest.raises(ValueError):
            compute_shares(triangle(), 0)

    def test_length_matches_pattern(self):
        for name in ("q1", "q5", "q8"):
            pattern = named_patterns()[name]
            shares = compute_shares(pattern, 10)
            assert len(shares) == pattern.num_vertices


class TestMultiwayCorrectness:
    @pytest.mark.parametrize(
        "qname", ["q1", "q2", "q3", "q4", "q6", "q8", "cq1", "cq3"]
    )
    def test_agrees_with_oracle_on_er(self, er_cluster, qname):
        pattern = named_patterns()[qname]
        expected = oracle(er_cluster, pattern)
        result = MultiwayJoinEngine().run(er_cluster.fresh_copy(), pattern)
        assert not result.failed
        assert set(result.embeddings) == expected
        assert result.embedding_count == len(expected)

    def test_community_graph(self, community_graph_small):
        cluster = Cluster.create(community_graph_small, 5)
        pattern = named_patterns()["q5"]
        expected = oracle(cluster, pattern)
        result = MultiwayJoinEngine().run(cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected

    def test_counting_mode_matches(self, er_cluster):
        pattern = named_patterns()["q2"]
        collected = MultiwayJoinEngine().run(
            er_cluster.fresh_copy(), pattern
        )
        counted = MultiwayJoinEngine().run(
            er_cluster.fresh_copy(), pattern, collect_embeddings=False
        )
        assert counted.embedding_count == collected.embedding_count
        assert counted.embeddings is None

    def test_single_machine_cluster(self, er_graph):
        cluster = Cluster.create(er_graph, 1)
        pattern = triangle()
        expected = oracle(cluster, pattern)
        result = MultiwayJoinEngine().run(cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected
        # Everything local: nothing crosses the wire.
        assert result.total_comm_bytes == 0

    def test_explicit_share_vector(self, er_cluster):
        pattern = triangle()
        expected = oracle(er_cluster, pattern)
        engine = MultiwayJoinEngine(shares=(2, 2, 1))
        result = engine.run(er_cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected
        assert engine.last_shares == (2, 2, 1)

    def test_bad_share_vector_rejected(self, er_cluster):
        # A malformed share vector is a programming error, not a simulated
        # OOM, so it propagates instead of becoming a failed RunResult.
        engine = MultiwayJoinEngine(shares=(2, 2))
        with pytest.raises(ValueError):
            engine.run(er_cluster.fresh_copy(), triangle())

    @pytest.mark.parametrize("shares", [(0, 1, 1), (2, -1, 2)])
    def test_non_positive_share_rejected_at_construction(self, shares):
        with pytest.raises(ValueError, match="share vector entries must be positive"):
            MultiwayJoinEngine(shares=shares)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), machines=st.integers(2, 7))
    def test_property_triangles_random(self, seed, machines):
        g = erdos_renyi(40, 0.2, seed=seed)
        cluster = Cluster.create(g, machines)
        pattern = triangle()
        expected = oracle(cluster, pattern)
        result = MultiwayJoinEngine().run(cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected


class TestMultiwayCosts:
    def test_replication_grows_with_pattern_complexity(self, er_cluster):
        """The paper's criticism: complex patterns mean more duplication."""
        simple = MultiwayJoinEngine()
        simple.run(er_cluster.fresh_copy(), triangle())
        complex_ = MultiwayJoinEngine()
        complex_.run(er_cluster.fresh_copy(), named_patterns()["q8"])
        assert complex_.last_replicated_tuples > simple.last_replicated_tuples

    def test_communication_recorded(self, er_cluster):
        result = MultiwayJoinEngine().run(
            er_cluster.fresh_copy(), named_patterns()["q1"]
        )
        assert result.total_comm_bytes > 0
        assert result.makespan > 0

    def test_replication_bounded_by_shares(self, er_cluster):
        """Copies per (edge, relation) = prod of the non-edge shares."""
        engine = MultiwayJoinEngine()
        pattern = triangle()
        engine.run(er_cluster.fresh_copy(), pattern)
        shares = engine.last_shares
        total = int(np.prod(shares))
        per_edge = sum(
            2 * total // (shares[a] * shares[b]) for a, b in pattern.edges()
        )
        graph = er_cluster.graph
        assert engine.last_replicated_tuples == per_edge * graph.num_edges


class TestHashMixing:
    def test_mix_deterministic_and_spread(self):
        from repro.engines.multiway import _mix

        values = {_mix(v) % 2 for v in range(16)}
        assert values == {0, 1}  # both buckets hit
        assert _mix(7) == _mix(7)

    @pytest.mark.parametrize(
        "ids", [np.arange(10_000), 2**31 + np.arange(-500, 500)]
    )
    def test_vectorised_mix_equals_the_scalar_formula(self, ids):
        from repro.engines.multiway import _mix

        scalar = [(int(v) * 2654435761) & 0xFFFFFFFF for v in ids]
        assert _mix(ids).tolist() == scalar
