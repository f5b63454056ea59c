"""Tests for the SM-E split (paper Sec. 3.1, Prop. 1)."""

import pytest

from repro.cluster import Cluster
from repro.core.embedding_trie import trie_nodes_for_results
from repro.core.region import MemoryEstimator
from repro.core.sme import SingleMachineSplit
from repro.graph import grid_road_network
from repro.query import best_execution_plan, paper_query
from repro.query.symmetry import symmetry_breaking_constraints


@pytest.fixture(scope="module")
def setting():
    graph = grid_road_network(16, 16, extra_edge_prob=0.08, seed=4)
    cluster = Cluster.create(graph, 4)
    pattern = paper_query("q1")
    plan = best_execution_plan(pattern)
    cons = symmetry_breaking_constraints(pattern)
    return cluster, pattern, plan, cons


class TestSplit:
    def test_split_is_partition_of_candidates(self, setting):
        cluster, pattern, plan, cons = setting
        split = SingleMachineSplit(pattern, plan, cons)
        local = cluster.partition.machine(0)
        candidates = set(split.candidates(local))
        c1, c2 = split.split(local)
        assert set(c1) | set(c2) == candidates
        assert set(c1) & set(c2) == set()

    def test_c1_far_from_border(self, setting):
        cluster, pattern, plan, cons = setting
        split = SingleMachineSplit(pattern, plan, cons)
        local = cluster.partition.machine(0)
        span = pattern.span(plan.start_vertex)
        c1, c2 = split.split(local)
        distance = dict(
            zip(local.owned_vertices.tolist(), local.border_distances.tolist())
        )
        for v in c1:
            assert distance[v] >= span
        for v in c2:
            assert distance[v] < span

    def test_degree_filter(self, setting):
        cluster, pattern, plan, cons = setting
        split = SingleMachineSplit(pattern, plan, cons)
        local = cluster.partition.machine(0)
        for v in split.candidates(local):
            assert local.degree(v) >= pattern.degree(plan.start_vertex)


class TestProposition1:
    def test_sme_embeddings_fully_local(self, setting):
        """Prop. 1: embeddings rooted in C1 never leave the machine."""
        cluster, pattern, plan, cons = setting
        split = SingleMachineSplit(pattern, plan, cons)
        for t in range(cluster.num_machines):
            local = cluster.partition.machine(t)
            result = split.run(local, cluster.machine(t))
            for emb in result.embeddings:
                assert all(local.is_owned(v) for v in emb)

    def test_sme_embeddings_would_be_found_globally(self, setting):
        """Every SM-E embedding restricted to owned vertices is genuine:
        cross-check against unrestricted enumeration from C1 starts."""
        cluster, pattern, plan, cons = setting
        from repro.enumeration import enumerate_embeddings

        split = SingleMachineSplit(pattern, plan, cons)
        graph = cluster.graph
        local = cluster.partition.machine(1)
        result = split.run(local, cluster.machine(1))
        unrestricted = enumerate_embeddings(
            graph.neighbors,
            result.local_candidates,
            pattern,
            cons,
            order=plan.matching_order(),
        )
        # Prop. 1 says the restriction loses nothing for C1 starts.
        assert set(result.embeddings) == set(unrestricted)

    def test_clock_charged(self, setting):
        cluster, pattern, plan, cons = setting
        fresh = cluster.fresh_copy()
        split = SingleMachineSplit(pattern, plan, cons)
        split.run(fresh.partition.machine(0), fresh.machine(0))
        assert fresh.machine(0).clock > 0

    def test_estimator_calibrated(self, setting):
        cluster, pattern, plan, cons = setting
        fresh = cluster.fresh_copy()
        split = SingleMachineSplit(pattern, plan, cons)
        estimator = MemoryEstimator(2)
        split.run(fresh.partition.machine(0), fresh.machine(0), estimator)
        # After calibration the estimate is embedding-driven, not the
        # degree fallback.
        assert estimator.estimate_bytes(3) == estimator.estimate_bytes(100)

    def test_calibration_is_the_trie_of_the_results(self, setting):
        """The block counted as it stands equals the sorted-set count."""
        cluster, pattern, plan, cons = setting
        for t in range(cluster.num_machines):
            estimator = MemoryEstimator(2)
            result = SingleMachineSplit(pattern, plan, cons).run(
                cluster.partition.machine(t), cluster.fresh_copy().machine(t), estimator
            )
            order = plan.matching_order()
            nodes = trie_nodes_for_results(
                [tuple(emb[u] for u in order) for emb in result.embeddings]
            )
            assert result.embeddings
            assert estimator._calibrated == nodes / len(result.local_candidates)

    def test_count_only_makes_no_tuples_and_changes_nothing_else(self, setting):
        cluster, pattern, plan, cons = setting
        records = []
        for collect in (True, False):
            fresh = cluster.fresh_copy()
            estimator = MemoryEstimator(2)
            result = SingleMachineSplit(pattern, plan, cons).run(
                fresh.partition.machine(0), fresh.machine(0), estimator, collect
            )
            assert len(result.embeddings) == (result.count if collect else 0)
            records.append((
                result.count, result.stats, result.distributed_candidates,
                estimator._calibrated, fresh.machine(0).clock,
                dict(fresh.machine(0).counters),
            ))
        assert records[0] == records[1] and records[0][0] > 0
