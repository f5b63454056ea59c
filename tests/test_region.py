"""Tests for region grouping and memory estimation (paper Sec. 6, Alg. 3)."""

import sys

import numpy as np
import pytest

from repro.core.embedding_trie import NODE_BYTES
from repro.core.region import MemoryEstimator, RegionGrouper
from repro.graph import erdos_renyi, grid_road_network


@pytest.fixture()
def graph():
    return grid_road_network(12, 12, extra_edge_prob=0.1, seed=3)


def make_grouper(graph, budget, seed=0, estimator=None):
    estimator = estimator or MemoryEstimator(num_unit_leaves=2)
    estimator.calibrate(trie_nodes=400, start_vertices=100)  # 4 nodes/vertex
    return RegionGrouper(graph, estimator, budget, seed=seed)


class TestMemoryEstimator:
    def test_calibrated_estimate(self):
        est = MemoryEstimator(2)
        est.calibrate(trie_nodes=1000, start_vertices=10)
        assert est.estimate_bytes(degree=5) == 100 * NODE_BYTES

    def test_fallback_uses_degree(self):
        est = MemoryEstimator(2)
        assert est.estimate_bytes(degree=10) == 100 * NODE_BYTES

    def test_fallback_capped(self):
        est = MemoryEstimator(6)
        assert est.estimate_bytes(degree=1000) <= int(1e6) * NODE_BYTES

    def test_zero_start_vertices_ignored(self):
        est = MemoryEstimator(2)
        est.calibrate(trie_nodes=0, start_vertices=0)
        assert est.estimate_bytes(degree=3) == 9 * NODE_BYTES

    @pytest.mark.parametrize("calibrated", [True, False])
    def test_estimate_many_is_the_scalar_per_entry(self, calibrated):
        est = MemoryEstimator(3)
        if calibrated:
            est.calibrate(trie_nodes=1000, start_vertices=7)
        degrees = np.array([0, 5, 1, 5, 2000, 0, 17], dtype=np.int64)
        assert est.estimate_many(degrees).tolist() == [
            est.estimate_bytes(int(d)) for d in degrees
        ]
        assert est.estimate_many(degrees[:0]).tolist() == []


class TestRegionGrouper:
    def test_groups_partition_candidates(self, graph):
        candidates = list(range(0, graph.num_vertices, 2))
        groups = make_grouper(graph, budget=50 * NODE_BYTES).groups(candidates)
        flat = sorted(v for g in groups for v in g)
        assert flat == sorted(candidates)

    def test_budget_limits_group_size(self, graph):
        candidates = list(range(60))
        # 4 nodes/vertex calibrated -> 96 bytes/vertex; budget of ~10 vertices.
        groups = make_grouper(graph, budget=40 * NODE_BYTES).groups(candidates)
        assert all(len(g) <= 10 for g in groups)
        assert len(groups) >= 6

    def test_huge_budget_single_group(self, graph):
        candidates = list(range(40))
        groups = make_grouper(graph, budget=1e12).groups(candidates)
        assert len(groups) == 1

    def test_single_vertex_groups_allowed_over_budget(self, graph):
        candidates = [0, 1]
        groups = make_grouper(graph, budget=1).groups(candidates)
        assert sorted(v for g in groups for v in g) == [0, 1]

    def test_deterministic_given_seed(self, graph):
        candidates = list(range(50))
        a = make_grouper(graph, budget=30 * NODE_BYTES, seed=5).groups(candidates)
        b = make_grouper(graph, budget=30 * NODE_BYTES, seed=5).groups(candidates)
        assert a == b

    def test_proximity_definition(self, graph):
        """Eq. 5 decides who joins: with room for two, the first group's
        second member is the frontier vertex sharing the largest fraction
        of its neighbours with the first (smallest id on a tie)."""

        def proximity(v: int, group_neighbours: set[int]) -> float:
            adj = graph.neighbors(v).tolist()
            return sum(w in group_neighbours for w in adj) / len(adj)

        def runner_up(first: int) -> int:
            near = set(graph.neighbors(first).tolist())
            frontier = [
                v for v in range(graph.num_vertices)
                if v != first
                and (v in near or near & set(graph.neighbors(v).tolist()))
            ]
            return max(frontier, key=lambda v: (proximity(v, near), -v))

        for seed in range(8):
            grouper = make_grouper(graph, budget=2 * 4 * NODE_BYTES, seed=seed)
            a, b = grouper.groups(list(range(graph.num_vertices)))[0]
            assert runner_up(a) == b or runner_up(b) == a

    def test_rejects_an_adjacency_callable(self, graph):
        with pytest.raises(TypeError, match="graph must be a Graph"):
            RegionGrouper(graph.neighbors, MemoryEstimator(2), 1e9)

    def test_grouping_prefers_nearby_vertices(self):
        """Two far-apart grid clusters should not interleave in one group."""
        graph = grid_road_network(20, 4, extra_edge_prob=0, seed=0)
        left = list(range(0, 8))            # west end of the strip
        right = list(range(72, 80))         # east end
        est = MemoryEstimator(2)
        est.calibrate(trie_nodes=800, start_vertices=100)  # 8 nodes/vertex
        grouper = RegionGrouper(
            graph, est, budget_bytes=8 * 8 * NODE_BYTES, seed=1
        )
        groups = grouper.groups(left + right)
        for group in groups:
            sides = {"L" if v in left else "R" for v in group}
            # A group that spans both ends must have been forced by exhaustion.
            if len(group) > 2:
                assert len(sides) == 1


class TestGroupingCost:
    """An addition costs O(degree), not O(|remaining|): counted, not timed."""

    @staticmethod
    def _calls_per_candidate(graph, k: int) -> float:
        """Python + C calls per candidate (what ``perf`` counts per pass)."""
        calls = 0

        def tick(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        def run():
            make_grouper(graph, budget=40 * 4 * NODE_BYTES).groups(list(range(k)))

        run()  # warm: imports and numpy's dispatch caches
        sys.setprofile(tick)
        try:
            run()
        finally:
            sys.setprofile(None)
        return calls / k

    def test_calls_per_candidate_do_not_grow_with_candidates(self):
        graph = grid_road_network(120, 120, extra_edge_prob=0.04, seed=0)
        small = self._calls_per_candidate(graph, 1000)
        large = self._calls_per_candidate(graph, 4000)
        print(f"calls per candidate: {small:.0f} at 1000, {large:.0f} at 4000")
        assert large <= 1.5 * small


class TestRandomGroupingStrategy:
    @pytest.fixture()
    def graph(self):
        return erdos_renyi(80, 0.08, seed=13)

    def _grouper(self, graph, strategy, budget=10_000.0):
        estimator = MemoryEstimator(2)
        estimator.calibrate(trie_nodes=50, start_vertices=10)
        return RegionGrouper(
            graph=graph,
            estimator=estimator,
            budget_bytes=budget,
            seed=5,
            strategy=strategy,
        )

    def test_invalid_strategy_rejected(self, graph):
        with pytest.raises(ValueError):
            self._grouper(graph, "clustered")

    def test_random_groups_still_partition(self, graph):
        candidates = list(range(0, 80, 2))
        groups = self._grouper(graph, "random").groups(candidates)
        flat = sorted(v for g in groups for v in g)
        assert flat == sorted(candidates)

    def test_random_groups_respect_budget(self, graph):
        estimator = MemoryEstimator(2)
        estimator.calibrate(trie_nodes=50, start_vertices=10)
        grouper = self._grouper(graph, "random", budget=2_000.0)
        for group in grouper.groups(list(range(40))):
            if len(group) > 1:
                cost = sum(
                    estimator.estimate_bytes(graph.degree(v)) for v in group
                )
                assert cost <= 2_000.0

    def test_random_less_cohesive_than_proximity(self, graph):
        """Random grouping scatters: group members share fewer neighbours."""

        def cohesion(groups):
            shared = 0
            pairs = 0
            for group in groups:
                for i, v in enumerate(group):
                    nv = set(int(x) for x in graph.neighbors(v))
                    for w in group[i + 1:]:
                        pairs += 1
                        if nv & set(int(x) for x in graph.neighbors(w)):
                            shared += 1
            return shared / max(1, pairs)

        candidates = list(range(80))
        proximity = self._grouper(graph, "proximity", budget=3_000.0)
        random_ = self._grouper(graph, "random", budget=3_000.0)
        assert cohesion(proximity.groups(candidates)) >= cohesion(
            random_.groups(candidates)
        )
