"""End-to-end tests for the RADS engine (correctness + robustness)."""

import pytest

import repro
from repro.cluster import Cluster
from repro.core import rads
from repro.core.rads import RADSEngine
from repro.engines import SingleMachineEngine
from repro.graph import community_graph
from repro.query import best_execution_plan, named_patterns, paper_query, random_star_plan


QUERIES = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "cq1", "cq3"]


def truth_set(cluster, pattern):
    return set(
        SingleMachineEngine().run(cluster.fresh_copy(), pattern).embeddings
    )


class TestCorrectness:
    @pytest.mark.parametrize("qname", QUERIES)
    def test_matches_ground_truth_er(self, er_cluster, qname):
        pattern = named_patterns()[qname]
        expected = truth_set(er_cluster, pattern)
        result = RADSEngine().run(er_cluster.fresh_copy(), pattern)
        assert not result.failed
        assert set(result.embeddings) == expected
        assert len(result.embeddings) == len(expected)  # no duplicates

    @pytest.mark.parametrize("qname", ["q1", "q4", "q5", "q8"])
    def test_matches_ground_truth_grid(self, grid_cluster, qname):
        pattern = named_patterns()[qname]
        expected = truth_set(grid_cluster, pattern)
        result = RADSEngine().run(grid_cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected

    def test_single_machine_cluster(self, er_graph):
        cluster = Cluster.create(er_graph, 1)
        pattern = paper_query("q4")
        expected = truth_set(cluster, pattern)
        result = RADSEngine().run(cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected
        assert result.total_comm_bytes == 0

    def test_many_machines(self, er_graph):
        cluster = Cluster.create(er_graph, 8)
        pattern = paper_query("q2")
        expected = truth_set(cluster, pattern)
        result = RADSEngine().run(cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected

    def test_count_only_mode(self, er_cluster):
        pattern = paper_query("q4")
        expected = truth_set(er_cluster, pattern)
        result = RADSEngine().run(
            er_cluster.fresh_copy(), pattern, collect_embeddings=False
        )
        assert result.embeddings is None
        assert result.embedding_count == len(expected)


class TestConfigurations:
    def test_without_sme(self, grid_cluster):
        pattern = paper_query("q1")
        expected = truth_set(grid_cluster, pattern)
        result = RADSEngine(enable_sme=False).run(
            grid_cluster.fresh_copy(), pattern
        )
        assert set(result.embeddings) == expected

    def test_without_work_stealing(self, er_cluster):
        pattern = paper_query("q4")
        expected = truth_set(er_cluster, pattern)
        result = RADSEngine(enable_work_stealing=False).run(
            er_cluster.fresh_copy(), pattern
        )
        assert set(result.embeddings) == expected

    def test_custom_plan_provider(self, er_cluster):
        pattern = paper_query("q5")
        expected = truth_set(er_cluster, pattern)
        provider = lambda p: random_star_plan(p, seed=3)
        result = RADSEngine(plan_provider=provider).run(
            er_cluster.fresh_copy(), pattern
        )
        assert set(result.embeddings) == expected

    def test_plans_are_reused_and_bounded(self, er_cluster, monkeypatch):
        """A repeat reuses its plan; past PLAN_MEMO patterns the least
        recently run one goes (q2 here, as q1 was run since)."""
        monkeypatch.setattr(rads, "PLAN_MEMO", 2)
        planned = []
        engine = RADSEngine(plan_provider=lambda p: planned.append(p) or best_execution_plan(p))
        for name in ["q1", "q2", "q1", "q3", "q1", "q2"]:
            pattern = paper_query(name)
            result = engine.run(er_cluster.fresh_copy(), pattern)
            assert set(result.embeddings) == truth_set(er_cluster, pattern)
        assert planned == [paper_query(name) for name in ["q1", "q2", "q3", "q2"]]
        assert len(engine._plans) == 2

    def test_sme_dominates_on_grid(self, grid_graph):
        """On road-like graphs most of the work happens in SM-E, so the
        distributed phase exchanges very little (paper Exp-1)."""
        cluster = Cluster.create(grid_graph, 4)
        result = RADSEngine().run(cluster, paper_query("q1"))
        # A couple of fetch/verify batches at most.
        assert result.total_comm_bytes < 200_000


class TestRobustness:
    def test_survives_tight_memory(self, powerlaw_graph):
        """Region groups keep RADS alive under a cap that is generous enough
        for single groups but too small for one-shot processing."""
        pattern = paper_query("q4")
        loose = Cluster.create(powerlaw_graph, 4)
        expected = truth_set(loose, pattern)
        tight = Cluster(
            loose.partition, loose.cost_model, memory_capacity=1024 * 1024
        )
        result = RADSEngine().run(tight, pattern)
        assert not result.failed
        assert set(result.embeddings) == expected
        assert result.peak_memory <= 1024 * 1024

    def test_more_groups_under_smaller_budget(self, powerlaw_graph):
        pattern = paper_query("q4")
        runs = {}
        for cap in (1024 * 1024, 16 * 1024 * 1024):
            cluster = Cluster.create(powerlaw_graph, 4)
            cluster.memory_capacity = cap
            for m in cluster.machines:
                m.memory_capacity = cap
            engine = RADSEngine()
            result = engine.run(cluster, pattern, collect_embeddings=False)
            assert not result.failed
            runs[cap] = result.peak_memory
        assert runs[1024 * 1024] <= runs[16 * 1024 * 1024]


class TestAsynchrony:
    def test_no_barriers_in_rads(self, er_cluster):
        """Machines finish at different times (no lock-step clocks)."""
        result = RADSEngine().run(er_cluster.fresh_copy(), paper_query("q5"))
        times = [t for t in result.per_machine_time if t > 0]
        assert len(set(times)) > 1

    def test_stealing_reduces_makespan_on_skew(self, powerlaw_graph):
        """With hubs concentrated on few machines, stealing helps."""
        pattern = paper_query("q2")
        base = Cluster.create(powerlaw_graph, 4)
        with_steal = RADSEngine(enable_work_stealing=True).run(
            base.fresh_copy(), pattern, collect_embeddings=False
        )
        without = RADSEngine(enable_work_stealing=False).run(
            base.fresh_copy(), pattern, collect_embeddings=False
        )
        assert with_steal.makespan <= without.makespan * 1.05


class TestRunCounters:
    def test_sme_embeddings_counter_surfaces(self, grid_cluster):
        from repro.query import named_patterns

        result = RADSEngine().run(
            grid_cluster.fresh_copy(), named_patterns()["q1"],
            collect_embeddings=False,
        )
        # On the grid graph most interior candidates qualify for SM-E.
        assert result.counters.get("sme_embeddings", 0) > 0

    def test_grouping_strategy_does_not_change_results(self, er_cluster):
        from repro.query import named_patterns

        pattern = named_patterns()["q2"]
        proximity = RADSEngine(grouping="proximity").run(
            er_cluster.fresh_copy(), pattern
        )
        random_ = RADSEngine(grouping="random").run(
            er_cluster.fresh_copy(), pattern
        )
        assert set(proximity.embeddings) == set(random_.embeddings)

    def test_unknown_grouping_rejected(self, er_cluster):
        from repro.query import named_patterns

        with pytest.raises(ValueError):
            RADSEngine(grouping="zigzag").run(
                er_cluster.fresh_copy(), named_patterns()["q2"]
            )


class TestStealCount:
    """The R-Meef round's span reports how many region groups were stolen."""

    GRAPH = community_graph(20, 10, 0.6, 2, seed=20190801)

    @classmethod
    def _run(cls, workers: int = 0, **engine_kwargs):
        with repro.open(cls.GRAPH).with_cluster(machines=4).with_workers(workers) as session:
            result = session.engine("rads", **engine_kwargs).query("q4").run(trace=True)
        spans = [result.trace]
        while spans[0]["name"] != "round.r-meef":
            node = spans.pop(0)
            spans.extend(node["children"])
        return result, spans[0]["attributes"]["steals"]

    def test_serial_and_process_steal_alike(self):
        serial, steals = self._run()
        parallel, parallel_steals = self._run(workers=2)
        assert steals > 0 and parallel_steals == steals
        assert parallel.total_comm_bytes == serial.total_comm_bytes
        assert parallel.makespan == serial.makespan

    def test_without_stealing_the_count_is_zero(self):
        _, steals = self._run(enable_work_stealing=False)
        assert steals == 0
