"""Tests for the experiment registry (tiny scales for speed)."""

import pytest

from repro.api.config import RunConfig
from repro.bench import experiments as X
from repro.bench.harness import run_query_grid
from repro.bench.datasets import dataset
from repro.core.rads import RADSEngine
from repro.engines import SEEDEngine


class TestExperimentHelpers:
    def test_table1_rows(self):
        rows = X.exp_table1()
        assert len(rows) == 4
        assert {r["dataset"] for r in rows} == {
            "RoadNet", "DBLP", "LiveJournal", "UK2002"
        }

    def test_compression_small(self):
        rows = X.exp_compression("dblp", queries=["q1", "q2"])
        assert sum(r["et_kb"] for r in rows) < sum(r["el_kb"] for r in rows)
        assert all(r["embeddings"] > 0 for r in rows)

    def test_plan_effectiveness_row_shape(self):
        rows = X.exp_plan_effectiveness(
            "dblp", queries=("q4",), num_machines=3, num_random=1
        )
        assert set(rows[0]) == {"query", "RanS", "RanM", "RADS"}
        assert all(v > 0 for k, v in rows[0].items() if k != "query")

    def test_scalability_base_is_one(self):
        ratios = X.exp_scalability(
            "dblp", machine_counts=(3, 6), queries=("q1",),
            engines={"RADS": RADSEngine()},
        )
        assert ratios["RADS"][3] == pytest.approx(1.0)

    def test_performance_grid_subset(self):
        grid = X.exp_performance(
            "dblp", queries=["q1"], num_machines=3,
            engines={"RADS": RADSEngine(), "SEED": SEEDEngine()},
        )
        assert grid.get("RADS", "q1").embedding_count == grid.get(
            "SEED", "q1"
        ).embedding_count

    def test_consistency_check_raises_on_disagreement(self):
        class BrokenEngine(RADSEngine):
            name = "Broken"

            def run(self, cluster, pattern, collect_embeddings=True, **kwargs):
                result = super().run(
                    cluster, pattern, collect_embeddings, **kwargs
                )
                result.embedding_count += 1
                return result

        graph = dataset("dblp", 0.12)
        with pytest.raises(AssertionError):
            run_query_grid(
                graph, "x", ["q1"],
                engines={"RADS": RADSEngine(), "Broken": BrokenEngine()},
                config=RunConfig(machines=2),
            )


class TestScalabilityConsistency:
    def test_failed_query_excluded_at_all_node_counts(self):
        """A query that OOMs at any node count must not skew the ratios:
        only queries finishing everywhere enter the totals."""

        class FlakyEngine(RADSEngine):
            """OOMs whenever the cluster has exactly 3 machines."""

            name = "Flaky"

            def run(self, cluster, pattern, collect_embeddings=True, **kwargs):
                from repro.engines.base import RunResult

                if cluster.num_machines == 3:
                    return RunResult(
                        engine=self.name, pattern_name=pattern.name,
                        embedding_count=0, makespan=99.0,
                        total_comm_bytes=0, peak_memory=0,
                        per_machine_time=[], failed=True, failure="OOM",
                    )
                return super().run(
                    cluster, pattern, collect_embeddings, **kwargs
                )

        ratios = X.exp_scalability(
            "dblp", machine_counts=(3, 6), queries=("q1",),
            engines={"Flaky": FlakyEngine()}, scale=0.5,
        )
        # q1 failed at 3 machines -> no query survives -> NaN ratios
        # rather than a bogus comparison of different query sets.
        import math

        assert math.isnan(ratios["Flaky"][3]) or ratios["Flaky"][3] == 0
