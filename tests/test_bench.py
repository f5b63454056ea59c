"""Tests for the benchmark harness and datasets (small scales)."""


import pytest

from repro.api.config import RunConfig
from repro.bench.datasets import DATASETS, dataset, dataset_profile
from repro.bench.harness import (
    format_comm_table,
    format_count_table,
    format_time_table,
    run_query_grid,
)
from repro.core.rads import RADSEngine
from repro.engines import PSgLEngine


class TestDatasets:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_deterministic(self, name):
        assert dataset(name, 0.1) == dataset(name, 0.1)

    def test_scale_grows_graph(self):
        assert (
            dataset("livejournal", 0.3).num_vertices
            < dataset("livejournal", 0.6).num_vertices
        )

    def test_profile_fields(self):
        profile = dataset_profile("dblp", 0.2)
        assert set(profile) == {
            "dataset", "num_vertices", "num_edges", "avg_degree",
            "diameter_lb",
        }

    def test_roadnet_has_large_diameter(self):
        road = dataset_profile("roadnet", 0.2)
        social = dataset_profile("livejournal", 0.2)
        assert road["diameter_lb"] > 3 * social["diameter_lb"]


class TestHarness:
    @pytest.fixture(scope="class")
    def grid(self):
        graph = dataset("dblp", 0.12)
        return run_query_grid(
            graph,
            "dblp-mini",
            ["q1", "q2"],
            engines={"RADS": RADSEngine(), "PSgL": PSgLEngine()},
            config=RunConfig(machines=3),
        )

    def test_grid_complete(self, grid):
        assert grid.engines() == ["RADS", "PSgL"]
        assert grid.queries() == ["q1", "q2"]
        assert all(
            grid.get(e, q) is not None
            for e in grid.engines() for q in grid.queries()
        )

    def test_consistency_enforced(self, grid):
        counts = {
            (e, q): grid.get(e, q).embedding_count
            for e in grid.engines() for q in grid.queries()
        }
        assert counts[("RADS", "q1")] == counts[("PSgL", "q1")]

    def test_tables_render(self, grid):
        for fmt in (format_time_table, format_comm_table, format_count_table):
            text = fmt(grid)
            assert "q1" in text and "RADS" in text
            assert len(text.splitlines()) == 4

    def test_makespans_positive(self, grid):
        for e in grid.engines():
            for q in grid.queries():
                assert grid.get(e, q).makespan > 0

    def test_make_cluster_machines(self):
        cluster = RunConfig(machines=5).make_cluster(dataset("dblp", 0.12))
        assert cluster.num_machines == 5

    def test_oom_recorded_not_raised(self):
        graph = dataset("livejournal", 0.25)
        grid = run_query_grid(
            graph, "lj-mini", ["q5"],
            engines={"PSgL": PSgLEngine()},
            config=RunConfig(machines=3, memory_mb=1 / 16),
        )
        assert grid.get("PSgL", "q5").failed
