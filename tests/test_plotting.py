"""Tests for the ASCII chart renderer."""

import pytest

from repro.bench.harness import GridResult
from repro.bench.plotting import grouped_bar_chart
from repro.engines.base import RunResult


def make_result(engine, query, makespan, failed=False):
    return RunResult(
        engine=engine, pattern_name=query, embedding_count=10,
        makespan=makespan, total_comm_bytes=1000, peak_memory=100,
        per_machine_time=[makespan], failed=failed,
    )


@pytest.fixture()
def grid():
    g = GridResult("demo", 4)
    for q, (fast, slow) in {"q1": (0.1, 1.0), "q2": (0.2, 4.0)}.items():
        g.results[("RADS", q)] = make_result("RADS", q, fast)
        g.results[("SEED", q)] = make_result("SEED", q, slow)
    g.results[("SEED", "q2")] = make_result("SEED", "q2", 0, failed=True)
    return g


class TestGroupedBarChart:
    def test_renders_all_groups(self, grid):
        chart = grouped_bar_chart(grid)
        assert "q1:" in chart and "q2:" in chart
        assert "legend:" in chart

    def test_oom_bar(self, grid):
        assert "(OOM)" in grouped_bar_chart(grid)

    def test_bar_lengths_ordered(self, grid):
        chart = grouped_bar_chart(grid)
        q1_block = chart.split("q1:")[1].split("q2:")[0]
        lines = {
            line.split("|")[0].strip(): line.split("|")[1]
            for line in q1_block.splitlines()
            if "|" in line
        }
        # SEED's q1 bar (1.0s) must be longer than RADS's (0.1s).
        rads_bar = lines["RADS"].count("#")
        seed_bar = lines["SEED"].count("*")
        assert seed_bar > rads_bar > 0

    def test_log_scale(self, grid):
        chart = grouped_bar_chart(grid, log=True)
        assert "log scale" in chart

    def test_custom_metric(self, grid):
        chart = grouped_bar_chart(
            grid, metric=lambda r: r.total_comm_bytes, title="comm"
        )
        assert "comm" in chart
