"""Tests for plan analytics (cardinality estimates, plan-space stats)."""

import pytest

from repro.graph import erdos_renyi
from repro.query import best_execution_plan, paper_query
from repro.query.plan_stats import (
    PlanReport,
    estimate_plan,
    plan_space_summary,
)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(200, 0.05, seed=23)


class TestEstimatePlan:
    def test_report_structure(self, graph):
        pattern = paper_query("q5")
        plan = best_execution_plan(pattern)
        report = estimate_plan(pattern, plan, graph)
        assert isinstance(report, PlanReport)
        assert len(report.rounds) == plan.num_rounds
        assert report.start_span == pattern.span(plan.start_vertex)

    def test_estimates_positive_and_finite(self, graph):
        pattern = paper_query("q4")
        plan = best_execution_plan(pattern)
        report = estimate_plan(pattern, plan, graph)
        for r in report.rounds:
            assert r.estimated_results >= 0
            assert r.expansion_factor > 0

    def test_more_verification_edges_lower_estimate(self, graph):
        """Verification edges multiply in a selectivity < 1 factor."""
        pattern = paper_query("q8")  # many verification edges
        plan = best_execution_plan(pattern)
        report = estimate_plan(pattern, plan, graph)
        sparse_pattern = paper_query("q3")
        sparse_plan = best_execution_plan(sparse_pattern)
        sparse_report = estimate_plan(sparse_pattern, sparse_plan, graph)
        # q8 (9 edges) must be estimated rarer than q3 (5 edges).
        assert (
            report.rounds[-1].estimated_results
            < sparse_report.rounds[-1].estimated_results
        )

    def test_describe_renders(self, graph):
        pattern = paper_query("q2")
        report = estimate_plan(pattern, best_execution_plan(pattern), graph)
        text = report.describe()
        assert "round 0" in text and "score" in text


class TestPlanSpaceSummary:
    def test_fields(self):
        summary = plan_space_summary(paper_query("q4"))
        assert summary["num_plans"] > 0
        assert summary["rounds"] == 2
        assert summary["score_min"] <= summary["score_max"]

    def test_single_unit_pattern(self):
        summary = plan_space_summary(paper_query("q2"))
        assert summary["rounds"] == 1
