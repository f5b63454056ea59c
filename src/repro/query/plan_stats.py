"""Execution-plan analytics: cost estimates and plan-space statistics.

The paper picks plans with three closed-form heuristics (Sec. 4).  This
module adds the tooling a practitioner needs around that: degree-statistics
based cardinality estimates per round, a what-if comparison across the
whole (tiny) plan space, and a summary object used by the CLI's
``plan`` command and by the plan-explorer example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.graph import Graph
from repro.query.pattern import Pattern
from repro.query.plan import (
    DecompositionUnit,
    ExecutionPlan,
    enumerate_execution_plans,
    score_plan,
)


@dataclass
class RoundEstimate:
    """Estimated work for one R-Meef round under a data-graph profile."""

    unit: DecompositionUnit
    expansion_factor: float
    verification_edges: int
    estimated_results: float


@dataclass
class PlanReport:
    """Everything the tooling reports about one execution plan."""

    plan: ExecutionPlan
    score: float
    start_span: int
    rounds: list[RoundEstimate] = field(default_factory=list)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"plan with {self.plan.num_rounds} round(s), "
            f"score {self.score:.2f}, span(u_start) = {self.start_span}",
        ]
        for i, r in enumerate(self.rounds):
            leaves = ",".join(map(str, r.unit.leaves))
            lines.append(
                f"  round {i}: pivot u{r.unit.pivot} -> leaves {{{leaves}}}"
                f"  x{r.expansion_factor:.1f} expansion,"
                f" {r.verification_edges} verification edge(s),"
                f" ~{r.estimated_results:.0f} results"
            )
        return "\n".join(lines)


def _selectivity(graph: Graph) -> float:
    """Probability that a random vertex pair is adjacent."""
    n = graph.num_vertices
    if n < 2:
        return 0.0
    return 2.0 * graph.num_edges / (n * (n - 1))


def estimate_plan(
    pattern: Pattern, plan: ExecutionPlan, graph: Graph
) -> PlanReport:
    """Degree-statistics cardinality model for a plan on a data graph.

    Round ``i`` expands each current result by ``avg_degree`` per leaf,
    then filters by edge selectivity once per verification edge — the
    standard independence-assumption estimate.  Coarse, but it ranks plans
    the same way the paper's score function aims to.
    """
    avg_degree = graph.average_degree()
    selectivity = _selectivity(graph)
    report = PlanReport(
        plan=plan,
        score=score_plan(plan),
        start_span=pattern.span(plan.start_vertex),
    )
    results = float(graph.num_vertices)
    for unit in plan.units:
        expansion = avg_degree ** len(unit.leaves)
        filtered = expansion * (
            selectivity ** unit.num_verification_edges
        )
        results = max(results * filtered, 0.0)
        report.rounds.append(
            RoundEstimate(
                unit=unit,
                expansion_factor=expansion,
                verification_edges=unit.num_verification_edges,
                estimated_results=results,
            )
        )
    return report


def plan_space_summary(pattern: Pattern) -> dict[str, object]:
    """Statistics over all minimum-round plans of a pattern."""
    plans = enumerate_execution_plans(pattern)
    scores = [score_plan(p) for p in plans]
    spans = [pattern.span(p.start_vertex) for p in plans]
    summary: dict[str, object] = {
        "num_plans": len(plans),
        "rounds": plans[0].num_rounds if plans else 0,
        "score_min": min(scores) if scores else 0.0,
        "score_max": max(scores) if scores else 0.0,
        "span_min": min(spans) if spans else 0,
        "span_max": max(spans) if spans else 0,
        "distinct_start_vertices": len(
            {p.start_vertex for p in plans}
        ),
    }
    return summary
