"""First-class query explanation: why an engine runs a query the way it does.

:class:`QueryExplanation` packages everything the paper's planner decides
about a query — the chosen decomposition units (pivot, leaves, star /
sibling / cross edges), the Def. 10 matching order, the symmetry-breaking
conditions, per-round cost-model estimates (when a data graph is supplied)
and the runner-up plans with their Eq. (4) heuristic scores — as one
serializable record mirroring :class:`repro.engines.base.RunResult`:
``to_dict()`` / ``from_dict()`` round-trip through JSON, and ``str()``
pretty-prints the whole plan.

Entry points: :meth:`repro.api.session.Session.explain`,
:meth:`repro.engines.base.EnumerationEngine.explain`, and the CLI's
``repro explain [--json]``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.query.pattern import Pattern
from repro.query.plan import (
    ExecutionPlan,
    best_execution_plan,
    enumerate_execution_plans,
    score_plan,
)
from repro.query.symmetry import automorphisms, symmetry_breaking_constraints

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.graph.graph import Graph

#: Runner-up plans reported (the plan space itself is tiny).
ALTERNATIVES = 5


@dataclass(frozen=True)
class RoundExplanation:
    """One decomposition unit ``dp_i`` plus its cost-model estimates.

    ``expansion_factor`` and ``estimated_results`` come from the
    degree-statistics model of :mod:`repro.query.plan_stats` and are
    ``None`` when no data graph was supplied to :func:`explain_query`.
    """

    index: int
    pivot: int
    leaves: tuple[int, ...]
    star_edges: tuple[tuple[int, int], ...]
    sibling_edges: tuple[tuple[int, int], ...]
    cross_edges: tuple[tuple[int, int], ...]
    expansion_factor: float | None = None
    estimated_results: float | None = None

    @property
    def verification_edges(self) -> int:
        """|E_sib| + |E_cro| — the filtering power of this round."""
        return len(self.sibling_edges) + len(self.cross_edges)


@dataclass(frozen=True)
class PlanAlternative:
    """A runner-up plan: its pivot order and heuristic rankings."""

    pivots: tuple[int, ...]
    rounds: int
    score: float
    start_span: int


@dataclass
class QueryExplanation:
    """The full, serializable explanation of one engine/query pairing."""

    engine: str
    pattern_name: str
    pattern_dsl: str
    num_vertices: int
    num_edges: int
    rounds: list[RoundExplanation]
    matching_order: list[int]
    symmetry_conditions: list[tuple[int, int]]
    automorphism_count: int
    score: float
    start_vertex: int
    start_span: int
    plan_space: dict[str, Any] = field(default_factory=dict)
    alternatives: list[PlanAlternative] = field(default_factory=list)
    labels: tuple[int, ...] | None = None
    graph_summary: dict[str, Any] | None = None
    extras: dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    # -- derived -------------------------------------------------------
    @property
    def num_rounds(self) -> int:
        """Number of decomposition units in the chosen plan."""
        return len(self.rounds)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict form sharing nothing mutable (from_dict inverts)."""
        return {
            **vars(self),  # every field, in field order; containers below
            "rounds": [
                {
                    **vars(unit),
                    "leaves": list(unit.leaves),
                    "star_edges": [list(e) for e in unit.star_edges],
                    "sibling_edges": [list(e) for e in unit.sibling_edges],
                    "cross_edges": [list(e) for e in unit.cross_edges],
                }
                for unit in self.rounds
            ],
            "matching_order": list(self.matching_order),
            "symmetry_conditions": [list(c) for c in self.symmetry_conditions],
            "plan_space": copy.deepcopy(self.plan_space),
            "alternatives": [
                {**vars(alt), "pivots": list(alt.pivots)}
                for alt in self.alternatives
            ],
            "labels": None if self.labels is None else list(self.labels),
            "graph_summary": copy.deepcopy(self.graph_summary),
            "extras": copy.deepcopy(self.extras),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryExplanation":
        """Rebuild a QueryExplanation from :meth:`to_dict` output."""
        labels = data.get("labels")
        return cls(
            engine=data["engine"],
            pattern_name=data["pattern_name"],
            pattern_dsl=data["pattern_dsl"],
            num_vertices=int(data["num_vertices"]),
            num_edges=int(data["num_edges"]),
            rounds=[
                RoundExplanation(
                    index=int(unit["index"]),
                    pivot=int(unit["pivot"]),
                    leaves=tuple(int(v) for v in unit["leaves"]),
                    star_edges=_edge_tuple(unit["star_edges"]),
                    sibling_edges=_edge_tuple(unit["sibling_edges"]),
                    cross_edges=_edge_tuple(unit["cross_edges"]),
                    expansion_factor=_opt_float(unit.get("expansion_factor")),
                    estimated_results=_opt_float(
                        unit.get("estimated_results")
                    ),
                )
                for unit in data["rounds"]
            ],
            matching_order=[int(u) for u in data["matching_order"]],
            symmetry_conditions=[
                (int(u), int(v)) for u, v in data["symmetry_conditions"]
            ],
            automorphism_count=int(data["automorphism_count"]),
            score=float(data["score"]),
            start_vertex=int(data["start_vertex"]),
            start_span=int(data["start_span"]),
            plan_space=dict(data.get("plan_space") or {}),
            alternatives=[
                PlanAlternative(
                    pivots=tuple(int(p) for p in alt["pivots"]),
                    rounds=int(alt["rounds"]),
                    score=float(alt["score"]),
                    start_span=int(alt["start_span"]),
                )
                for alt in data.get("alternatives") or []
            ],
            labels=None if labels is None else tuple(int(x) for x in labels),
            graph_summary=data.get("graph_summary"),
            extras=dict(data.get("extras") or {}),
            notes=data.get("notes", ""),
        )

    # -- presentation --------------------------------------------------
    def __str__(self) -> str:
        lines = [
            f"{self.pattern_name} via {self.engine}: "
            f"{self.pattern_dsl} "
            f"({self.num_vertices} vertices, {self.num_edges} edges)"
        ]
        if self.labels is not None:
            lines.append(f"labels: {list(self.labels)}")
        lines.append(
            f"plan: {self.num_rounds} round(s), score {self.score:.2f}, "
            f"start u{self.start_vertex} (span {self.start_span})"
        )
        for unit in self.rounds:
            leaves = ",".join(f"u{v}" for v in unit.leaves)
            parts = [
                f"  round {unit.index}: pivot u{unit.pivot} -> "
                f"leaves {{{leaves}}}"
            ]
            if unit.verification_edges:
                verify = ", ".join(
                    f"(u{a},u{b})"
                    for a, b in (*unit.sibling_edges, *unit.cross_edges)
                )
                parts.append(f"verify {verify}")
            else:
                parts.append("no verification edges")
            if unit.estimated_results is not None:
                parts.append(
                    f"x{unit.expansion_factor:.1f} expansion, "
                    f"~{unit.estimated_results:.0f} results"
                )
            lines.append(" | ".join(parts))
        lines.append(
            "matching order: "
            + " -> ".join(f"u{v}" for v in self.matching_order)
        )
        if self.symmetry_conditions:
            lines.append(
                "symmetry breaking: "
                + ", ".join(
                    f"f(u{u}) < f(u{v})"
                    for u, v in self.symmetry_conditions
                )
                + f"  (|Aut| = {self.automorphism_count})"
            )
        else:
            lines.append(
                f"symmetry breaking: none needed (|Aut| = "
                f"{self.automorphism_count})"
            )
        if self.plan_space:
            lines.append(
                f"plan space: {self.plan_space.get('num_plans')} "
                f"minimum-round plans, scores "
                f"{self.plan_space.get('score_min', 0.0):.2f}.."
                f"{self.plan_space.get('score_max', 0.0):.2f}"
            )
        for alt in self.alternatives:
            pivots = ",".join(f"u{p}" for p in alt.pivots)
            lines.append(
                f"  runner-up: pivots [{pivots}] "
                f"score {alt.score:.2f} "
                f"({alt.rounds} rounds, span {alt.start_span})"
            )
        for key, value in self.extras.items():
            lines.append(f"{self.engine} {key}: {value}")
        if self.notes:
            lines.append(f"strategy: {self.notes}")
        return "\n".join(lines)


def _edge_tuple(edges: Any) -> tuple[tuple[int, int], ...]:
    return tuple((int(u), int(v)) for u, v in edges)


def _opt_float(value: Any) -> float | None:
    return None if value is None else float(value)


def explain_query(
    query: "Pattern | Any",
    *,
    engine: str = "",
    graph: "Graph | None" = None,
    plan: ExecutionPlan | None = None,
    plans: list[ExecutionPlan] | None = None,
    extras: dict[str, Any] | None = None,
    notes: str = "",
) -> QueryExplanation:
    """Build a :class:`QueryExplanation` for ``query``.

    ``query`` is a :class:`Pattern` or ``LabeledPattern``; ``plan``
    overrides the default :func:`best_execution_plan` choice (engines pass
    their own provider's plan, and the plan space as ``plans`` where they
    enumerated it to choose); ``graph`` enables the per-round cost-model
    estimates; ``extras`` carries engine-specific structure.
    """
    pattern, labels = query, None
    if hasattr(query, "pattern") and hasattr(query, "labels"):
        pattern, labels = query.pattern, tuple(query.labels)
    candidates = enumerate_execution_plans(pattern) if plans is None else plans
    if plan is None:
        plan = best_execution_plan(pattern, plans=candidates)
    estimates: list[tuple[float | None, float | None]] = [
        (None, None)
    ] * len(plan.units)
    graph_summary: dict[str, Any] | None = None
    if graph is not None:
        from repro.query.plan_stats import estimate_plan

        report = estimate_plan(pattern, plan, graph)
        estimates = [
            (r.expansion_factor, r.estimated_results) for r in report.rounds
        ]
        graph_summary = {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "average_degree": graph.average_degree(),
        }
    rounds = [
        RoundExplanation(
            index=i,
            pivot=unit.pivot,
            leaves=unit.leaves,
            star_edges=unit.star_edges,
            sibling_edges=unit.sibling_edges,
            cross_edges=unit.cross_edges,
            expansion_factor=expansion,
            estimated_results=results,
        )
        for i, (unit, (expansion, results)) in enumerate(
            zip(plan.units, estimates)
        )
    ]
    scores = [score_plan(p) for p in candidates]
    plan_space: dict[str, Any] = {
        "num_plans": len(candidates),
        "rounds": candidates[0].num_rounds if candidates else 0,
        "score_min": min(scores) if scores else 0.0,
        "score_max": max(scores) if scores else 0.0,
        "distinct_start_vertices": len(
            {p.start_vertex for p in candidates}
        ),
    }
    chosen_units = tuple(plan.units)
    ranked = sorted(
        (p for p in candidates if tuple(p.units) != chosen_units),
        key=lambda p: (-score_plan(p), tuple(u.pivot for u in p.units)),
    )
    alternatives = [
        PlanAlternative(
            pivots=tuple(u.pivot for u in p.units),
            rounds=p.num_rounds,
            score=score_plan(p),
            start_span=pattern.span(p.start_vertex),
        )
        for p in ranked[:ALTERNATIVES]
    ]
    return QueryExplanation(
        engine=engine,
        pattern_name=pattern.name,
        pattern_dsl=pattern.to_dsl(),
        num_vertices=pattern.num_vertices,
        num_edges=pattern.num_edges,
        rounds=rounds,
        matching_order=list(plan.matching_order()),
        symmetry_conditions=list(symmetry_breaking_constraints(pattern)),
        automorphism_count=len(automorphisms(pattern)),
        score=score_plan(plan),
        start_vertex=plan.start_vertex,
        start_span=pattern.span(plan.start_vertex),
        plan_space=plan_space,
        alternatives=alternatives,
        labels=labels,
        graph_summary=graph_summary,
        extras=dict(extras or {}),
        notes=notes,
    )
