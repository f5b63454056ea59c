"""Query patterns, DSL, symmetry breaking, execution plans and explanation
(paper Sec. 2-4 plus the declarative front door)."""

from repro.query.pattern import Pattern
from repro.query.dsl import (
    PatternBuilder,
    PatternSyntaxError,
    format_pattern,
    parse_pattern,
)
from repro.query.explain import (
    PlanAlternative,
    QueryExplanation,
    RoundExplanation,
    explain_query,
)
from repro.query.patterns import (
    CLIQUE_QUERIES,
    PAPER_QUERIES,
    find_named,
    named_patterns,
    paper_query,
)
from repro.query.symmetry import (
    automorphisms,
    symmetry_breaking_constraints,
)
from repro.query.spanning import (
    connected_dominating_sets,
    maximum_leaf_spanning_tree,
    minimum_connected_dominating_set,
    spanning_trees,
)
from repro.query.plan import (
    DecompositionUnit,
    ExecutionPlan,
    best_execution_plan,
    enumerate_execution_plans,
    matching_order,
    plan_from_pivots,
    random_minimum_round_plan,
    random_star_plan,
    score_plan,
)

__all__ = [
    "Pattern",
    "PatternBuilder",
    "PatternSyntaxError",
    "PlanAlternative",
    "QueryExplanation",
    "RoundExplanation",
    "explain_query",
    "format_pattern",
    "parse_pattern",
    "PAPER_QUERIES",
    "CLIQUE_QUERIES",
    "paper_query",
    "find_named",
    "named_patterns",
    "automorphisms",
    "symmetry_breaking_constraints",
    "maximum_leaf_spanning_tree",
    "minimum_connected_dominating_set",
    "connected_dominating_sets",
    "spanning_trees",
    "DecompositionUnit",
    "ExecutionPlan",
    "enumerate_execution_plans",
    "best_execution_plan",
    "plan_from_pivots",
    "score_plan",
    "matching_order",
    "random_star_plan",
    "random_minimum_round_plan",
]
