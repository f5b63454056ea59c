"""Decomposition units, execution plans, plan scoring, matching order
(paper Sec. 3.2, 4 and Def. 10).

An execution plan is a sequence of units ``(dp_0, ..., dp_l)`` where each
unit has a pivot and a non-empty leaf set, leaves never reappear in later
units, and each pivot (beyond the first) already occurs in the union of the
previous units.  Plans are computed by enumerating connected dominating sets
of minimum size (Theorem 1), orderings and leaf assignments, then ranked by
the paper's three heuristics:

1. minimum number of rounds (= units);
2. minimum span of ``dp0.piv`` (maximises the SM-E share);
3. maximum verification-edge score, Eq. (4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations, product

from repro.query.pattern import Pattern
from repro.query.spanning import connected_dominating_sets

#: Stop enumerating execution plans after this many.
MAX_PLANS = 5000


@dataclass(frozen=True)
class DecompositionUnit:
    """One unit ``dp_i``: a pivot vertex and its leaf vertices.

    Edge sets follow Sec. 3.2: ``star_edges`` are (pivot, leaf) expansion
    edges; ``sibling_edges`` connect two leaves of this unit;
    ``cross_edges`` connect a leaf to a vertex matched in an earlier round.
    Sibling and cross edges are the *verification* edges.
    """

    pivot: int
    leaves: tuple[int, ...]
    star_edges: tuple[tuple[int, int], ...]
    sibling_edges: tuple[tuple[int, int], ...]
    cross_edges: tuple[tuple[int, int], ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        """Pivot followed by leaves."""
        return (self.pivot, *self.leaves)

    @property
    def num_verification_edges(self) -> int:
        """|E_sib| + |E_cro| (the filtering power of this round)."""
        return len(self.sibling_edges) + len(self.cross_edges)


@dataclass
class ExecutionPlan:
    """A validated execution plan over ``pattern``."""

    pattern: Pattern
    units: list[DecompositionUnit]
    _order: list[int] = field(default_factory=list, repr=False)

    @property
    def num_rounds(self) -> int:
        """Number of units (the paper counts |PL| rounds after round 0)."""
        return len(self.units)

    @property
    def start_vertex(self) -> int:
        """``dp0.piv`` — the starting query vertex u_start."""
        return self.units[0].pivot

    def subpattern_vertices(self, i: int) -> list[int]:
        """Vertices of ``P_i`` (union of units 0..i) in matching order."""
        prefix_len = 1 + sum(len(u.leaves) for u in self.units[: i + 1])
        return self.matching_order()[:prefix_len]

    def matching_order(self) -> list[int]:
        """Total order of Def. 10 (cached)."""
        if not self._order:
            self._order = matching_order(self.pattern, self.units)
        return self._order

    def validate(self) -> None:
        """Raise ValueError if the plan violates Defs. 6-7."""
        pattern = self.pattern
        covered: set[int] = set()
        for i, unit in enumerate(self.units):
            if not unit.leaves:
                raise ValueError(f"unit {i} has no leaves")
            if i > 0 and unit.pivot not in covered:
                raise ValueError(f"pivot of unit {i} not in P_{i-1}")
            for leaf in unit.leaves:
                if leaf in covered:
                    raise ValueError(f"leaf {leaf} reappears in unit {i}")
                if not pattern.has_edge(unit.pivot, leaf):
                    raise ValueError(f"({unit.pivot},{leaf}) not a pattern edge")
            covered.update(unit.vertices)
        if covered != set(pattern.vertices()):
            raise ValueError("plan does not cover all pattern vertices")
        # Every pattern edge must be a star, sibling or cross edge exactly once.
        seen: set[tuple[int, int]] = set()
        for unit in self.units:
            for e in (*unit.star_edges, *unit.sibling_edges, *unit.cross_edges):
                key = (min(e), max(e))
                if key in seen:
                    raise ValueError(f"edge {key} covered twice")
                seen.add(key)
        if seen != set(pattern.edges()):
            raise ValueError("plan does not cover all pattern edges")


def _build_plan(
    pattern: Pattern,
    pivots: tuple[int, ...],
    leaf_owner: dict[int, int],
) -> ExecutionPlan | None:
    """Assemble a plan from an ordered pivot tuple and a leaf->unit map.

    ``leaf_owner[v]`` is the index of the unit hosting ``v`` as a leaf
    (pivots beyond the first are leaves of some earlier unit too).
    Returns None if any unit ends up with an empty leaf set.
    """
    unit_leaves: list[list[int]] = [[] for _ in pivots]
    for leaf, owner in leaf_owner.items():
        unit_leaves[owner].append(leaf)
    if any(not leaves for leaves in unit_leaves):
        return None
    units: list[DecompositionUnit] = []
    placed: set[int] = set()
    for i, pivot in enumerate(pivots):
        leaves = tuple(sorted(unit_leaves[i]))
        leaf_set = set(leaves)
        star = tuple((pivot, leaf) for leaf in leaves)
        sibling = tuple(
            (a, b)
            for a, b in pattern.edges()
            if a in leaf_set and b in leaf_set
        )
        prev = placed | {pivot}
        cross = tuple(
            (a, b)
            for a, b in pattern.edges()
            if (
                (a in leaf_set and b in prev and b != pivot)
                or (b in leaf_set and a in prev and a != pivot)
            )
        )
        units.append(
            DecompositionUnit(pivot, leaves, star, sibling, cross)
        )
        placed |= {pivot, *leaves}
    plan = ExecutionPlan(pattern, units)
    plan.validate()
    return plan


def _leaf_assignments(
    pattern: Pattern, pivots: tuple[int, ...], limit: int
) -> list[dict[int, int]]:
    """Enumerate leaf->unit assignments compatible with the pivot order."""
    pivot_index = {p: i for i, p in enumerate(pivots)}
    choices: list[tuple[int, list[int]]] = []
    for v in pattern.vertices():
        if v == pivots[0]:
            continue
        if v in pivot_index:
            # A later pivot must be hosted by a strictly earlier unit.
            hosts = [
                pivot_index[p]
                for p in pattern.adj(v)
                if p in pivot_index and pivot_index[p] < pivot_index[v]
            ]
        else:
            hosts = sorted(
                pivot_index[p] for p in pattern.adj(v) if p in pivot_index
            )
        if not hosts:
            return []
        choices.append((v, hosts))
    assignments: list[dict[int, int]] = []
    for combo in product(*(hosts for _, hosts in choices)):
        assignments.append(
            {v: owner for (v, _), owner in zip(choices, combo)}
        )
        if len(assignments) >= limit:
            break
    return assignments


def enumerate_execution_plans(pattern: Pattern) -> list[ExecutionPlan]:
    """All distinct-pivot execution plans with ``c_P`` units (at most
    ``MAX_PLANS`` of them)."""
    for size in range(1, pattern.num_vertices + 1):
        cds_list = connected_dominating_sets(pattern, size)
        if cds_list:
            break
    else:  # pragma: no cover - connected patterns always have a CDS
        return []
    plans: list[ExecutionPlan] = []
    for cds in cds_list:
        for pivots in permutations(sorted(cds)):
            # Prefix-connectivity: each pivot adjacent to an earlier one.
            valid = all(
                any(p in pattern.adj(pivots[i]) for p in pivots[:i])
                for i in range(1, len(pivots))
            )
            if not valid:
                continue
            budget = max(1, MAX_PLANS - len(plans))
            for leaf_owner in _leaf_assignments(pattern, pivots, budget):
                plan = _build_plan(pattern, pivots, leaf_owner)
                if plan is not None:
                    plans.append(plan)
            if len(plans) >= MAX_PLANS:
                return plans
    return plans


def score_plan(plan: ExecutionPlan, rho: float = 1.0) -> float:
    """Eq. (4): early verification edges and heavy pivots score higher."""
    total = 0.0
    for i, unit in enumerate(plan.units):
        total += unit.num_verification_edges / (i + 1) ** rho
        total += plan.pattern.degree(unit.pivot) / (i + 1)
    return total


def best_execution_plan(
    pattern: Pattern, rho: float = 1.0, plans: list[ExecutionPlan] | None = None
) -> ExecutionPlan:
    """Apply the paper's rules: min rounds, min span(dp0.piv), max score —
    over ``plans`` where the caller has enumerated the plan space already."""
    if plans is None:
        plans = enumerate_execution_plans(pattern)
    if not plans:
        raise ValueError("no execution plan found")
    min_span = min(pattern.span(p.start_vertex) for p in plans)
    candidates = [p for p in plans if pattern.span(p.start_vertex) == min_span]
    best = max(
        candidates,
        key=lambda p: (
            score_plan(p, rho),
            # Deterministic tie-break.
            tuple(-u.pivot for u in p.units),
        ),
    )
    return best


def plan_from_pivots(
    pattern: Pattern, pivots: list[int]
) -> ExecutionPlan:
    """Build the greedy-earliest-assignment plan for an explicit pivot order."""
    assignments = _leaf_assignments(pattern, tuple(pivots), limit=1)
    if not assignments:
        raise ValueError("pivot order admits no valid plan")
    plan = _build_plan(pattern, tuple(pivots), assignments[0])
    if plan is None:
        raise ValueError("pivot order yields an empty unit")
    return plan


def random_star_plan(pattern: Pattern, seed: int = 0) -> ExecutionPlan:
    """RanS baseline (Sec. C.2): a random valid plan, rounds unconstrained."""
    rng = random.Random(seed)
    for _ in range(200):
        pivots: list[int] = [rng.randrange(pattern.num_vertices)]
        covered = {pivots[0]} | set(pattern.adj(pivots[0]))
        while covered != set(pattern.vertices()):
            frontier = [
                v for v in sorted(covered)
                if v not in pivots and (pattern.adj(v) - covered)
            ]
            if not frontier:
                break
            nxt = rng.choice(frontier)
            pivots.append(nxt)
            covered |= pattern.adj(nxt)
        else:
            try:
                return plan_from_pivots(pattern, pivots)
            except ValueError:
                continue
    # Deterministic fallback: any enumerated plan.
    return enumerate_execution_plans(pattern)[0]


def random_minimum_round_plan(pattern: Pattern, seed: int = 0) -> ExecutionPlan:
    """RanM baseline: uniform choice among minimum-round plans."""
    plans = enumerate_execution_plans(pattern)
    rng = random.Random(seed)
    return plans[rng.randrange(len(plans))]


def matching_order(
    pattern: Pattern, units: list[DecompositionUnit]
) -> list[int]:
    """The total order of Def. 10 over the pattern vertices."""
    pivot_index = {unit.pivot: i for i, unit in enumerate(units)}
    order: list[int] = [units[0].pivot]
    for unit in units:
        def leaf_key(u: int) -> tuple:
            if u in pivot_index:
                # Pivot leaves first, by the index of the unit they pivot.
                return (0, pivot_index[u])
            return (1, -pattern.degree(u), u)

        order.extend(sorted(unit.leaves, key=leaf_key))
    return order
