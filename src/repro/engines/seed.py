"""SEED baseline (Lai et al., PVLDB 2016).

An upgraded TwinTwig: decomposition units may be *cliques* as well as stars
(SEED's star-clique-preserved storage lets every machine list the cliques
around its owned vertices locally), and stars are not limited to two edges.
Clique units shrink both the number of join rounds and the intermediate
result volume on triangle-rich queries.

Simplification vs. the original: joins are left-deep rather than bushy; the
benefit SEED derives from clique units (fewer, more selective units) is
preserved, which is what the paper's comparison exercises.
"""

from __future__ import annotations

from itertools import combinations

from repro.cluster.cluster import Cluster
from repro.engines.base import EnumerationEngine
from repro.engines.join_common import DistributedJoinRunner, JoinUnit
from repro.runtime.executor import Executor
from repro.query.pattern import Pattern


def _pattern_cliques(pattern: Pattern) -> list[tuple[int, ...]]:
    """All cliques of the (tiny) pattern with at least three vertices."""
    cliques: list[tuple[int, ...]] = []
    vertices = list(pattern.vertices())
    for size in range(3, pattern.num_vertices + 1):
        for combo in combinations(vertices, size):
            if all(
                pattern.has_edge(a, b) for a, b in combinations(combo, 2)
            ):
                cliques.append(combo)
    return cliques


def seed_decomposition(pattern: Pattern) -> list[JoinUnit]:
    """Greedy cover of the pattern edges by clique units, then stars.

    Cliques are chosen largest-first while they cover >= 3 uncovered edges;
    leftover edges are grouped into unbounded stars.  Units are ordered so
    every unit after the first shares a vertex with the already-joined part.
    """
    remaining: set[tuple[int, int]] = set(pattern.edges())
    units: list[JoinUnit] = []
    for clique in sorted(
        _pattern_cliques(pattern), key=lambda c: -len(c)
    ):
        edges = {
            (min(a, b), max(a, b)) for a, b in combinations(clique, 2)
        }
        if edges <= remaining:
            units.append(
                JoinUnit(
                    vertices=clique,
                    covered_edges=tuple(sorted(edges)),
                    kind="clique",
                )
            )
            remaining -= edges
    # Remaining edges become unbounded stars.
    while remaining:
        counts: dict[int, list[tuple[int, int]]] = {}
        for e in remaining:
            for v in e:
                counts.setdefault(v, []).append(e)
        pivot = max(sorted(counts), key=lambda v: len(counts[v]))
        take = sorted(counts[pivot])
        leaves = tuple((a if b == pivot else b) for a, b in take)
        units.append(
            JoinUnit(
                vertices=(pivot, *leaves),
                covered_edges=tuple(take),
                kind="star",
            )
        )
        remaining -= set(take)
    # Order for join connectivity: first the largest unit, then any unit
    # sharing a vertex with what is already joined.
    ordered: list[JoinUnit] = []
    pending = list(units)
    pending.sort(key=lambda u: (-len(u.covered_edges), u.vertices))
    ordered.append(pending.pop(0))
    placed = set(ordered[0].vertices)
    while pending:
        for i, unit in enumerate(pending):
            if placed & set(unit.vertices):
                ordered.append(pending.pop(i))
                placed |= set(unit.vertices)
                break
        else:  # pragma: no cover - impossible for connected patterns
            ordered.append(pending.pop(0))
            placed |= set(ordered[-1].vertices)
    return ordered


class SEEDEngine(EnumerationEngine):
    """MapReduce joins over star + clique decomposition units."""

    name = "SEED"
    explain_note = (
        "bushy MapReduce join over star and clique units (see extras for "
        "the SEED units actually joined)"
    )

    def _explain_extras(self, pattern: Pattern) -> dict:
        return {
            "join_units": [
                {"kind": u.kind, "vertices": list(u.vertices)}
                for u in seed_decomposition(pattern)
            ],
        }

    def _execute(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        collect: bool,
        executor: Executor,
    ) -> list[tuple[int, ...]]:
        units = seed_decomposition(pattern)
        runner = DistributedJoinRunner(cluster, pattern, constraints, executor)
        results, count = runner.run_units(units, collect)
        self._count = count
        return results
