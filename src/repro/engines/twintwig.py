"""TwinTwig baseline (Lai et al., PVLDB 2015).

Decomposes the query into *TwinTwigs* — stars of at most two edges — and
evaluates them as a sequence of MapReduce left-deep joins.  Star instances
are cheap to produce locally (the centre's adjacency list suffices) but the
joined intermediate results explode on dense graphs, which is exactly the
failure mode the paper reports.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.engines.base import EnumerationEngine
from repro.engines.join_common import DistributedJoinRunner, JoinUnit
from repro.runtime.executor import Executor
from repro.query.pattern import Pattern


def twintwig_decomposition(pattern: Pattern) -> list[JoinUnit]:
    """Partition the pattern edges into connected stars of <= 2 edges.

    Greedy: among vertices already joined (after the first unit), pick the
    pivot with most uncovered incident edges; take up to two of them,
    preferring leaves that connect back to the covered part.
    """
    remaining: set[tuple[int, int]] = set(pattern.edges())
    units: list[JoinUnit] = []
    covered: set[int] = set()

    def uncovered_incident(v: int) -> list[tuple[int, int]]:
        return [
            e for e in remaining if v in e
        ]

    while remaining:
        if covered:
            candidates = [v for v in sorted(covered) if uncovered_incident(v)]
        else:
            candidates = sorted(pattern.vertices())
        pivot = max(candidates, key=lambda v: (len(uncovered_incident(v)), -v))
        incident = uncovered_incident(pivot)
        # Prefer closing edges into the covered region first.
        incident.sort(
            key=lambda e: (
                0 if (e[0] if e[1] == pivot else e[1]) in covered else 1,
                e,
            )
        )
        take = incident[:2]
        leaves = tuple(
            (a if b == pivot else b) for a, b in take
        )
        units.append(
            JoinUnit(
                vertices=(pivot, *leaves),
                covered_edges=tuple(take),
                kind="star",
            )
        )
        remaining -= set(take)
        covered |= {pivot, *leaves}
    assert not remaining
    return units


class TwinTwigEngine(EnumerationEngine):
    """MapReduce joins over <=2-edge star decomposition units."""

    name = "TwinTwig"
    explain_note = (
        "left-deep MapReduce join over <=2-edge star units (the plan "
        "above is the paper's decomposition view; see extras for the "
        "twin-twig units actually joined)"
    )

    def _explain_extras(self, pattern: Pattern) -> dict:
        units = twintwig_decomposition(pattern)
        return {
            "join_units": [
                {"kind": u.kind, "vertices": list(u.vertices)}
                for u in units
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
        units = twintwig_decomposition(pattern)
        runner = DistributedJoinRunner(cluster, pattern, constraints, executor)
        results, count = runner.run_units(units, collect)
        self._count = count
        return results
