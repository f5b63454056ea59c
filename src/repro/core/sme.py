"""Single-machine enumeration split (paper Sec. 3.1, Prop. 1).

For the starting query vertex ``u_start = dp0.piv``, any candidate vertex
whose border distance is at least ``Span(u_start)`` can only appear in
embeddings fully contained in the local partition, so those candidates are
handled by an ordinary single-machine algorithm over the local subgraph —
no communication, no distributed bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import Machine
from repro.core.region import MemoryEstimator
from repro.enumeration.backtracking import EnumerationStats, MatchingTables
from repro.enumeration.block import first_diff
from repro.partition.partition import MachinePartition
from repro.query.pattern import Pattern
from repro.query.plan import ExecutionPlan


@dataclass
class SMEResult:
    """Output of the SM-E phase on one machine (no ``embeddings`` when count-only)."""

    embeddings: list[tuple[int, ...]]
    count: int
    local_candidates: list[int]
    distributed_candidates: list[int]
    stats: EnumerationStats


class SingleMachineSplit:
    """Computes C(u_start), the C1 split and runs SM-E over C1; one split,
    and the kernel tables it compiles, serve every machine of a query."""

    def __init__(self, pattern: Pattern, plan: ExecutionPlan,
                 constraints: list[tuple[int, int]]):
        self._pattern = pattern
        self._plan = plan
        self._span = pattern.span(plan.start_vertex)
        self._tables = MatchingTables(pattern, constraints, [plan.matching_order()])

    def _is_candidate(self, local: MachinePartition) -> np.ndarray:
        """Mask over the owned vertices: degree filter of ``u_start``."""
        min_degree = self._pattern.degree(self._plan.start_vertex)
        return local.owned_degrees >= min_degree

    def candidates(self, local: MachinePartition) -> list[int]:
        """C(u_start): owned vertices passing the degree filter."""
        return local.owned_vertices[self._is_candidate(local)].tolist()

    def split(
        self, local: MachinePartition
    ) -> tuple[list[int], list[int]]:
        """(C1, C - C1): SM-E candidates vs distributed candidates."""
        candidate = self._is_candidate(local)
        far = local.border_distances >= self._span
        owned = local.owned_vertices
        return owned[candidate & far].tolist(), owned[candidate & ~far].tolist()

    def run(
        self,
        local: MachinePartition,
        machine: Machine,
        estimator: MemoryEstimator | None = None,
        collect: bool = True,
    ) -> SMEResult:
        """Enumerate all embeddings rooted at C1 locally; charge the clock.

        Prop. 1 guarantees these embeddings involve only owned vertices, so
        the enumerator is restricted to the owned subgraph.  When an
        ``estimator`` is supplied it is calibrated with the average trie
        cost per start vertex (Sec. 6).  The kernel's blocks are counted as
        they are; tuples are made only when ``collect`` asks for them.
        """
        sme_candidates, distributed = self.split(local)
        stats = EnumerationStats()
        starts = np.asarray(sme_candidates, dtype=np.int64).reshape(-1, 1)
        blocks = self._tables.emit(local.graph, stats, starts, local.owned_mask, charge=True)
        rows = np.concatenate([
            np.empty((0, self._pattern.num_vertices), dtype=np.int64), *(b for _, b in blocks)
        ])
        machine.charge_ops(stats.total_ops, "sme_ops")
        # Benchmarks read this to report the SM-E share of the result set.
        machine.counters["sme_embeddings"] += len(rows)
        if estimator is not None and sme_candidates:
            # Depth-first in matching order the block is its own trie (Def. 11):
            # a row opens a node per column from where it leaves the row before.
            ordered = rows[:, self._plan.matching_order()]
            nodes = int((ordered.shape[1] - first_diff(ordered)).sum())
            estimator.calibrate(nodes, len(sme_candidates))
        return SMEResult(
            embeddings=list(map(tuple, rows.tolist())) if collect else [],
            count=len(rows),
            local_candidates=sme_candidates,
            distributed_candidates=distributed,
            stats=stats,
        )
