"""Single-machine reference engine (ground truth for all distributed runs).

Runs the generic backtracking enumerator over the whole data graph on
machine 0 — the oracle every distributed engine must agree with.  It is
also the one built-in engine registered with ``supports_labels=True``:
:meth:`SingleMachineEngine.run_labeled` serves labeled queries through
the TurboIso-style matcher in :mod:`repro.enumeration.labeled`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.cluster import Cluster
from repro.engines.base import EnumerationEngine, RunResult
from repro.runtime.executor import Executor
from repro.enumeration.backtracking import (
    BacktrackingEnumerator,
    EnumerationStats,
)
from repro.query.pattern import Pattern

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.enumeration.labeled import LabeledPattern
    from repro.graph.labeled import LabeledGraph


class SingleMachineEngine(EnumerationEngine):
    """TurboIso-style sequential enumeration of the full graph."""

    name = "Single"
    explain_note = (
        "single-machine oracle: sequential backtracking over the whole "
        "graph on machine 0, following the matching order above (labeled "
        "queries add TurboIso label/degree/NLF candidate filters)"
    )

    def _execute(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        collect: bool,
        executor: Executor,
    ) -> list[tuple[int, ...]]:
        graph = cluster.graph
        stats = EnumerationStats()
        enumerator = BacktrackingEnumerator(
            pattern=pattern,
            adjacency=graph,
            constraints=constraints,
            stats=stats,
        )
        min_degree = pattern.degree(enumerator.order[0])
        candidates = np.flatnonzero(graph.degrees() >= min_degree)
        embeddings = []
        count = 0
        for emb in enumerator.run(candidates):
            count += 1
            if collect:
                embeddings.append(emb)
        machine = cluster.machine(0)
        machine.charge_ops(stats.total_ops, "enum_ops")
        machine.allocate(
            count * cluster.cost_model.embedding_bytes(pattern.num_vertices),
            "result_bytes",
        )
        self._count = count
        return embeddings

    # ------------------------------------------------------------------
    def run_labeled(
        self,
        cluster: Cluster,
        data: "LabeledGraph",
        query: "LabeledPattern",
        collect_embeddings: bool = True,
        limit: int | None = None,
    ) -> RunResult:
        """Labeled enumeration on machine 0 (TurboIso candidate filters).

        Counts match :func:`repro.enumeration.labeled.labeled_embeddings`
        exactly; stats (ops, result bytes) are charged to machine 0 the
        same way the unlabeled oracle charges them, and simulated OOM is
        reported as a failed RunResult (the same contract as
        :meth:`~repro.engines.base.EnumerationEngine.run`).  ``limit``
        truncates enumeration itself (not just the collected list), so it
        also caps the reported count.
        """
        from repro.cluster.machine import SimulatedMemoryError
        from repro.engines.base import _cluster_counters
        from repro.enumeration.labeled import LabeledEnumerator

        stats = EnumerationStats()
        enumerator = LabeledEnumerator(data=data, query=query, stats=stats)
        embeddings: list[tuple[int, ...]] = []
        count = 0
        try:
            for emb in enumerator.run(limit=limit):
                count += 1
                if collect_embeddings:
                    embeddings.append(emb)
            machine = cluster.machine(0)
            machine.charge_ops(stats.total_ops, "enum_ops")
            machine.allocate(
                count * cluster.cost_model.embedding_bytes(
                    query.pattern.num_vertices
                ),
                "result_bytes",
            )
        except SimulatedMemoryError as exc:
            return RunResult(
                engine=self.name,
                pattern_name=query.pattern.name,
                embedding_count=0,
                makespan=cluster.makespan(),
                total_comm_bytes=cluster.total_comm_bytes(),
                peak_memory=cluster.peak_memory(),
                per_machine_time=[m.finish_time for m in cluster.machines],
                failed=True,
                failure=str(exc),
                counters=_cluster_counters(cluster),
            )
        return RunResult(
            engine=self.name,
            pattern_name=query.pattern.name,
            embedding_count=count,
            makespan=cluster.makespan(),
            total_comm_bytes=cluster.total_comm_bytes(),
            peak_memory=cluster.peak_memory(),
            per_machine_time=[m.finish_time for m in cluster.machines],
            embeddings=embeddings if collect_embeddings else None,
            counters={
                "enum_ops": int(stats.total_ops),
                "candidates_scanned": int(stats.candidates_scanned),
                "recursive_calls": int(stats.recursive_calls),
            },
        )
