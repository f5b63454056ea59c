"""Engine interface and result record shared by all five approaches."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cluster.cluster import Cluster
from repro.cluster.machine import SimulatedMemoryError
from repro.obs.trace import span as _obs_span
from repro.query.pattern import Pattern
from repro.query.symmetry import symmetry_breaking_constraints
from repro.runtime.executor import Executor, SerialExecutor

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.query.explain import QueryExplanation


@dataclass
class RunResult:
    """Outcome of one enumeration run on a simulated cluster.

    ``makespan`` and ``total_comm_bytes`` are the quantities plotted in the
    paper's Figs. 8-11; ``failed`` marks simulated out-of-memory runs (the
    paper's empty bars).

    ``trace`` is the nested span tree of a traced run (see
    :mod:`repro.obs.trace`) — ``None`` unless the caller asked for
    tracing — and ``profile`` is the resource profile of a profiled run
    (see :mod:`repro.obs.profile`).  Both are per-request diagnostics,
    not part of the result identity: cached and stored copies are
    persisted with them stripped.
    """

    engine: str
    pattern_name: str
    embedding_count: int
    makespan: float
    total_comm_bytes: int
    peak_memory: int
    per_machine_time: list[float]
    embeddings: list[tuple[int, ...]] | None = None
    failed: bool = False
    failure: str | None = None
    counters: dict[str, int] = field(default_factory=dict)
    trace: dict[str, Any] | None = None
    profile: dict[str, Any] | None = None

    @property
    def comm_mb(self) -> float:
        """Communication volume in megabytes."""
        return self.total_comm_bytes / 1e6

    def summary(self) -> str:
        """One-line, paper-table-style summary."""
        if self.failed:
            return (
                f"{self.engine:>9} {self.pattern_name:>6}  OOM "
                f"({self.failure})"
            )
        return (
            f"{self.engine:>9} {self.pattern_name:>6}  "
            f"time={self.makespan:10.3f}s  comm={self.comm_mb:9.3f}MB  "
            f"peak={self.peak_memory / 1e6:8.2f}MB  "
            f"emb={self.embedding_count}"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict form (tuples become lists; inverse: from_dict)."""
        data = {
            "engine": self.engine,
            "pattern_name": self.pattern_name,
            "embedding_count": self.embedding_count,
            "makespan": self.makespan,
            "total_comm_bytes": self.total_comm_bytes,
            "peak_memory": self.peak_memory,
            "per_machine_time": [float(t) for t in self.per_machine_time],
            "embeddings": (
                None if self.embeddings is None
                else [list(emb) for emb in self.embeddings]
            ),
            "failed": self.failed,
            "failure": self.failure,
            "counters": {str(k): int(v) for k, v in self.counters.items()},
        }
        if self.trace is not None:
            # Untraced records keep the exact pre-tracing shape, so
            # persisted request logs and cache files stay byte-stable.
            data["trace"] = self.trace
        if self.profile is not None:
            data["profile"] = self.profile
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunResult":
        """Rebuild a RunResult from :meth:`to_dict` output."""
        embeddings = data.get("embeddings")
        return cls(
            engine=data["engine"],
            pattern_name=data["pattern_name"],
            embedding_count=int(data["embedding_count"]),
            makespan=float(data["makespan"]),
            total_comm_bytes=int(data["total_comm_bytes"]),
            peak_memory=int(data["peak_memory"]),
            per_machine_time=[float(t) for t in data["per_machine_time"]],
            embeddings=(
                None if embeddings is None
                else [tuple(map(int, emb)) for emb in embeddings]
            ),
            failed=bool(data.get("failed", False)),
            failure=data.get("failure"),
            counters={
                str(k): int(v)
                for k, v in (data.get("counters") or {}).items()
            },
            trace=data.get("trace"),
            profile=data.get("profile"),
        )


class EnumerationEngine(ABC):
    """A distributed subgraph-enumeration approach."""

    name: str = "engine"

    #: One-line execution-strategy note included in :meth:`explain` output.
    explain_note: str = ""

    @abstractmethod
    def _execute(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        collect: bool,
        executor: Executor,
    ) -> list[tuple[int, ...]]:
        """Run the algorithm; return embeddings (empty list when not collecting,
        in which case ``self._count`` must be set).

        ``executor`` is the execution backend for independent per-machine /
        per-region-group units of work; engines that are inherently
        sequential may ignore it.
        """

    # -- observability -------------------------------------------------
    def round_span(self, name: str, **attributes: Any):
        """A per-round tracing span, ``round.<name>`` (no-op untraced).

        Engines wrap each execution round (SM-E split, an R-Meef unit,
        a join round …) in ``with self.round_span("r-meef", unit=2):`` —
        when the run was started under a root span
        (``Session.run(trace=True)`` or a traced ``submit``) the round
        becomes a child span; otherwise this is a single context-variable
        read returning a shared no-op.  Spans observe, never perturb:
        nothing in the simulated cost model reads them.
        """
        return _obs_span(f"round.{name}", engine=self.name, **attributes)

    # -- inspection ----------------------------------------------------
    def execution_plan(self, pattern: Pattern, plans=None):
        """The decomposition this engine would run ``pattern`` with.

        The default is the paper's three-heuristic choice
        (:func:`repro.query.plan.best_execution_plan`, over ``plans`` if
        the caller has enumerated the plan space); engines with their
        own planner (RADS's ``plan_provider``) override this so
        :meth:`explain` reports the plan they would actually execute.
        """
        from repro.query.plan import best_execution_plan

        return best_execution_plan(pattern, plans=plans)

    def _explain_extras(self, pattern: Pattern) -> dict[str, Any]:
        """Engine-specific structure surfaced in :meth:`explain`."""
        return {}

    def explain(self, query, *, graph=None) -> "QueryExplanation":
        """A serializable :class:`~repro.query.explain.QueryExplanation`.

        ``query`` is a :class:`Pattern` or
        :class:`~repro.enumeration.labeled.LabeledPattern`; pass the data
        ``graph`` to include per-round cost-model estimates.  The record
        mirrors :class:`RunResult`: ``to_dict()``/``from_dict()`` round-trip
        through JSON and ``str()`` pretty-prints the plan.
        """
        from repro.query.explain import explain_query
        from repro.query.plan import enumerate_execution_plans

        pattern = getattr(query, "pattern", query)
        plans = enumerate_execution_plans(pattern)
        return explain_query(
            query,
            engine=self.name,
            graph=graph,
            plan=self.execution_plan(pattern, plans),
            plans=plans,
            extras=self._explain_extras(pattern),
            notes=self.explain_note,
        )

    def run_labeled(
        self,
        cluster: Cluster,
        data,
        query,
        collect_embeddings: bool = True,
        limit: int | None = None,
    ) -> RunResult:
        """Run a labeled query (``LabeledGraph`` + ``LabeledPattern``).

        Only engines registered with ``supports_labels=True`` implement
        this; the session facade checks the capability before calling.
        """
        raise NotImplementedError(
            f"{self.name} does not support labeled queries"
        )

    def run(
        self,
        cluster: Cluster,
        pattern: Pattern,
        collect_embeddings: bool = True,
        executor: Executor | None = None,
    ) -> RunResult:
        """Execute on ``cluster`` and package stats into a RunResult.

        Simulated OOM is caught and reported as a failed run rather than an
        exception, matching how the paper reports crashed competitors.

        ``executor`` selects the execution backend (default: serial).  The
        embedding counts — and, for schedule-free engines, every reported
        statistic — are independent of the backend and its worker count.
        """
        constraints = symmetry_breaking_constraints(pattern)
        self._count = 0
        try:
            embeddings = self._execute(
                cluster, pattern, constraints, collect_embeddings,
                executor or SerialExecutor(),
            )
        except SimulatedMemoryError as exc:
            # The failure path keeps the per-machine counters accumulated
            # up to the OOM: the paper's "crashed competitor" bars still
            # report how much work (and communication) the run burned.
            return RunResult(
                engine=self.name,
                pattern_name=pattern.name,
                embedding_count=0,
                makespan=cluster.makespan(),
                total_comm_bytes=cluster.total_comm_bytes(),
                peak_memory=cluster.peak_memory(),
                per_machine_time=[m.finish_time for m in cluster.machines],
                failed=True,
                failure=str(exc),
                counters=_cluster_counters(cluster),
            )
        count = len(embeddings) if collect_embeddings else self._count
        return RunResult(
            engine=self.name,
            pattern_name=pattern.name,
            embedding_count=count,
            makespan=cluster.makespan(),
            total_comm_bytes=cluster.total_comm_bytes(),
            peak_memory=cluster.peak_memory(),
            per_machine_time=[m.finish_time for m in cluster.machines],
            embeddings=embeddings if collect_embeddings else None,
            counters=_cluster_counters(cluster),
        )


def _cluster_counters(cluster: Cluster) -> dict[str, int]:
    """Per-machine operation counters merged across the cluster."""
    merged: Counter[str] = Counter()
    for machine in cluster.machines:
        merged.update(machine.counters)
    return dict(merged)
