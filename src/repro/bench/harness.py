"""Experiment harness: runs engine x query grids and formats paper tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.config import RunConfig
from repro.api.execute import execute_once
from repro.api.registry import EngineRegistry, default_registry
from repro.api.session import resolve_pattern
from repro.engines.base import EnumerationEngine, RunResult
from repro.graph.graph import Graph
from repro.query.pattern import Pattern
from repro.runtime import Executor


@dataclass
class GridResult:
    """Results of one dataset's engine x query grid."""

    dataset: str
    num_machines: int
    results: dict[tuple[str, str], RunResult] = field(default_factory=dict)

    def get(self, engine: str, query: str) -> RunResult | None:
        """Result for (engine, query), or None if not run."""
        return self.results.get((engine, query))

    def engines(self) -> list[str]:
        """Engine names present, in first-seen order."""
        seen: list[str] = []
        for engine, _ in self.results:
            if engine not in seen:
                seen.append(engine)
        return seen

    def queries(self) -> list[str]:
        """Query names present, in first-seen order."""
        seen: list[str] = []
        for _, query in self.results:
            if query not in seen:
                seen.append(query)
        return seen


def run_query_grid(
    graph: Graph,
    dataset_name: str,
    queries: "list[str | Pattern]",
    engines: "Mapping[str, EnumerationEngine] | list[str] | None" = None,
    check_consistency: bool = True,
    executor: Executor | None = None,
    config: RunConfig | None = None,
    registry: EngineRegistry | None = None,
    engine_kwargs: Mapping[str, Mapping[str, Any]] | None = None,
    partition=None,
    collect: bool = False,
    limit: int | None = None,
) -> GridResult:
    """Run every engine on every query over a shared partition.

    Engines default to the registry's paper tier (Sec. 7) — pass a list
    of registry names or a name -> instance mapping to race a custom
    line-up, and ``engine_kwargs`` (per canonical name) to configure the
    registry-built ones.  Engines
    never see each other's clusters (fresh clocks/memory per run); with
    ``check_consistency`` all successful engines must report the same
    embedding count per query.

    ``config`` describes the cluster/backend declaratively (default:
    ``RunConfig()``).  Pass a ready-made ``executor`` to share one process
    pool across grids, and/or a prebuilt ``partition`` (matching the
    graph and machine count) to skip repartitioning.  ``collect`` keeps
    full embeddings on every result (``limit`` truncates each run's
    collected list; stats/counts are unaffected) — the default counts
    only, which is what the paper tables need.
    """
    config = config or RunConfig()
    if engines is None or isinstance(engines, (list, tuple)):
        engines = (registry or default_registry()).create_all(
            None if engines is None else list(engines),
            graph=graph, engine_kwargs=engine_kwargs, paper=True,
        )
    elif engine_kwargs:
        raise ValueError(
            "engine_kwargs only configures registry-built engines; "
            "it cannot apply to a ready engines mapping"
        )
    base = config.make_cluster(graph, partition=partition)
    grid = GridResult(dataset_name, config.machines)
    own_executor = executor is None
    executor = executor or config.make_executor(graph=graph)
    try:
        for query in queries:
            pattern = resolve_pattern(query)
            # Registered names key the grid in canonical (lower-case)
            # form; Pattern objects (possibly unregistered) key by their
            # own name.
            qname = (
                query.lower() if isinstance(query, str) else pattern.name
            )
            counts: dict[str, int] = {}
            for ename, engine in engines.items():
                result = execute_once(
                    engine, base.fresh_copy(), pattern,
                    collect=collect, executor=executor,
                )
                if limit is not None and result.embeddings is not None:
                    result.embeddings = result.embeddings[:limit]
                grid.results[(ename, qname)] = result
                if not result.failed:
                    counts[ename] = result.embedding_count
            if check_consistency and len(set(counts.values())) > 1:
                raise AssertionError(
                    f"engines disagree on {dataset_name}/{qname}: {counts}"
                )
    finally:
        if own_executor:
            executor.close()
    return grid


def _format_table(
    grid: GridResult,
    metric,
    header: str,
    unit: str,
) -> str:
    engines = grid.engines()
    queries = grid.queries()
    width = 12
    lines = [
        f"{header} — {grid.dataset} ({grid.num_machines} machines, {unit})",
        " " * 10 + "".join(f"{q:>{width}}" for q in queries),
    ]
    for engine in engines:
        cells = []
        for q in queries:
            result = grid.get(engine, q)
            if result is None:
                cells.append(f"{'-':>{width}}")
            elif result.failed:
                cells.append(f"{'OOM':>{width}}")
            else:
                cells.append(f"{metric(result):>{width}.3f}")
        lines.append(f"{engine:<10}" + "".join(cells))
    return "\n".join(lines)


def format_time_table(grid: GridResult) -> str:
    """Simulated elapsed-time table (paper Figs. 8a-11)."""
    return _format_table(
        grid, lambda r: r.makespan, "Time elapsed", "simulated s"
    )


def format_comm_table(grid: GridResult) -> str:
    """Communication-cost table (paper Figs. 8b-10b)."""
    return _format_table(
        grid, lambda r: r.comm_mb, "Communication cost", "MB"
    )
