"""The one execution core behind every run.

:meth:`repro.api.session.Session.run`, the query scheduler's worker
threads and the benchmark grid all execute a query the same way; the
sequence lives here, once, so its ordering rules cannot drift apart.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Any

from repro.obs.profile import Profiler
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.cluster.cluster import Cluster
    from repro.engines.base import EnumerationEngine, RunResult
    from repro.enumeration.labeled import LabeledPattern
    from repro.graph.labeled import LabeledGraph
    from repro.query.pattern import Pattern
    from repro.runtime.executor import Executor
    from repro.store import EmbeddingStore

__all__ = ["execute_once"]


def execute_once(
    engine: "EnumerationEngine",
    cluster: "Cluster",
    pattern: "Pattern",
    *,
    collect: "bool | str",
    executor: "Executor | None",
    store: "EmbeddingStore | None" = None,
    key: "tuple | None" = None,
    trace: bool = False,
    profile: bool = False,
    root: str = "session.run",
    labeled: "tuple[LabeledGraph, LabeledPattern, int | None] | None" = None,
    tracer: "Tracer | None" = None,
) -> "RunResult":
    """Run ``engine`` on ``pattern`` over ``cluster``, once.

    ``collect`` is the tri-state result mode; ``"store"`` persists a
    successful enumeration to ``store`` under ``key`` and returns a
    counts-only copy (the embeddings live in the store and are paged
    from there).  ``trace`` / ``profile`` attach the span tree / the
    resource profile to the returned result under a root span named
    ``root`` — a profiled run always traces internally, because the
    flame table is an aggregation of the span tree, but the tree is
    attached only when tracing was asked for.  Both are attached *after*
    the store write: a persisted set never carries one request's
    diagnostics.  Counts and stats are bit-identical with or without
    them.  ``tracer`` lets a caller that wants the trace id afterwards
    supply the tracer a diagnosed run records into.

    ``labeled`` is ``(labeled graph, labeled pattern, limit)`` for a
    label-constrained run through the engine's ``run_labeled`` (there
    the limit caps enumeration itself).
    """
    if tracer is None and (trace or profile):
        tracer = Tracer()
    profiler = Profiler() if profile else None
    span: Any = (
        nullcontext()
        if tracer is None
        else tracer.root(root, pattern=pattern.name, engine=engine.name)
    )
    with span, nullcontext() if profiler is None else profiler:
        if labeled is None:
            result = engine.run(
                cluster,
                pattern,
                collect_embeddings=bool(collect),
                executor=executor,
            )
        else:
            labeled_graph, labeled_pattern, limit = labeled
            result = engine.run_labeled(
                cluster,
                labeled_graph,
                labeled_pattern,
                collect_embeddings=collect,
                limit=limit,
            )
    if collect == "store" and not result.failed:
        from repro.service.cache import copy_result

        store.put(key, pattern, result)
        result = copy_result(result)
        result.embeddings = None
    if trace:
        result.trace = tracer.tree()
    if profiler is not None:
        result.profile = profiler.result(tree=tracer.tree())
    return result
