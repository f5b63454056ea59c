"""RADS — reproduction of "Fast and Robust Distributed Subgraph
Enumeration" (Ren, Wang, Han, Yu; VLDB 2019) on a simulated cluster.

The public surface is the :mod:`repro.api` session facade::

    import repro

    result = (
        repro.open("road.npz")            # or an in-memory Graph
        .with_cluster(machines=10, memory_mb=512)
        .engine("rads")                    # any registry name/alias
        .query("q4")
        .run()
    )
    print(result.summary())
    record = result.to_dict()              # JSON-safe, from_dict inverts

Engines are resolved through :func:`repro.api.default_registry`; runs are
configured with :class:`repro.api.RunConfig`; ``Session.run_grid`` sweeps
engine x query grids.  The lower layers remain importable for direct use::

    from repro import Graph, Pattern, Cluster, RADSEngine, paper_query

    cluster = Cluster.create(graph, num_machines=10)
    result = RADSEngine().run(cluster, paper_query("q4"))

Heavier pieces (baseline engines, benchmark harness, labeled layer) live
in their subpackages: :mod:`repro.engines`, :mod:`repro.bench`,
:mod:`repro.enumeration`, :mod:`repro.graph`, :mod:`repro.partition`.
"""

from __future__ import annotations

__version__ = "1.3.0"

#: Lazily resolved re-exports: name -> (module, attribute).  Resolving on
#: first access keeps ``import repro`` light and the import graph acyclic
#: (repro.core imports repro.engines.base and vice versa via registries).
_EXPORTS: dict[str, tuple[str, str]] = {
    # -- the repro.api facade ------------------------------------------
    "open": ("repro.api.session", "open_session"),
    "open_session": ("repro.api.session", "open_session"),
    "load_graph": ("repro.api.session", "load_graph"),
    "Session": ("repro.api.session", "Session"),
    "RunConfig": ("repro.api.config", "RunConfig"),
    "ConfigError": ("repro.api.config", "ConfigError"),
    "EngineRegistry": ("repro.api.registry", "EngineRegistry"),
    "EngineSpec": ("repro.api.registry", "EngineSpec"),
    "register_engine": ("repro.api.registry", "register_engine"),
    "default_registry": ("repro.api.registry", "default_registry"),
    "UnknownEngineError": ("repro.api.registry", "UnknownEngineError"),
    "UnknownQueryError": ("repro.api.session", "UnknownQueryError"),
    "CapabilityError": ("repro.api.registry", "CapabilityError"),
    "write_results_jsonl": ("repro.api.results", "write_results_jsonl"),
    "read_results_jsonl": ("repro.api.results", "read_results_jsonl"),
    "read_records_jsonl": ("repro.api.results", "read_records_jsonl"),
    "append_record_jsonl": ("repro.api.results", "append_record_jsonl"),
    # -- the distributed shard runtime ---------------------------------
    "SocketExecutor": ("repro.distributed.executor", "SocketExecutor"),
    "ShardWorker": ("repro.distributed.worker", "ShardWorker"),
    "ShardCoordinator": ("repro.distributed.coordinator", "ShardCoordinator"),
    "DistributedError": ("repro.distributed.errors", "DistributedError"),
    "stop_worker": ("repro.distributed.worker", "stop_worker"),
    # -- the query service layer ---------------------------------------
    "connect": ("repro.service.client", "connect"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "ServiceError": ("repro.service.client", "ServiceError"),
    "QueryScheduler": ("repro.service.scheduler", "QueryScheduler"),
    "QueryServer": ("repro.service.server", "QueryServer"),
    "ResultCache": ("repro.service.cache", "ResultCache"),
    "ServiceTimeout": ("repro.service.scheduler", "ServiceTimeout"),
    "AdmissionError": ("repro.service.scheduler", "AdmissionError"),
    "Subscription": ("repro.service.client", "Subscription"),
    # -- the persistent embedding store --------------------------------
    "EmbeddingStore": ("repro.store", "EmbeddingStore"),
    "TrieColumns": ("repro.store", "TrieColumns"),
    "pattern_orbits": ("repro.store", "pattern_orbits"),
    # -- streaming ingest + continuous queries -------------------------
    "ContinuousQueryManager": ("repro.streaming.continuous", "ContinuousQueryManager"),
    "Watch": ("repro.streaming.continuous", "Watch"),
    "IncrementalMatcher": ("repro.streaming.incremental", "IncrementalMatcher"),
    "DeltaRecord": ("repro.streaming.records", "DeltaRecord"),
    "GraphVersion": ("repro.streaming.version", "GraphVersion"),
    "VersionedGraph": ("repro.streaming.version", "VersionedGraph"),
    # -- the declarative query surface ---------------------------------
    "pattern": ("repro.query.dsl", "parse_pattern"),
    "parse_pattern": ("repro.query.dsl", "parse_pattern"),
    "PatternBuilder": ("repro.query.dsl", "PatternBuilder"),
    "PatternSyntaxError": ("repro.query.dsl", "PatternSyntaxError"),
    "QueryExplanation": ("repro.query.explain", "QueryExplanation"),
    "explain_query": ("repro.query.explain", "explain_query"),
    "resolve_query": ("repro.api.session", "resolve_query"),
    # -- lower layers ---------------------------------------------------
    "Graph": ("repro.graph.graph", "Graph"),
    "GraphBuilder": ("repro.graph.builder", "GraphBuilder"),
    "LabeledGraph": ("repro.graph.labeled", "LabeledGraph"),
    "Pattern": ("repro.query.pattern", "Pattern"),
    "LabeledPattern": ("repro.enumeration.labeled", "LabeledPattern"),
    "paper_query": ("repro.query.patterns", "paper_query"),
    "named_patterns": ("repro.query.patterns", "named_patterns"),
    "Cluster": ("repro.cluster.cluster", "Cluster"),
    "CostModel": ("repro.cluster.costmodel", "CostModel"),
    "RADSEngine": ("repro.core.rads", "RADSEngine"),
    "RunResult": ("repro.engines.base", "RunResult"),
    "enumerate_embeddings": ("repro.enumeration.backtracking", "enumerate_embeddings"),
    "labeled_embeddings": ("repro.enumeration.labeled", "labeled_embeddings"),
    "best_execution_plan": ("repro.query.plan", "best_execution_plan"),
    "Executor": ("repro.runtime.executor", "Executor"),
    "SerialExecutor": ("repro.runtime.executor", "SerialExecutor"),
    "ProcessExecutor": ("repro.distributed.executor", "ProcessExecutor"),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def _lazy(package: str, exports: dict[str, tuple[str, str]]):
    """A package's ``__getattr__`` and ``__dir__`` over ``exports``: each
    name is imported on first access, then cached in the package."""
    import importlib
    import sys

    def __getattr__(name: str):
        try:
            module_name, attribute = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module_name), attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
