"""Public API: engine registry, run configuration and the session facade.

This package is the stable surface every entry point (CLI, bench harness,
examples, future services) is built on::

    import repro

    result = (
        repro.open("road.npz")
        .with_cluster(machines=10, memory_mb=512)
        .engine("rads")
        .query("q4")
        .run()
    )
    print(result.summary())
    record = result.to_dict()          # JSON-safe; RunResult.from_dict inverts

Pieces:

- :class:`EngineRegistry` / :func:`register_engine` / :func:`default_registry`
  — one case-insensitive name/alias -> engine mapping with capability
  metadata and per-engine factory kwargs (`repro.api.registry`).
- :class:`RunConfig` — validated cluster + backend + result-mode
  configuration (`repro.api.config`).
- :class:`Session` / :func:`open_session` — fluent composition and
  ``run_grid`` sweeps (`repro.api.session`).
- JSON/JSONL result serialization (`repro.api.results`).
"""

from repro.api.config import MIB, ConfigError, PARTITIONER_NAMES, RunConfig
from repro.api.registry import (
    CapabilityError,
    EngineRegistry,
    EngineSpec,
    UnknownEngineError,
    default_registry,
    register_engine,
)
from repro.api.results import (
    STORE_READ_KINDS,
    append_record_jsonl,
    read_records_jsonl,
    read_results_jsonl,
    record_from_dict,
    record_to_dict,
    write_results_jsonl,
)
from repro.api.session import (
    Session,
    UnknownQueryError,
    load_graph,
    open_session,
    resolve_pattern,
    resolve_query,
)
from repro.api.session import open  # noqa: A004 - the facade's spelling
from repro.engines.base import RunResult
from repro.query.dsl import (
    PatternBuilder,
    PatternSyntaxError,
    parse_pattern,
    pattern,
)
from repro.query.explain import QueryExplanation, explain_query

__all__ = [
    "CapabilityError",
    "ConfigError",
    "EngineRegistry",
    "EngineSpec",
    "MIB",
    "PARTITIONER_NAMES",
    "PatternBuilder",
    "PatternSyntaxError",
    "QueryExplanation",
    "RunConfig",
    "RunResult",
    "STORE_READ_KINDS",
    "Session",
    "UnknownEngineError",
    "UnknownQueryError",
    "append_record_jsonl",
    "default_registry",
    "explain_query",
    "load_graph",
    "open",
    "open_session",
    "parse_pattern",
    "pattern",
    "read_records_jsonl",
    "read_results_jsonl",
    "record_from_dict",
    "record_to_dict",
    "register_engine",
    "resolve_pattern",
    "resolve_query",
    "write_results_jsonl",
]
