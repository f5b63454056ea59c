"""The reach map: which ``src/`` functions the program's entry points run,
and which of their defaulted parameters the entry points set.

    python tests/reach.py            # runs every entry point, ~9 min on 2 vCPU
    python tests/reach.py --check    # re-reads tests/data/reach.json only

Every entry point runs in a process of its own with ``tests/reach_hook``'s
``sitecustomize.py`` loaded into it and into every Python process it
starts (shard workers forked by the process backend, ``repro serve`` /
``repro worker`` daemons, the benchmark's served child).  Each process
writes the functions it entered, and the defaulted parameters it saw
given a value other than their default; this script merges them per
entry point into ``tests/data/reach.json``.

``functions``: for every function and method defined at the top level of
a ``src/`` module or class, the entry points that reach it (an abstract
method, whose body only raises ``NotImplementedError``, is reached where
an override is).  A function no entry point reaches is tagged instead, in
the tables below:

- ``reference``: a test checks the program's output against it (an
  oracle, a theorem's brute force), named by the test;
- ``documented``: a public name that ``docs/`` describes, found by its
  name in a code span there, or listed by hand with where it is described.

``knobs``: for every defaulted parameter of a reached function, the entry
points that passed it a non-default value (the hook fingerprints scalars
and tuples of scalars by ``repr``, functions by name, the rest by type).
A parameter no entry point sets is tagged instead (``KNOB_TAGS``, each
tag checked against its evidence): ``fake`` (a test substitutes a clock
or journal through it), ``surface`` (a CLI flag or protocol field feeds
it, with the same default), ``documented`` (``docs/``, or a doctest CI
runs, says what it does) or ``golden`` (a parity golden sets it); those
of ``repro/bench/`` are ``deferred`` (``DEFERRED``).

A function or parameter that is neither reached nor tagged is listed as
``unaccounted`` / ``unaccounted_knobs``, and the script exits 1: delete
it (a parameter becomes a constant), or say why it stays.  The file is
sorted and has no timings, so two runs write the same bytes.

The entry points: the five ``perf/`` workloads with ``--smoke`` at
``--trace 0`` and ``--trace 1``; every ``examples/*.py``; each CI smoke
step (``tests/smoke/*.sh``); one call of every CLI subcommand (the
transcript behind ``tests/data/cli_transcript.json`` plus ``generate``,
``enumerate``, ``plan``, ``explain``, ``labeled`` and ``profile``); and
every ``benchmarks/test_*.py`` but Fig. 15, which does not finish on a
8 GB machine and contributes only the ``repro`` functions it imports.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOOK = HERE / "reach_hook" / "sitecustomize.py"
OUT = HERE / "data" / "reach.json"
DOCS = ("docs/api.md", "docs/protocol.md", "docs/worker-protocol.md")
PY = sys.executable

WORKLOADS = ("enum_sparse", "enum_skewed", "sharded_batch", "served_hot", "stream_delta")
#: CI's order: the later steps read the graph the CLI step writes.
SMOKE = ("cli", "service", "distributed", "streaming", "store", "trace", "health")
#: Benchmarks that do not finish here (ROADMAP item 1): their imports only.
UNFINISHED = ("test_fig15_clique_queries.py",)
TIMEOUT = 900.0
MEMORY = 4 << 30  # address-space cap per process: a runaway fails, not the machine

#: Unreached functions that a test uses as the reference for program output.
REFERENCE = {
    "repro/enumeration/backtracking.py::MatchingTables.block":
        "tests/test_rooted_block.py::TestTaggedBlockEqualsThePerPlanLoop"
        "::test_ordered_lists_and_counters",
    "repro/graph/algorithms.py::connected_components":
        "tests/test_generators.py::TestPowerlawCluster::test_connected",
    "repro/graph/algorithms.py::triangles":
        "tests/test_graph_algorithms.py::TestTriangles::test_count_matches_listing",
    "repro/graph/cliques.py::enumerate_cliques":
        "tests/test_crystal.py::TestCliqueIndex::test_counts_match_enumeration",
    "repro/graph/generators.py::preferential_attachment":
        "tests/test_generators.py::TestPowerlawCluster::test_more_triangles_than_ba",
    "repro/graph/graph.py::Graph.__eq__":
        "tests/test_streaming.py::TestApplyBatch::test_matches_from_edges_ground_truth",
    "repro/graph/graph.py::Graph.__hash__":
        "tests/test_streaming.py::TestApplyBatch::test_matches_from_edges_ground_truth",
    "repro/obs/counters.py::unknown_counters":
        "tests/test_counter_registry.py::TestRealWorkloadsEmitOnlyRegisteredNames"
        "::test_session_run_counters_are_accounted_for",
    "repro/obs/trace.py::span_names":
        "tests/test_observability_service.py::TestDistributedTrace"
        "::test_traced_submit_returns_one_connected_tree",
    "repro/partition/partitioner.py::partition_balance":
        "tests/test_partition.py::TestMetisLikePartitioner::test_balanced",
    "repro/query/isomorphism.py::_invariant":
        "tests/test_dsl.py::TestCanonicalization::test_relabelings_share_canonical_key",
    "repro/query/isomorphism.py::are_isomorphic":
        "tests/test_dsl.py::TestCanonicalization::test_relabelings_share_canonical_key",
    "repro/query/isomorphism.py::find_isomorphism":
        "tests/test_dsl.py::TestCanonicalization::test_relabelings_share_canonical_key",
    "repro/query/spanning.py::connected_domination_number":
        "tests/test_plan.py::TestPlanValidity::test_minimum_rounds_theorem1",
    "repro/query/spanning.py::maximum_leaf_spanning_tree":
        "tests/test_spanning.py::TestCDS::test_douglas_identity",
    "repro/query/spanning.py::minimum_connected_dominating_set":
        "tests/test_plan.py::TestPlanValidity::test_minimum_rounds_theorem1",
    "repro/query/spanning.py::spanning_trees":
        "tests/test_spanning.py::TestCDS::test_douglas_identity",
    "repro/query/spanning.py::tree_leaf_count":
        "tests/test_spanning.py::TestCDS::test_douglas_identity",
    "repro/query/symmetry.py::satisfies_constraints":
        "tests/test_symmetry.py::TestBoundColumns"
        "::test_bounds_hold_at_every_position_iff_the_constraints_hold",
    "repro/streaming/incremental.py::IncrementalMatcher.verify_parity":
        "tests/test_streaming.py::TestDeltaParitySerial::test_randomized_batches_hold_parity",
}

#: Unreached documented names the code-span search does not find: where.
DOCUMENTED = {
    "repro/api/registry.py::CapabilityError.__init__":
        "docs/api.md: EngineRegistry (`CapabilityError` naming the engines that qualify)",
    "repro/api/results.py::_read_dicts_jsonl": "docs/api.md: Serializable results (JSONL helpers)",
    "repro/api/results.py::read_results_jsonl": "docs/api.md: Serializable results (JSONL helpers)",
    "repro/api/results.py::record_from_dict":
        "docs/api.md: Profiling, event journal (replayable via `read_records_jsonl`)",
    "repro/api/session.py::Session._store_key": "docs/api.md: Embedding store (Session reads)",
    "repro/api/session.py::Session._stored": "docs/api.md: Embedding store (Session reads)",
    "repro/api/session.py::Session.aggregate": "docs/api.md: Embedding store (Session reads)",
    "repro/api/session.py::Session.lookup": "docs/api.md: Embedding store (`lookup(v)`)",
    "repro/cli.py::_render_profile": "CLI: `repro submit --profile` (docs/api.md: Profiling)",
    "repro/cli.py::_render_trace": "CLI: `repro submit --trace` (docs/api.md: Observability)",
    "repro/cluster/machine.py::SimulatedMemoryError.__reduce__":
        "docs/api.md: Distributed shards (a simulated OOM reported by a worker propagates)",
    "repro/distributed/coordinator.py::ShardCoordinator.heartbeat":
        "docs/api.md: Distributed shards (the heartbeat thread pings idle shards)",
    "repro/distributed/worker.py::ShardWorker.stats": "docs/worker-protocol.md: `stats` op",
    "repro/engines/base.py::EnumerationEngine._explain_extras": "docs/api.md: explain() (`extras`)",
    "repro/engines/bigjoin.py::BigJoinEngine._explain_extras": "docs/api.md: explain() (`extras`)",
    "repro/enumeration/labeled.py::LabeledPattern.__eq__":
        "docs/api.md: Pattern DSL (structural `__eq__`/`__hash__`)",
    "repro/enumeration/labeled.py::LabeledPattern.__hash__":
        "docs/api.md: Pattern DSL (structural `__eq__`/`__hash__`)",
    "repro/graph/generators.py::erdos_renyi": "docs/api.md: Graphs (`repro.graph` generators)",
    "repro/graph/io.py::load_adjacency_text":
        "docs/api.md: Session (graph files dispatch on `.npz`/`.edges`/`.adj`)",
    "repro/graph/io.py::load_edge_list":
        "docs/api.md: Session (graph files dispatch on `.npz`/`.edges`/`.adj`)",
    "repro/graph/io.py::save_adjacency_text": "docs/api.md: Graphs (`.adj` / `.edges` writers)",
    "repro/graph/io.py::save_edge_list": "docs/api.md: Graphs (`.adj` / `.edges` writers)",
    "repro/obs/events.py::EventJournal.set_sink": "CLI: `repro serve --events-log` (docs/api.md)",
    "repro/service/cache.py::ResultCache._drop_disk":
        "docs/api.md: Production service tier (a corrupt file is dropped, `disk_errors`)",
    "repro/service/protocol.py::_is_number": "docs/protocol.md: field checks (a positive number)",
    "repro/service/protocol.py::render_docs":
        "docs/protocol.md (generated by `python -m repro.service.protocol`)",
    "repro/service/scheduler.py::QueryScheduler._fail_all":
        "docs/api.md: Service layer (deduplicated submissions share one execution)",
    "repro/service/scheduler.py::QueryScheduler._rejected":
        "docs/api.md: Service layer (requests that can never fit raise `AdmissionError`)",
    "repro/service/scheduler.py::QueryScheduler._time_out":
        "docs/api.md: Service layer (`timeout`)",
    "repro/service/scheduler.py::QueryTicket._fail":
        "docs/api.md: Service layer (`timeout`, `cancel()`)",
    "repro/service/tenancy.py::TenantLedger._refill":
        "docs/api.md: Production service tier (token-bucket rate)",
    "repro/service/tenancy.py::TenantLedger.reject_memory":
        "docs/api.md: Production service tier (a never-fits request raises `AdmissionError`)",
    "repro/store/store.py::EmbeddingStore._drop":
        "docs/api.md: Embedding store (corrupt/mismatched files are dropped and counted)",
    "repro/streaming/continuous.py::Watch._note_dropped":
        "docs/api.md: Streaming (a delta over quota is dropped and counted)",
}

KNOB_TAG_NAMES = ("fake", "surface", "documented", "golden")

#: ``repro.bench`` leaves ``src/`` with ROADMAP item 4 (the experiment
#: definitions move next to their benchmarks): its parameters are listed
#: as ``deferred`` until then rather than cut here.
DEFERRED = ("repro/bench/", "ROADMAP item 4 moves repro.bench out of src/")

#: Defaulted parameters no entry point sets, and why each stays: ``fake``
#: (a test substitutes a clock, journal or registry through it, named by
#: the test), ``surface`` (a CLI flag or protocol field feeds it),
#: ``documented`` (``docs/`` names it, where the code-span search does
#: not find it) or ``golden`` (a parity golden sets it).
KNOB_TAGS: dict[str, tuple[str, str]] = {
    # Fed by a CLI flag or a protocol field (the field's default is the
    # parameter's, so the entry points' calls pass it unchanged).
    "repro/api/session.py::Session.serve(default_quota)": ("surface", "CLI repro serve --quota-rate"),
    "repro/api/session.py::Session.serve(events_path)": ("surface", "CLI repro serve --events-log"),
    "repro/api/session.py::Session.serve(host)": ("surface", "CLI repro serve --host"),
    "repro/api/session.py::Session.serve(memory_budget_mb)":
        ("surface", "CLI repro serve --memory-budget-mb"),
    "repro/cli.py::_client(timeout)": ("surface", "CLI repro subscribe --timeout"),
    "repro/distributed/worker.py::ShardWorker.__init__(host)": ("surface", "CLI repro worker --host"),
    "repro/service/cache.py::ResultCache.__init__(capacity)":
        ("surface", "CLI repro serve --cache-capacity"),
    "repro/service/cache.py::ResultCache.__init__(ttl)": ("surface", "CLI repro serve --cache-ttl"),
    "repro/service/client.py::ServiceClient.aggregate(engine)": ("surface", "protocol aggregate field engine"),
    "repro/service/client.py::ServiceClient.aggregate(group_by)":
        ("surface", "protocol aggregate field group_by"),
    "repro/service/client.py::ServiceClient.explain(estimates)":
        ("surface", "protocol explain field estimates"),
    "repro/service/client.py::ServiceClient.lookup(engine)": ("surface", "protocol lookup field engine"),
    "repro/service/client.py::ServiceClient.poll(wait)": ("surface", "protocol poll field wait"),
    "repro/service/client.py::ServiceClient.register(tenant)": ("surface", "protocol register field tenant"),
    "repro/service/client.py::ServiceClient.submit(memory_mb)": ("surface", "protocol submit field memory_mb"),
    "repro/service/client.py::ServiceClient.submit(priority)": ("surface", "CLI repro submit --priority"),
    "repro/service/client.py::ServiceClient.submit(profile)": ("surface", "CLI repro submit --profile"),
    "repro/service/client.py::ServiceClient.submit(timeout)": ("surface", "CLI repro submit --timeout"),
    "repro/service/client.py::ServiceClient.subscribe(tenant)": ("surface", "CLI repro subscribe --tenant"),
    "repro/service/scheduler.py::QueryScheduler.__init__(default_quota)":
        ("surface", "CLI repro serve --quota-rate"),
    "repro/service/scheduler.py::QueryScheduler.aggregate(engine)":
        ("surface", "protocol aggregate field engine"),
    "repro/service/scheduler.py::QueryScheduler.aggregate(group_by)":
        ("surface", "protocol aggregate field group_by"),
    "repro/service/scheduler.py::QueryScheduler.lookup(engine)": ("surface", "protocol lookup field engine"),
    "repro/service/scheduler.py::QueryScheduler.submit(memory_mb)":
        ("surface", "protocol submit field memory_mb"),
    "repro/service/scheduler.py::QueryScheduler.submit(priority)":
        ("surface", "protocol submit field priority"),
    "repro/service/scheduler.py::QueryScheduler.submit(timeout)": ("surface", "protocol submit field timeout"),
    "repro/service/scheduler.py::QueryScheduler.submit_job(priority)":
        ("documented", "docs/api.md: QueryScheduler (Per-request `priority`)"),
    "repro/service/scheduler.py::QueryScheduler.submit_job(tenant)":
        ("surface", "protocol register field tenant"),
    "repro/service/server.py::QueryServer.__init__(default_quota)":
        ("surface", "CLI repro serve --quota-rate"),
    "repro/service/server.py::QueryServer.__init__(events_path)": ("surface", "CLI repro serve --events-log"),
    "repro/service/server.py::QueryServer.__init__(host)": ("surface", "CLI repro serve --host"),
    "repro/service/server.py::QueryServer.__init__(memory_budget_mb)":
        ("surface", "CLI repro serve --memory-budget-mb"),
    "repro/service/tenancy.py::TenantLedger.__init__(default)": ("surface", "CLI repro serve --quota-rate"),
    "repro/streaming/continuous.py::ContinuousQueryManager.register(collect)":
        ("surface", "protocol register field collect"),
    "repro/streaming/continuous.py::ContinuousQueryManager.register(tenant)":
        ("surface", "protocol register field tenant"),
    "repro/streaming/continuous.py::Watch.__init__(collect)": ("surface", "protocol register field collect"),
    "repro/streaming/continuous.py::Watch.__init__(tenant)": ("surface", "protocol register field tenant"),
    "repro/streaming/continuous.py::Watch.poll(wait)": ("surface", "protocol poll field wait"),
    # A test substitutes a clock or a journal through it.
    "repro/distributed/registry.py::ShardRegistry.__init__(clock)":
        ("fake", "tests/test_service_tier.py::test_stale_entries_leave_the_roster_but_not_the_snapshot"),
    "repro/obs/health.py::HealthEngine.__init__(journal)":
        ("fake", "tests/test_health.py::test_worker_loss_rule_is_event_sourced"),
    "repro/service/cache.py::ResultCache.__init__(clock)":
        ("fake", "tests/test_service.py::test_ttl_expiry_with_injected_clock"),
    "repro/service/cache.py::ResultCache.__init__(wall_clock)":
        ("fake", "tests/test_service_tier.py::test_disk_ttl_uses_wall_clock_across_restarts"),
    "repro/service/tenancy.py::TenantLedger.__init__(clock)":
        ("fake", "tests/test_service_tier.py::test_token_bucket_refills_on_the_injected_clock"),
    # A parity golden sets it: cutting it would move the golden.
    "repro/cluster/cluster.py::Cluster.create(memory_capacity)":
        ("golden", "tests/test_rmeef_goldens.py::test_rmeef_matches_the_loop_bit_for_bit"),
    "repro/core/rads.py::RADSEngine.__init__(min_groups_per_machine)":
        ("golden", "tests/test_rmeef_goldens.py::test_rmeef_matches_the_loop_bit_for_bit"),
    "repro/core/rads.py::RADSEngine.__init__(results_budget_fraction)":
        ("golden", "tests/test_rmeef_goldens.py::test_rmeef_matches_the_loop_bit_for_bit"),
    "repro/engines/multiway.py::MultiwayJoinEngine.__init__(shares)":
        ("golden", "tests/test_baseline_goldens.py::test_serial_matches_the_loops_bit_for_bit"),
    "repro/enumeration/backtracking.py::enumerate_embeddings(allowed)":
        ("golden", "tests/test_kernel_goldens.py::test_counters_and_order_match_parent"),
    "repro/enumeration/backtracking.py::enumerate_embeddings(order)":
        ("golden", "tests/test_kernel_goldens.py::test_counters_and_order_match_parent"),
    "repro/partition/metis_like.py::MetisLikePartitioner.__init__(seed)":
        ("golden", "tests/test_partition.py::test_owner_arrays_match_the_goldens_bit_for_bit"),
    "repro/streaming/incremental.py::IncrementalMatcher.block_using(stats)":
        ("golden", "tests/test_kernel_goldens.py::test_counters_and_order_match_parent"),
    "repro/streaming/incremental.py::IncrementalMatcher.delta(stats)":
        ("golden", "tests/test_kernel_goldens.py::test_counters_and_order_match_parent"),
    "repro/streaming/incremental.py::IncrementalMatcher.matches_using(stats)":
        ("golden", "tests/test_kernel_goldens.py::test_counters_and_order_match_parent"),
    # docs/ (or a doctest CI runs) describes it; the quoted text is there.
    "repro/api/session.py::Session.backend(workers)":
        ("documented", "docs/api.md: Distributed shards (`ProcessExecutor(workers)`)"),
    "repro/api/session.py::Session.run(limit)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/api/session.py::Session.run_grid(engines)":
        ("documented", "docs/api.md: Session (`run_grid()` for engine × query sweeps)"),
    "repro/api/session.py::Session.watch(collect)":
        ("documented", "docs/api.md: Streaming (`collect=False` watch)"),
    "repro/api/session.py::Session.with_cluster(cost_model)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/api/session.py::Session.with_cluster(partitioner)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/api/session.py::Session.with_cluster(seed)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/distributed/registry.py::ShardRegistry.__init__(stale_after)":
        ("documented", "docs/api.md: Elastic roster (`stale_after`)"),
    "repro/engines/base.py::EnumerationEngine.run_labeled(collect_embeddings)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/engines/base.py::EnumerationEngine.run_labeled(limit)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/engines/single.py::SingleMachineEngine.run_labeled(collect_embeddings)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/engines/single.py::SingleMachineEngine.run_labeled(limit)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/enumeration/backtracking.py::MatchingTables.emit(limit)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/enumeration/labeled.py::LabeledEnumerator.run(limit)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/enumeration/labeled.py::labeled_embeddings(limit)":
        ("surface", "CLI repro labeled --limit"),
    "repro/obs/events.py::EventJournal.__init__(capacity)":
        ("documented", "docs/api.md: Structured event journal (`bounded ring (default 512)`)"),
    "repro/partition/label_propagation.py::LabelPropagationPartitioner.__init__(seed)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/partition/partitioner.py::HashPartitioner.__init__(seed)":
        ("documented", "docs/api.md: RunConfig (`stragglers, workers, seed, collect/limit`)"),
    "repro/query/dsl.py::PatternBuilder.__init__(name)":
        ("documented", "src/repro/query/dsl.py: PatternBuilder doctest (`PatternBuilder(name=\"wedge\")`)"),
    "repro/query/dsl.py::PatternBuilder.build(label_map)":
        ("documented", "docs/api.md: Pattern DSL (`label_map=`)"),
    "repro/query/dsl.py::parse_pattern(label_map)": ("documented", "docs/api.md: Pattern DSL (`label_map=`)"),
    "repro/service/cache.py::ResultCache.__init__(disk_capacity)":
        ("documented", "docs/api.md: Tiered persistent result cache (`disk_capacity`)"),
    "repro/service/scheduler.py::QueryScheduler.__init__(memory_budget_mb)":
        ("documented", "docs/api.md: QueryScheduler (`memory_budget_mb`)"),
    "repro/service/scheduler.py::QueryScheduler.close(cancel_pending)":
        ("documented", "docs/api.md: QueryScheduler (`close(cancel_pending=False)`)"),
    "repro/service/server.py::QueryServer.__init__(store)":
        ("documented", "docs/api.md: Embedding store (`Session.with_store(dir)`; Session.serve shares it)"),
    "repro/service/server.py::QueryServer.__init__(tenants)":
        ("documented", "docs/api.md: Per-tenant quotas (`tenants={name: TenantQuota(...)}`)"),
    "repro/service/server.py::QueryServer.__init__(verify_deltas)":
        ("documented", "docs/api.md: Streaming (`verify_deltas=True`)"),
    "repro/streaming/continuous.py::ContinuousQueryManager.__init__(verify)":
        ("documented", "docs/api.md: Streaming (`verify_deltas=True`)"),
}


def _is_stub(node: ast.FunctionDef) -> bool:
    """A body that is a docstring and ``raise NotImplementedError``, or less."""
    body = [n for n in node.body if not (
        isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
    )]
    if not body:
        return True
    raised = body[0].exc if isinstance(body[0], ast.Raise) else None
    raised = raised.func if isinstance(raised, ast.Call) else raised
    return len(body) == 1 and isinstance(raised, ast.Name) and raised.id == "NotImplementedError"


def _scan() -> tuple[dict, dict, dict, dict]:
    """Walk every ``src/`` module: for each top-level function and method
    key whether it is abstract (:func:`_is_stub`) and its defaulted
    parameters; for each class its bases and its key prefixes."""
    stubs: dict[str, bool] = {}
    params: dict[str, list[str]] = {}  # key -> parameters with a default
    bases: dict[str, set[str]] = {}  # class name -> base class names
    where: dict[str, list[str]] = {}  # class name -> its key prefixes

    def visit(rel: str, body: list, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{rel}::{prefix}{node.name}"
                if key not in stubs:
                    stubs[key] = _is_stub(node)
                    a = node.args
                    positional = a.posonlyargs + a.args
                    params[key] = [p.arg for p in positional[len(positional) - len(a.defaults):]]
                    params[key] += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            elif isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in node.bases
                )
                where.setdefault(node.name, []).append(f"{rel}::{prefix}{node.name}.")
                visit(rel, node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try)):
                visit(rel, node.body + node.orelse + getattr(node, "finalbody", []), prefix)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        visit(rel, ast.parse(path.read_text(encoding="utf-8")).body, "")
    return stubs, params, bases, where


def functions() -> dict[str, list[str]]:
    """Every function and method at the top level of a ``src/`` module or
    class, as ``"repro/mod.py::Class.method"``, with the keys of the
    subclass methods that override it when it is abstract (:func:`_is_stub`)."""
    stubs, _, bases, where = _scan()

    def subclasses(name: str) -> set[str]:
        direct = {c for c, b in bases.items() if name in b and c != name}
        return direct.union(*(subclasses(c) for c in direct))

    found = {}
    for key, stub in stubs.items():
        found[key] = []
        if stub and "." in key.split("::")[1]:
            owner, method = key.split("::")[1].rsplit(".", 1)
            for sub in sorted(subclasses(owner.rsplit(".", 1)[-1])):
                found[key] += [f"{p}{method}" for p in where[sub] if f"{p}{method}" in stubs]
    return found


def knobs() -> dict[str, list[str]]:
    """Function key -> its defaulted parameters, for functions that have any."""
    return {key: names for key, names in _scan()[1].items() if names}


def default_fingerprints() -> dict[str, dict[str, str]]:
    """The hook's watch list: ``"file<TAB>qualname"`` -> {parameter: the
    hook's fingerprint of its default}, read from the imported functions."""
    spec = importlib.util.spec_from_file_location("reach_hook", HOOK)
    hook = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hook)
    sys.path.insert(0, str(SRC))
    watch = {}
    for key, names in knobs().items():
        rel, qualname = key.split("::")
        obj = importlib.import_module(rel[:-3].replace("/", ".").removesuffix(".__init__"))
        for part in qualname.split("."):
            obj = vars(obj)[part]
        obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
        signature = inspect.signature(obj)
        watch[f"{rel}\t{qualname}"] = {
            name: hook.fingerprint(signature.parameters[name].default) for name in names
        }
    return watch


def entry_points(work: Path) -> list[tuple[str, list[str], Path]]:
    """``(name, argv, cwd)`` of every entry point, in run order."""
    road = str(work / "road.npz")
    cli = [PY, "-m", "repro"]
    points = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            points.append((
                f"perf/{workload}" + ("+trace" if trace else ""),
                [PY, "perf/run.py", "--workload", workload, "--smoke", "--trace", str(trace)],
                ROOT,
            ))
    for script in sorted((ROOT / "examples").glob("*.py")):
        points.append((f"examples/{script.name}", [PY, str(script)], ROOT))
    for step in SMOKE:
        points.append((f"smoke/{step}", ["bash", str(HERE / "smoke" / f"{step}.sh")], work))
    for name, args in (
        ("generate", ["--dataset", "roadnet", "--scale", "0.05", "--out", road]),
        ("enumerate", ["--graph", road, "--query", "q4", "--engine", "rads",
                       "--machines", "3", "--show", "2"]),
        ("plan", ["--query", "q4", "--graph", road]),
        ("explain", ["--query", "q4", "--engine", "rads", "--graph", road]),
        ("labeled", ["--graph", road, "--query", "a:0-b:1-c:0-a", "--num-labels", "2",
                     "--show", "2"]),
        ("profile", ["--graph", road]),
    ):
        points.append((f"cli/{name}", [*cli, name, *args], work))
    points.append((
        "cli/transcript",
        [PY, "-c", "import test_cli_transcript as t; t.run_transcript(); t.parser_record()"],
        HERE,
    ))
    # pytest-benchmark lifts any trace function around a timed call; with
    # --benchmark-disable each experiment runs once, untimed, and traced.
    for bench in sorted((ROOT / "benchmarks").glob("test_*.py")):
        if bench.name not in UNFINISHED:
            points.append((
                f"benchmarks/{bench.name}",
                [PY, "-m", "pytest", str(bench), "-m", "bench", "-q", "-p", "no:cacheprovider",
                 "--benchmark-disable"],
                ROOT,
            ))
    return points


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run(name: str, argv: list[str], cwd: Path, env: dict, out: Path) -> tuple[set, set]:
    """Run one entry point: the ``(file, qualname)`` pairs its processes
    entered, and the ``(file, qualname, parameter)`` triples they gave a
    non-default value."""
    out.mkdir()
    started = time.monotonic()
    with open(out / "stdout.txt", "w+", encoding="utf-8") as log, \
            open(out / "stderr.txt", "w+", encoding="utf-8") as err:
        # Files, not pipes: a daemon left behind would hold a pipe open.
        proc = subprocess.Popen(
            argv, cwd=cwd, env=dict(env, REACH_DIR=str(out)), stdout=log,
            stderr=err, start_new_session=True, preexec_fn=_limit_memory,
        )
        try:
            proc.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"{name}: no exit after {TIMEOUT:.0f} s")
        finally:
            try:  # whatever the entry point left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            # pytest reports a failure on stdout, a traceback goes to stderr.
            tails = []
            for stream in (log, err):
                stream.seek(0)
                tails.append(stream.read()[-3000:])
            raise SystemExit(
                f"{name}: exit {proc.returncode}\n"
                f"--- stdout ---\n{tails[0]}\n--- stderr ---\n{tails[1]}"
            )
    print(f"{name}: {time.monotonic() - started:.0f} s", file=sys.stderr, flush=True)
    reached, given = set(), set()
    for path in out.glob("*.tsv"):
        for line in path.read_text(encoding="utf-8").splitlines():
            file, _, qualname = line.split("\t")
            reached.add((file, qualname))
    for path in out.glob("*.knobs"):
        given.update(tuple(line.split("\t")) for line in path.read_text(encoding="utf-8").splitlines())
    return reached, given


def imported(bench: Path) -> set[tuple[str, str]]:
    """The ``repro`` functions a benchmark file imports by name."""
    sys.path.insert(0, str(SRC))
    found = set()
    for node in ast.walk(ast.parse(bench.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                code = getattr(getattr(module, alias.name), "__code__", None)
                if code is not None:
                    file = Path(code.co_filename).resolve().relative_to(SRC).as_posix()
                    found.add((file, code.co_qualname))
    return found


def documented(key: str, spans: dict[str, list[str]]) -> str | None:
    """The first code span in ``DOCS`` naming ``key``'s function, with its doc."""
    qualname = key.split("::")[1]
    pattern = re.compile(rf"(?<![\w])(?:\w+\.)*{re.escape(qualname)}\b", re.IGNORECASE)
    for doc, texts in spans.items():
        for text in texts:
            if pattern.search(text):
                return f"{doc}: `{text}`"
    return DOCUMENTED.get(key)


def documented_knob(knob: str, spans: dict[str, list[str]]) -> str | None:
    """The first code span in ``DOCS`` that calls ``knob``'s function (its
    class, for ``__init__``) with the parameter's name, with its doc."""
    qualname, param = knob.split("::")[1][:-1].split("(")
    parts = qualname.split(".")
    name = parts[-2] if parts[-1] == "__init__" else parts[-1]
    pattern = re.compile(rf"\b{re.escape(name)}\([^)]*\b{re.escape(param)}\b")
    for doc, texts in spans.items():
        for text in texts:
            if pattern.search(text):
                return f"{doc}: `{text}`"
    return None


def build(reach: dict[str, list[str]], given: dict[str, list[str]], names: list[str]) -> dict:
    """The reach.json record from the reached map (key -> entry points)
    and the given map (knob -> entry points that set it)."""
    spans = {
        doc: re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text(encoding="utf-8"))
        for doc in DOCS
    }
    table: dict[str, dict] = {}
    unaccounted = []
    found = functions()
    for key in sorted(found):
        via = [o for o in found[key] if reach.get(o)]
        if reach.get(key):
            table[key] = {"reached_by": sorted(reach[key])}
        elif via:  # an abstract method runs as its overrides
            table[key] = {"reached_by": sorted(set().union(*(reach[o] for o in via))),
                          "via": via}
        elif key in REFERENCE:
            table[key] = {"reference": REFERENCE[key]}
        elif (where := documented(key, spans)) is not None:
            table[key] = {"documented": where}
        else:
            table[key] = {}
            unaccounted.append(key)
    knob_table: dict[str, dict] = {}
    loose = []
    defaulted = knobs()
    for key in sorted(defaulted):
        for param in defaulted[key]:
            if "reached_by" not in table[key]:
                continue
            knob = f"{key}({param})"
            # an abstract method's parameter is set where an override's is
            setters = set().union(*(given.get(f"{o}({param})", ())
                                    for o in [key, *table[key].get("via", [])]))
            if setters:
                knob_table[knob] = {"set_by": sorted(setters)}
            elif knob.startswith(DEFERRED[0]):
                knob_table[knob] = {"deferred": DEFERRED[1]}
            elif knob in KNOB_TAGS:
                tag, where = KNOB_TAGS[knob]
                knob_table[knob] = {tag: where}
            elif (where := documented_knob(knob, spans)) is not None:
                knob_table[knob] = {"documented": where}
            else:
                knob_table[knob] = {}
                loose.append(knob)
    counts = {
        tag: sum(tag in entry for entry in table.values())
        for tag in ("reached_by", "reference", "documented")
    }
    knob_counts = {
        tag: sum(tag in entry for entry in knob_table.values())
        for tag in ("set_by", *KNOB_TAG_NAMES, "deferred")
    }
    return {
        "counts": dict(
            counts, functions=len(table), unaccounted=len(unaccounted),
            knobs=dict(knob_counts, defaulted=sum(map(len, defaulted.values())),
                       reached=len(knob_table), unaccounted=len(loose)),
        ),
        "entry_points": sorted(names),
        "functions": table,
        "knobs": knob_table,
        "unaccounted": unaccounted,
        "unaccounted_knobs": loose,
    }


def check_tags() -> None:
    """Every REFERENCE test exists; every tagged key names a function, and
    every tagged knob a defaulted parameter of one."""
    known = functions()
    for key in {**REFERENCE, **DOCUMENTED}:
        if key not in known:
            raise SystemExit(f"tagged {key} is not a src/ function")
    for key, test in REFERENCE.items():
        file, _, name = test.partition("::")
        if f"def {name.split('::')[-1]}(" not in (ROOT / file).read_text(encoding="utf-8"):
            raise SystemExit(f"{key}: no test {test}")
    defaulted = {f"{key}({param})" for key, params in knobs().items() for param in params}
    parser = json.loads((HERE / "data" / "cli_parser.json").read_text(encoding="utf-8"))
    protocol = (ROOT / "docs" / "protocol.md").read_text(encoding="utf-8")
    for knob, (tag, where) in KNOB_TAGS.items():
        if knob not in defaulted or tag not in KNOB_TAG_NAMES:
            raise SystemExit(f"tagged {knob} ({tag}) is not a defaulted src/ parameter")
        if tag in ("fake", "golden"):  # "tests/file.py::test_name"
            file, _, name = where.partition("::")
            ok = f"def {name}(" in (ROOT / file).read_text(encoding="utf-8")
        elif tag == "documented":  # "path: section (`text that is there`)"
            file = where.split(":")[0]
            quoted = re.search(r"`([^`]+)`", where).group(1)
            ok = quoted in (ROOT / file).read_text(encoding="utf-8")
        elif where.startswith("CLI "):  # "CLI repro <command> --flag"
            _, _, command, flag = where.split()
            ok = any(flag in action["options"] for action in parser["commands"][command]["actions"])
        else:  # "protocol <op> field <name>"
            _, op, _, field = where.split()
            section = protocol.split(f"## `{op}`", 1)[-1].split("\n## ", 1)[0]
            ok = f"| `{field}` |" in section
        if not ok:
            raise SystemExit(f"{knob}: {tag} {where!r} does not check out")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="rebuild the tags from the committed reach lists")
    args = parser.parse_args(argv)
    check_tags()
    if args.check:
        old = json.loads(OUT.read_text(encoding="utf-8"))
        reach = {k: v["reached_by"] for k, v in old["functions"].items()
                 if "reached_by" in v and "via" not in v}
        given = {k: v["set_by"] for k, v in old.get("knobs", {}).items() if "set_by" in v}
        record = build(reach, given, old["entry_points"])
    else:
        reach: dict[str, list[str]] = {}
        given: dict[str, list[str]] = {}
        known = functions()
        names = []
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            work = Path(tmp)
            (work / "src").mkdir()
            shutil.copy(HOOK, work / "src" / "sitecustomize.py")
            (work / "src" / "repro").symlink_to(SRC / "repro")
            (work / "knobs.json").write_text(json.dumps(default_fingerprints()), encoding="utf-8")
            env = dict(os.environ, PYTHONPATH=str(work / "src"), REACH_SRC=str(SRC),
                       REACH_KNOBS=str(work / "knobs.json"), PYTHONHASHSEED="0",
                       REPRO_BENCH_OUT="0")
            for number, (name, argv_, cwd) in enumerate(entry_points(work)):
                names.append(name)
                entered, set_ = run(name, argv_, cwd, env, work / f"reach-{number}")
                for file, qualname in entered:
                    if f"{file}::{qualname}" in known:
                        reach.setdefault(f"{file}::{qualname}", []).append(name)
                for file, qualname, param in set_:
                    given.setdefault(f"{file}::{qualname}({param})", []).append(name)
        for bench in UNFINISHED:
            name = f"benchmarks/{bench} (imports)"
            names.append(name)
            for file, qualname in imported(ROOT / "benchmarks" / bench):
                reach.setdefault(f"{file}::{qualname}", []).append(name)
        record = build(reach, given, names)
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record["counts"], sort_keys=True))
    for key in record["unaccounted"]:
        print(f"unaccounted: {key}")
    for knob in record["unaccounted_knobs"]:
        print(f"unaccounted knob: {knob}")
    return 1 if record["unaccounted"] or record["unaccounted_knobs"] else 0


if __name__ == "__main__":
    sys.exit(main())
