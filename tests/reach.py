"""The reach map: which ``src/`` functions the program's entry points run.

    python tests/reach.py            # runs every entry point, ~7 min on 2 vCPU
    python tests/reach.py --check    # re-reads tests/data/reach.json only

Every entry point runs in a process of its own with ``tests/reach_hook``'s
``sitecustomize.py`` loaded into it and into every Python process it
starts (shard workers forked by the process backend, ``repro serve`` /
``repro worker`` daemons, the benchmark's served child).  Each process
writes the functions it entered; this script merges them per entry point
into ``tests/data/reach.json``: for every function and method defined at
the top level of a ``src/`` module or class, the entry points that reach
it (an abstract method, whose body only raises ``NotImplementedError``,
is reached where an override is).  A function no entry point reaches is
tagged instead, in the tables below:

- ``reference``: a test checks the program's output against it (an
  oracle, a theorem's brute force), named by the test;
- ``documented``: a public name that ``docs/`` describes, found by its
  name in a code span there, or listed by hand with where it is described.

A function that is neither reached nor tagged is the output's
``unaccounted`` list, and the script exits 1: delete it, or say why it
stays.  The file is sorted and has no timings, so two runs write the same
bytes.

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
    "repro/enumeration/backtracking.py::BacktrackingEnumerator.run_seeded":
        "tests/test_streaming.py::TestPrefixAndSeeded"
        "::test_a_seed_block_equals_its_seeds_one_by_one",
    "repro/enumeration/backtracking.py::BacktrackingEnumerator.run_seeded_block":
        "tests/test_streaming.py::TestPrefixAndSeeded"
        "::test_a_seed_block_equals_its_seeds_one_by_one",
    "repro/enumeration/vf2.py::vf2_embeddings":
        "tests/test_engine_equivalence.py::TestKernelAgainstVF2"
        "::test_random_patterns_graphs_and_ownership_masks",
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
    "repro/obs/profile.py::Profiler.add_worker_usage":
        "docs/api.md: Profiling (socket-backed profiles attribute CPU per shard)",
    "repro/obs/profile.py::current_profiler":
        "docs/api.md: Profiling (`Session.run(profile=True)`)",
    "repro/obs/profile.py::task_rusage":
        "docs/api.md: Profiling (socket-backed profiles attribute CPU per shard)",
    "repro/obs/trace.py::Span.set": "docs/api.md: Observability (span `attributes`)",
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
    "repro/store/columnar.py::TrieColumns.aggregate":
        "docs/protocol.md: `aggregate` op (`group_by` vertex)",
    "repro/store/store.py::EmbeddingStore._drop":
        "docs/api.md: Embedding store (corrupt/mismatched files are dropped and counted)",
    "repro/streaming/continuous.py::Watch._note_dropped":
        "docs/api.md: Streaming (a delta over quota is dropped and counted)",
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


def functions() -> dict[str, list[str]]:
    """Every function and method at the top level of a ``src/`` module or
    class, as ``"repro/mod.py::Class.method"``, with the keys of the
    subclass methods that override it when it is abstract (:func:`_is_stub`)."""
    stubs: dict[str, bool] = {}
    bases: dict[str, set[str]] = {}  # class name -> base class names
    where: dict[str, list[str]] = {}  # class name -> its key prefixes

    def visit(rel: str, body: list, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stubs.setdefault(f"{rel}::{prefix}{node.name}", _is_stub(node))
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


def run(name: str, argv: list[str], cwd: Path, env: dict, out: Path) -> set[tuple[str, str]]:
    """Run one entry point; the ``(file, qualname)`` pairs its processes entered."""
    out.mkdir()
    started = time.monotonic()
    with open(out / "stderr.txt", "w+", encoding="utf-8") as err:
        # Not a pipe: a daemon left behind would hold it open.
        proc = subprocess.Popen(
            argv, cwd=cwd, env=dict(env, REACH_DIR=str(out)), stdout=subprocess.DEVNULL,
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
            err.seek(0)
            raise SystemExit(f"{name}: exit {proc.returncode}\n{err.read()[-3000:]}")
    print(f"{name}: {time.monotonic() - started:.0f} s", file=sys.stderr, flush=True)
    reached = set()
    for path in out.glob("*.tsv"):
        for line in path.read_text(encoding="utf-8").splitlines():
            file, _, qualname = line.split("\t")
            reached.add((file, qualname))
    return reached


def clear_smoke_outputs() -> None:
    """Remove the ``/tmp`` paths the smoke steps write.  CI runs them on a
    fresh machine; here a request log left by an earlier run would be
    appended to and a result cache would answer a first query as a hit."""
    for step in SMOKE:
        text = (HERE / "smoke" / f"{step}.sh").read_text(encoding="utf-8")
        for path in map(Path, sorted(set(re.findall(r"/tmp/[\w.-]+", text)))):
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()


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


def build(reach: dict[str, list[str]], names: list[str]) -> dict:
    """The reach.json record from the reached map (key -> entry points)."""
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
    counts = {
        tag: sum(tag in entry for entry in table.values())
        for tag in ("reached_by", "reference", "documented")
    }
    return {
        "counts": dict(counts, functions=len(table), unaccounted=len(unaccounted)),
        "entry_points": sorted(names),
        "functions": table,
        "unaccounted": unaccounted,
    }


def check_tags() -> None:
    """Every REFERENCE test exists; every tagged key names a function."""
    known = functions()
    for key in {**REFERENCE, **DOCUMENTED}:
        if key not in known:
            raise SystemExit(f"tagged {key} is not a src/ function")
    for key, test in REFERENCE.items():
        file, _, name = test.partition("::")
        if f"def {name.split('::')[-1]}(" not in (ROOT / file).read_text(encoding="utf-8"):
            raise SystemExit(f"{key}: no test {test}")


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
        record = build(reach, old["entry_points"])
    else:
        reach: dict[str, list[str]] = {}
        known = functions()
        names = []
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            work = Path(tmp)
            (work / "src").mkdir()
            shutil.copy(HOOK, work / "src" / "sitecustomize.py")
            (work / "src" / "repro").symlink_to(SRC / "repro")
            env = dict(os.environ, PYTHONPATH=str(work / "src"), REACH_SRC=str(SRC),
                       PYTHONHASHSEED="0", REPRO_BENCH_OUT="0")
            clear_smoke_outputs()
            for number, (name, argv_, cwd) in enumerate(entry_points(work)):
                names.append(name)
                for file, qualname in run(name, argv_, cwd, env, work / f"reach-{number}"):
                    if f"{file}::{qualname}" in known:
                        reach.setdefault(f"{file}::{qualname}", []).append(name)
        clear_smoke_outputs()
        for bench in UNFINISHED:
            name = f"benchmarks/{bench} (imports)"
            names.append(name)
            for file, qualname in imported(ROOT / "benchmarks" / bench):
                reach.setdefault(f"{file}::{qualname}", []).append(name)
        record = build(reach, names)
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record["counts"], sort_keys=True))
    for key in record["unaccounted"]:
        print(f"unaccounted: {key}")
    return 1 if record["unaccounted"] else 0


if __name__ == "__main__":
    sys.exit(main())
