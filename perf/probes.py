"""Per-layer probes: direct calls into each layer on the workload's graph.

Only the traced run imports this module.  Every probe runs inside its own
``try``: a symbol that a later refactor renames or removes turns that
probe's metrics into ``None`` with the reason, never a crash.  Probes
import what they call inside the function, for the same reason.

Layers whose cost only shows through a running pass (the socket backend,
the served session, streaming ingest) are probed by running that workload
— ``sharded_batch``, ``served_hot``, ``stream_delta`` — on the graph of the
workload being traced; see :data:`PASS_LAYERS`.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import children
from workloads import MACHINES, make_batches

_now = time.perf_counter
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The query the direct probes use (the paper's "house").
QUERY = "q4"

_PROBES: list[tuple[tuple[str, ...], object]] = []


def probe(*names: str):
    """Register a probe function and the metric names it reports."""
    def register(fn):
        _PROBES.append((names, fn))
        return fn

    return register


def timed(fn, repeat: int = 3) -> float:
    """Median wall seconds of ``repeat`` calls."""
    out = []
    for _ in range(repeat):
        start = _now()
        fn()
        out.append(_now() - start)
    return statistics.median(out)


class Context:
    """What the probes share: the graph, a scratch dir, a seeded RNG."""

    def __init__(self, graph, tmp: pathlib.Path, seed: int):
        self.graph = graph
        self.tmp = tmp
        self.py = random.Random(seed)
        self._batch = None
        self._collected = None

    def batch(self):
        """One 64-edge batch (half additions, half deletions)."""
        if self._batch is None:
            self._batch = make_batches(self.graph, self.py, [64])[0]
        return self._batch

    def collected(self):
        """RADS x ``QUERY`` with its embeddings kept (run once, shared)."""
        if self._collected is None:
            import repro

            self._collected = (
                repro.open(self.graph).with_cluster(machines=MACHINES)
                .engine("rads").query(QUERY).run(collect=True)
            )
        return self._collected


def run_all(context: Context) -> tuple[dict, dict]:
    """Every probe: ``(metric -> value or None, metric -> reason)``."""
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    for names, fn in _PROBES:
        try:
            got = fn(context)
        except Exception as exc:  # a probe must never stop the run
            got = {}
            why = f"{type(exc).__name__}: {exc}"
            for name in names:
                reasons[name] = why
        for name in names:
            values[name] = got.get(name)
            if name not in got:
                reasons.setdefault(name, "probe did not report it")
    return values, reasons


# -- graph / partition / query --------------------------------------------
@probe("graph.build_s", "graph.neighbors_us")
def _graph(ctx):
    from repro.graph import Graph

    graph = ctx.graph
    edges = np.array(list(graph.edges()), dtype=np.int64)
    build = timed(lambda: Graph.from_edges(graph.num_vertices, edges))

    def scan():
        neighbors = graph.neighbors
        for v in graph.vertices():
            neighbors(v)

    return {
        "graph.build_s": build,
        "graph.neighbors_us": timed(scan) / graph.num_vertices * 1e6,
    }


@probe("graph.apply_batch_s")
def _apply_batch(ctx):
    additions, deletions = ctx.batch()
    return {"graph.apply_batch_s": timed(
        lambda: ctx.graph.apply_batch(additions, deletions))}


@probe("partition.build_s", "partition.edge_cut")
def _partition(ctx):
    import repro

    config = repro.RunConfig(machines=MACHINES)
    build = timed(lambda: config.make_partition(ctx.graph), repeat=1)
    owner = np.asarray(config.make_partition(ctx.graph).owner)
    edges = np.array(list(ctx.graph.edges()), dtype=np.int64)
    cut = int((owner[edges[:, 0]] != owner[edges[:, 1]]).sum())
    return {"partition.build_s": build, "partition.edge_cut": cut}


@probe("query.plan_s", "query.canonical_key_s", "query.parse_s")
def _query(ctx):
    import repro

    text = str(repro.resolve_query(QUERY))
    # Fresh pattern objects each time: a per-object memo must not turn
    # the later calls into lookups.
    fresh = iter([repro.pattern(text) for _ in range(6)])
    return {
        "query.parse_s": timed(lambda: repro.pattern(text)),
        "query.plan_s": timed(lambda: repro.best_execution_plan(next(fresh))),
        "query.canonical_key_s": timed(lambda: next(fresh).canonical_key()),
    }


# -- enumeration ----------------------------------------------------------
@probe("enumeration.backtrack_s", "enumeration.embeddings_per_s",
       "enumeration.candidates_scanned", "enumeration.intersections",
       "enumeration.recursive_calls")
def _backtrack(ctx):
    import repro
    from repro.enumeration.backtracking import EnumerationStats
    from repro.query.symmetry import symmetry_breaking_constraints

    pattern = repro.resolve_query(QUERY)
    constraints = symmetry_breaking_constraints(pattern)
    graph = ctx.graph
    stats = EnumerationStats()
    start = _now()
    found = repro.enumerate_embeddings(
        graph.neighbors, graph.vertices(), pattern, constraints, stats=stats
    )
    seconds = _now() - start
    return {
        "enumeration.backtrack_s": seconds,
        "enumeration.embeddings_per_s": len(found) / seconds,
        "enumeration.candidates_scanned": stats.candidates_scanned,
        "enumeration.intersections": stats.intersections,
        "enumeration.recursive_calls": stats.recursive_calls,
    }


@probe("enumeration.seeded_s")
def _seeded(ctx):
    import repro

    matcher = repro.IncrementalMatcher(repro.resolve_query(QUERY))
    edges = list(ctx.graph.edges())[:64]
    seconds = timed(
        lambda: matcher.matches_using(ctx.graph.neighbors, edges), repeat=1
    )
    return {"enumeration.seeded_s": seconds / len(edges)}


# -- core (RADS) and the simulated cluster --------------------------------
class _FirstBatchTimer:
    """Executor wrapper timing the first ``run_tasks`` batch (SM-E)."""

    parallel = False
    workers = 1

    def __init__(self, inner):
        self.inner = inner
        self.first: float | None = None

    def run_tasks(self, cluster, fn, tasks):
        start = _now()
        try:
            return self.inner.run_tasks(cluster, fn, tasks)
        finally:
            if self.first is None:
                self.first = _now() - start

    def map(self, fn, items):
        return self.inner.map(fn, items)

    def close(self):
        self.inner.close()


@probe("core.sme_s", "core.rmeef_s", "core.sme_share", "core.sme_ops",
       "core.rmeef_ops", "core.grouping_ops", "core.trie_bytes",
       "core.cache_bytes", "cluster.makespan_s", "cluster.comm_mb",
       "cluster.peak_mem_mb")
def _core(ctx):
    import repro

    pattern = repro.resolve_query(QUERY)
    config = repro.RunConfig(machines=MACHINES)
    partition = config.make_partition(ctx.graph)
    runs = []
    for _ in range(3):
        wrapper = _FirstBatchTimer(repro.SerialExecutor())
        cluster = config.make_cluster(ctx.graph, partition=partition)
        start = _now()
        result = repro.RADSEngine().run(
            cluster, pattern, collect_embeddings=False, executor=wrapper
        )
        total = _now() - start
        runs.append((wrapper.first or 0.0, total - (wrapper.first or 0.0)))
    counters = result.counters
    count = result.embedding_count
    return {
        "core.sme_s": statistics.median(r[0] for r in runs),
        "core.rmeef_s": statistics.median(r[1] for r in runs),
        "core.sme_share": (
            counters.get("sme_embeddings", 0) / count if count else 0.0),
        "core.sme_ops": counters.get("sme_ops", 0),
        "core.rmeef_ops": counters.get("rmeef_ops", 0),
        "core.grouping_ops": counters.get("grouping_ops", 0),
        "core.trie_bytes": counters.get("trie_bytes", 0),
        "core.cache_bytes": counters.get("cache_bytes", 0),
        "cluster.makespan_s": result.makespan,
        "cluster.comm_mb": result.comm_mb,
        "cluster.peak_mem_mb": result.peak_memory / 2**20,
    }


@probe("engines.result_json_s")
def _result_json(ctx):
    result = ctx.collected()
    return {"engines.result_json_s": timed(
        lambda: json.dumps(result.to_dict()))}


# -- runtime / distributed (direct parts) ---------------------------------
@probe("runtime.delta_s")
def _delta(ctx):
    import repro
    from repro.runtime.delta import apply_delta, capture_state, compute_delta

    config = repro.RunConfig(machines=MACHINES)
    cluster = config.make_cluster(ctx.graph)

    def cycle():
        base = capture_state(cluster)
        apply_delta(cluster, compute_delta(cluster, base))

    return {"runtime.delta_s": timed(cycle)}


@probe("distributed.pack_s", "distributed.unpack_s", "distributed.payload_kb")
def _wire(ctx):
    from repro.distributed.protocol import pack, unpack

    payload = ctx.collected().embeddings
    text = pack(payload)
    return {
        "distributed.pack_s": timed(lambda: pack(payload)),
        "distributed.unpack_s": timed(lambda: unpack(text)),
        "distributed.payload_kb": len(text) / 1024.0,
    }


# -- service (direct parts) -----------------------------------------------
@probe("service.sched_hit_s", "service.cache_get_s", "service.codec_s")
def _service_direct(ctx):
    import repro
    from repro.service import protocol
    from repro.service.cache import cache_key

    config = repro.RunConfig(machines=MACHINES)
    pattern = repro.resolve_query(QUERY)
    with repro.QueryScheduler(ctx.graph, config, threads=1) as scheduler:
        cold = scheduler.submit(pattern, "rads").result(120)
        hit = timed(lambda: scheduler.submit(pattern, "rads").result(120), 9)
        key = cache_key(ctx.graph, pattern, "RADS", config, collect=False)
        get = timed(lambda: scheduler.cache.get(key, pattern), 9)
    message = {"id": 1, "ok": True, "cache": "hit", "result": cold.to_dict()}
    codec = timed(lambda: protocol.decode(protocol.encode(message)), 9)
    return {"service.sched_hit_s": hit, "service.cache_get_s": get,
            "service.codec_s": codec}


# -- store ----------------------------------------------------------------
@probe("store.build_s", "store.page_s", "store.lookup_s",
       "store.bytes_per_embedding")
def _store(ctx):
    import repro
    from repro.service.cache import cache_key

    config = repro.RunConfig(machines=MACHINES)
    pattern = repro.resolve_query(QUERY)
    result = ctx.collected()
    key = cache_key(ctx.graph, pattern, "RADS", config, collect="store")
    store = repro.EmbeddingStore(ctx.tmp / "probe_store")
    start = _now()
    store.put(key, pattern, result)
    build = _now() - start
    size = sum(p.stat().st_size for p in store.store_dir.iterdir())
    vertex = result.embeddings[0][0] if result.embeddings else 0
    return {
        "store.build_s": build,
        "store.page_s": timed(
            lambda: store.page(key, pattern, limit=50, offset=10), 9),
        "store.lookup_s": timed(
            lambda: store.lookup(key, pattern, vertex), 9),
        "store.bytes_per_embedding": size / max(1, result.embedding_count),
    }


# -- streaming (direct parts) ---------------------------------------------
@probe("streaming.delta_s", "streaming.rebind_s")
def _streaming_direct(ctx):
    import repro

    additions, deletions = ctx.batch()
    graph = ctx.graph
    new = graph.apply_batch(additions, deletions)
    matcher = repro.IncrementalMatcher(repro.resolve_query(QUERY))
    delta = timed(
        lambda: matcher.delta(graph, new, sorted(additions), sorted(deletions)),
        repeat=1,
    )
    # Rebind = an ingest with nothing watching, less the bare CSR merge.
    merge = timed(lambda: graph.apply_batch(additions, deletions))

    def ingest_and_back():
        session = repro.open(graph).with_cluster(machines=MACHINES)
        start = _now()
        session.ingest(additions=additions, deletions=deletions)
        return _now() - start

    ingest = statistics.median(ingest_and_back() for _ in range(3))
    return {"streaming.delta_s": delta,
            "streaming.rebind_s": max(0.0, ingest - merge)}


# -- api / obs / cli ------------------------------------------------------
@probe("api.open_s", "api.session_overhead_s", "obs.trace_flag_ratio")
def _api(ctx):
    import repro

    def open_session():
        return (
            repro.open(ctx.graph).with_cluster(machines=MACHINES)
            .backend("serial").engine("rads").query(QUERY)
        )

    opened = timed(open_session)
    session = open_session()
    session.run()  # builds the partition
    engine, pattern = session.build_engine(), repro.resolve_query(QUERY)
    overhead, ratio = [], []
    for _ in range(7):
        start = _now()
        session.run()
        plain = _now() - start
        start = _now()
        engine.run(session.cluster(), pattern, collect_embeddings=False)
        overhead.append(plain - (_now() - start))
        start = _now()
        session.run(trace=True)
        ratio.append((_now() - start) / plain)
    return {
        "api.open_s": opened,
        "api.session_overhead_s": statistics.median(overhead),
        "obs.trace_flag_ratio": statistics.median(ratio),
    }


@probe("cli.import_s")
def _import(ctx):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def start():  # the facade import is lazy: touch it
        subprocess.run([sys.executable, "-c", "import repro; repro.open"],
                       env=env, check=True)

    def bare():
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)

    return {"cli.import_s": max(0.0, timed(start) - timed(bare))}


# -- layers seen through a running pass -----------------------------------
def percentile(values: list[float], q: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def spans_named(recorder, prefix: str) -> list[dict]:
    return [s for s in recorder.spans
            if s["name"].startswith(prefix) and "end" in s]


def sharded_metrics(workload, recorder, passes: list[dict]) -> dict:
    """``engines.run_s.*``, ``runtime.*`` and the measured part of
    ``distributed.*`` from traced ``sharded_batch`` passes.

    ``passes`` holds, per traced pass, its wall seconds and the CPU
    seconds of the coordinator (this process) and of the workers.
    """
    import repro

    out: dict[str, float | None] = {}
    steady = [s for s in spans_named(recorder, "api.run") if s["pass"]]
    for engine in ("bigjoin", "twintwig", "rads"):
        runs = [s["end"] - s["start"] for s in steady
                if s.get("engine") == engine]
        out[f"engines.run_s.{engine}"] = (
            statistics.median(runs) if runs else None)
    batches = [s for s in recorder.spans
               if "tasks" in s and "end" in s and s["pass"]]
    count = max(1, len(passes))
    out["runtime.batch_s"] = sum(s["end"] - s["start"] for s in batches) / count
    out["runtime.batches"] = len(batches) / count
    out["runtime.tasks"] = sum(s["tasks"] for s in batches) / count
    out["distributed.coord_cpu_s"] = statistics.median(
        p["coord_cpu"] for p in passes)
    out["distributed.worker_cpu_s"] = statistics.median(
        p["child_cpu"] for p in passes)
    # The same script on the serial backend, for the ratio.
    session = (
        repro.open(workload.graphs[0]).with_cluster(machines=MACHINES)
        .backend("serial")
    )
    serial = []
    for _ in range(3):
        start = _now()
        for engine, query in workload.script:
            session.engine(engine).query(query).run()
        serial.append(_now() - start)
    out["distributed.vs_serial_ratio"] = (
        statistics.median(p["wall"] for p in passes)
        / statistics.median(serial))
    first = [s for s in spans_named(recorder, "api.run") if s["pass"] == 0]
    same = [s["end"] - s["start"] for s in steady
            if first and s.get("engine") == first[0].get("engine")]
    out["distributed.bind_s"] = (
        max(0.0, first[0]["end"] - first[0]["start"] - statistics.median(same))
        if first and same else None)
    out["distributed.resubmits"] = workload.fault_counts["resubmits"]
    out["distributed.lost_workers"] = workload.fault_counts["lost_workers"]
    return out


SERVICE_CLASSES = ("cold", "hit_exact", "hit_iso", "hit_collect", "page",
                   "lookup", "aggregate", "explain", "metrics")


def served_metrics(workload, recorder, passes: list[dict]) -> dict:
    """``service.req_s.*`` and the server-side counters from traced
    ``served_hot`` passes (client-side times, per request class)."""
    out: dict[str, float | None] = {}
    requests = 0
    for cls in SERVICE_CLASSES:
        # Cold requests are the set-up's fills; the rest come from passes.
        samples = [s["end"] - s["start"]
                   for s in spans_named(recorder, f"service.req.{cls}")
                   if s["pass"] or cls == "cold"]
        requests += len(samples) if cls != "cold" else 0
        out[f"service.req_s.{cls}.p50"] = (
            statistics.median(samples) if samples else None)
        out[f"service.req_s.{cls}.p99"] = (
            percentile(samples, 0.99) if samples else None)
    wall = sum(p["wall"] for p in passes)
    out["service.req_per_s"] = requests / wall if wall else None
    out["service.server_cpu_s"] = statistics.median(
        p["child_cpu"] for p in passes)
    snapshot = workload.clients[0].metrics()
    cache = snapshot.get("cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out["service.cache_hit_ratio"] = (
        cache.get("hits", 0) / lookups if lookups else None)
    out["service.riders"] = snapshot["scheduler"].get("deduped")
    return out


def stream_metrics(workload, recorder, passes: list[dict]) -> dict:
    """``streaming.ingest_s.*`` and delta volume from traced
    ``stream_delta`` passes."""
    out: dict[str, float | None] = {}
    for size in ("small", "large"):
        samples = [s["end"] - s["start"]
                   for s in spans_named(recorder, "api.ingest")
                   if s["pass"] and s.get("size") == size]
        out[f"streaming.ingest_s.{size}"] = (
            statistics.median(samples) if samples else None)
    out["streaming.delta_embeddings"] = (
        workload.delta_embeddings / max(1, workload.passes_run))
    return out


PASS_LAYERS = {
    "sharded_batch": sharded_metrics,
    "served_hot": served_metrics,
    "stream_delta": stream_metrics,
}


def timed_pass(workload, index: int) -> dict:
    """One pass with wall and CPU accounting (this process, children)."""
    kids = workload.children()
    cpu0 = time.process_time()
    kid0 = sum(children.cpu_seconds(k.pid) for k in kids)
    start = _now()
    workload.run_pass(index)
    return {
        "wall": _now() - start,
        "coord_cpu": time.process_time() - cpu0,
        "child_cpu": sum(children.cpu_seconds(k.pid) for k in kids) - kid0,
    }
