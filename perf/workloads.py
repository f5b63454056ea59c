"""The five benchmark workloads: frozen sizes, seeded inputs, checks.

Every workload is one fixed *pass* (a deterministic script of public
calls) over one data graph.  The graph's *structure* is frozen here —
generated once from ``STRUCTURE_SEED`` — and the run's ``--seed`` relabels
its vertices at random and draws the request script and edge batches.
Heavy-tailed generators give graphs whose enumeration work differs by
±15% from one generator seed to the next, which would drown every bound;
an isomorphic copy keeps every embedding count equal to the committed
goldens (so each seed is checked exactly) while changing vertex ids,
adjacency order, the partition, symmetry-breaking outcomes and cache keys.

The sizes below were tuned once on the 2-vCPU reference container so that
a pass takes 0.55-0.75 s (1.05 s on ``sharded_batch``), and are frozen:
changing one starts a new baseline (run ``make_goldens.py`` after it).
README.md records why each graph has the shape it has.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import random
import threading

import numpy as np

import children
from tracing import Recorder

HERE = pathlib.Path(__file__).resolve().parent

#: Seed of the frozen graph structures (not the run's ``--seed``).
STRUCTURE_SEED = 20190801
#: Simulated cluster size, the same on every workload.
MACHINES = 4
#: Worker / client counts follow the core count, so that coordinator plus
#: workers (or server plus clients) never outnumber the cores by much.
NPROC = os.cpu_count() or 1
SHARD_WORKERS = max(1, NPROC - 1)
SERVE_THREADS = 2
CLIENTS = 2

SPARSE_GRID = 62            # enum_sparse: W x W grid
SPARSE_SHORTCUTS = 0.04
SPARSE_QUERIES = ("q1", "q2", "q4", "q5")

# Small and dense on purpose: there R-Meef's work does not depend on the
# labelling (0.9% spread over 40 seeds; 9.4% on powerlaw_cluster(150, 3)).
SKEWED_VERTICES = 40        # enum_skewed: powerlaw_cluster(n, 5, 0.30)
SKEWED_MEMORY_MB = 0.25     # smallest power of two at which 40 seeds pass
SKEWED_QUERIES = ("q2", "q4", "q5")

# Near-uniform degrees on purpose: what the join engines ship depends on
# the labelling far less than on a power-law graph (CPU 6% vs 16%).
SHARDED_COMMUNITIES = (20, 10)  # sharded_batch: community_graph(k, size, .6, 2)
SHARDED_SCRIPT = (("bigjoin", "q4"), ("twintwig", "q1"), ("rads", "q4"))

SERVED_VERTICES = 200       # served_hot: powerlaw_cluster(n, 3, 0.30)
SERVED_QUERIES = ("triangle", "q1", "q2", "q4")
SERVED_ROUNDS = 28          # rounds of the eight request classes per pass
SERVED_CLASSES = (
    "hit_exact", "hit_iso", "hit_collect", "page",
    "lookup", "aggregate", "explain", "metrics",
)

STREAM_VERTICES = 200       # stream_delta: powerlaw_cluster(n, 3, 0.30)
STREAM_WATCHES = ("triangle", "square", "q4")
STREAM_SMALL = (14, 8)      # (batches, edges per batch)
STREAM_LARGE = (2, 64)


# -- inputs ---------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def base_graph(kind: str):
    """The frozen structure of one workload's data graph."""
    from repro.graph import (
        community_graph, grid_road_network, powerlaw_cluster)

    if kind == "enum_sparse":
        return grid_road_network(
            SPARSE_GRID, SPARSE_GRID, SPARSE_SHORTCUTS, seed=STRUCTURE_SEED
        )
    if kind == "sharded_batch":
        return community_graph(
            *SHARDED_COMMUNITIES, 0.6, 2, seed=STRUCTURE_SEED)
    n, m = {
        "enum_skewed": (SKEWED_VERTICES, 5),
        "served_hot": (SERVED_VERTICES, 3),
        "stream_delta": (STREAM_VERTICES, 3),
    }[kind]
    return powerlaw_cluster(n, m, 0.30, seed=STRUCTURE_SEED)


def relabel(graph, rng: np.random.Generator):
    """An isomorphic copy of ``graph`` under a random vertex permutation."""
    from repro.graph import Graph

    perm = rng.permutation(graph.num_vertices)
    edges = np.array(list(graph.edges()), dtype=np.int64)
    return Graph.from_edges(graph.num_vertices, perm[edges])


def strata(ranked: list, count: int) -> list[list]:
    """``ranked`` cut into ``count`` contiguous, near-equal slices."""
    bounds = [len(ranked) * i // count for i in range(count + 1)]
    return [ranked[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def free_pair(py: random.Random, low: list, high: list, present: set,
              taken: list) -> "tuple[int, int] | None":
    """A non-edge between ``low`` and ``high``, or None if there is none."""
    for _ in range(64):
        u, v = sorted((py.choice(low), py.choice(high)))
        if u != v and (u, v) not in present and (u, v) not in taken:
            return (u, v)
    free = sorted(
        {(min(u, v), max(u, v)) for u in low for v in high if u != v}
        - present - set(taken)
    )
    return py.choice(free) if free else None


def make_batches(graph, py: random.Random, sizes: list[int]) -> list[tuple]:
    """Successive valid edge batches: ``[(additions, deletions), ...]``.

    Batch ``i`` has ``sizes[i] // 2`` additions and as many deletions and
    applies to the graph the earlier batches left.  Delta work follows the
    degrees of the touched endpoints, which are heavy-tailed: drawing
    edges uniformly moves a pass by +-15% between seeds.  Each batch
    instead deletes one edge from every degree stratum, and adds one edge
    between each stratum of vertices and its mirror, so every seed touches
    the same mix of hub and leaf edges.
    """
    degree = graph.degrees()
    present = {tuple(edge) for edge in graph.edges()}
    by_degree = sorted(graph.vertices(), key=lambda v: (degree[v], v))
    batches = []
    for size in sizes:
        half = size // 2
        ranked = sorted(present, key=lambda e: (degree[e[0]] + degree[e[1]], e))
        deletions = [py.choice(stratum) for stratum in strata(ranked, half)]
        groups = strata(by_degree, half)
        additions: list[tuple[int, int]] = []
        for low, high in zip(groups, reversed(groups)):
            additions.append(
                free_pair(py, low, high, present, additions)
                or free_pair(py, by_degree, by_degree, present, additions)
            )
        present.difference_update(deletions)
        present.update(additions)
        batches.append((additions, deletions))
    return batches


def input_rng(name: str, seed: int) -> np.random.Generator:
    """The generator every input of workload ``name`` is drawn from."""
    return np.random.default_rng([seed, sorted(WORKLOADS).index(name)])


@functools.lru_cache(maxsize=None)
def goldens() -> dict:
    with open(HERE / "goldens.json", encoding="utf-8") as fh:
        return json.load(fh)


def oracle_count(graph, query: str) -> int:
    """Embedding count from the single-machine reference engine."""
    import repro

    return (
        repro.open(graph).with_cluster(machines=1)
        .engine("oracle").query(query).run().embedding_count
    )


# -- the workload interface -----------------------------------------------
class Workload:
    """One workload: inputs from a seed, cold set-up, passes, checks.

    ``attempted`` / ``failed`` count operations (runs, requests, batches);
    a wrong count, a parity mismatch or a refused request is a failure.
    """

    name = ""
    why = ""
    def __init__(self, seed: int, tmp: pathlib.Path, recorder: Recorder,
                 verify: bool = False, graph=None):
        self.seed = seed
        self.tmp = tmp
        self.rec = recorder
        self.verify = verify
        self.rng = input_rng(self.name, seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        if graph is None:
            self.graphs = [relabel(base_graph(self.name), self.rng)]
            self.expected = dict(goldens()[self.name])
        else:
            # Run as a probe on another workload's graph: nothing is
            # committed for it, so the first count seen is the reference.
            self.graphs = [graph]
            self.expected = {}
        self.make_inputs()
        if verify:
            self.verify_goldens()

    # subclasses fill these in
    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Cold set-up: build everything, then run the first pass."""
        raise NotImplementedError

    def run_pass(self, index: int) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (safe to call twice)."""

    def children(self) -> list[children.Child]:
        return []

    def fingerprints(self) -> list[str]:
        """Fingerprints of the generated graphs (for the self-tests)."""
        return [g.fingerprint() for g in self.graphs]

    def script_digest(self) -> str:
        """A stable text of the generated request script."""
        return ""

    # helpers
    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def check_count(self, key: str, result) -> None:
        want = self.expected.setdefault(key, result.embedding_count)
        ok = (not result.failed) and result.embedding_count == want
        self.op(ok, f"{self.name} {key}: count {result.embedding_count} "
                    f"failed={result.failed}, expected {want}")

    def verify_goldens(self) -> None:
        """Recompute every golden with the oracle engine (``--verify``)."""
        for key, want in self.expected.items():
            got = oracle_count(self.graphs[0], key.split(":")[-1])
            self.op(got == want, f"{self.name} golden {key}: oracle {got}, "
                                 f"committed {want}")


class EnumSparse(Workload):
    name = "enum_sparse"
    why = ("road-network grid: SM-E and the backtracking loop do the work, "
           "R-Meef and the network almost none (the paper's RoadNet case)")
    queries = SPARSE_QUERIES
    memory_mb: float | None = None

    def make_inputs(self) -> None:
        self.session = None

    def setup(self) -> None:
        import repro

        with self.rec.span("api.open"):
            self.session = (
                repro.open(self.graphs[0])
                .with_cluster(machines=MACHINES, memory_mb=self.memory_mb)
                .backend("serial")
                .engine("rads")
            )
        self.run_pass(0)

    def run_pass(self, index: int) -> None:
        for query in self.queries:
            with self.rec.span("api.run", engine="rads", query=query):
                result = self.session.query(query).run()
            self.check_count(query, result)

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class EnumSkewed(EnumSparse):
    name = "enum_skewed"
    why = ("dense power-law graph under a 0.25 MiB cap: SM-E finds nothing, "
           "R-Meef expand/verify, foreign-vertex fetch and memory control "
           "are the run (the paper's LiveJournal/UK2002 case)")
    queries = SKEWED_QUERIES
    memory_mb = SKEWED_MEMORY_MB


class ShardedBatch(Workload):
    name = "sharded_batch"
    why = ("socket backend with shard-worker processes: executor dispatch, "
           "the pickle wire, worker tasks and delta merge dominate; the "
           "RADS query ships almost nothing and is the control")

    script = SHARDED_SCRIPT

    def make_inputs(self) -> None:
        self.workers: list[children.Child] = []
        self.session = None
        self.fault_counts = {"resubmits": 0, "lost_workers": 0}

    def setup(self) -> None:
        import repro

        with self.rec.span("distributed.spawn", workers=SHARD_WORKERS):
            self.workers = [
                children.spawn("worker") for _ in range(SHARD_WORKERS)
            ]
        with self.rec.span("api.open"):
            self.session = (
                repro.open(self.graphs[0])
                .with_cluster(machines=MACHINES)
                .backend("socket", shards=[w.address for w in self.workers])
            )
        self.run_pass(0)

    def run_pass(self, index: int) -> None:
        for engine, query in self.script:
            with self.rec.span("api.run", engine=engine, query=query):
                result = self.session.engine(engine).query(query).run()
            self.check_count(f"{engine}:{query}", result)
            for key in self.fault_counts:
                seen = result.counters.get(f"distributed.{key}", 0)
                self.fault_counts[key] += seen
                if seen:
                    self.op(False, f"{self.name} {engine}: {seen} {key}")

    def children(self) -> list[children.Child]:
        return list(self.workers)

    def teardown(self) -> None:
        from repro.distributed import stop_worker

        if self.session is not None:
            self.session.close()
            self.session = None
        for worker in self.workers:
            stop_worker(worker.address)
            worker.reap()
        self.workers = []


class ServedHot(Workload):
    name = "served_hot"
    why = ("closed loop of 2 connections on a served session in a child "
           "process, all cache and store hits: scheduler, cache, "
           "canonicalisation, remap, store indexes, protocol and JSON do "
           "the work, enumeration none")

    def make_inputs(self) -> None:
        import repro
        from repro.graph.io import save_binary

        graph = self.graphs[0]
        self.graph_path = self.tmp / "served_graph.npz"
        save_binary(graph, self.graph_path)
        py = random.Random(int(self.rng.integers(2**31)))
        # Isomorphic rewrites: the same pattern under other vertex names.
        self.rewrites: dict[str, list[str]] = {}
        for query in SERVED_QUERIES:
            pattern = repro.resolve_query(query)
            texts = []
            for _ in range(4):
                perm = list(range(pattern.num_vertices))
                py.shuffle(perm)
                texts.append(str(pattern.relabel(dict(enumerate(perm)))))
            self.rewrites[query] = texts
        # One script per connection: SERVED_ROUNDS rounds, each the eight
        # classes in a drawn order against one query.
        self.scripts: list[list[tuple]] = []
        for conn in range(CLIENTS):
            script: list[tuple] = []
            for rnd in range(SERVED_ROUNDS):
                query = SERVED_QUERIES[(rnd + conn) % len(SERVED_QUERIES)]
                classes = list(SERVED_CLASSES)
                py.shuffle(classes)
                for cls in classes:
                    arg = None
                    if cls == "hit_iso":
                        arg = py.choice(self.rewrites[query])
                    elif cls == "page":
                        arg = py.randrange(0, 64)
                    elif cls == "lookup":
                        arg = py.randrange(graph.num_vertices)
                    script.append((cls, query, arg))
            self.scripts.append(script)
        self.server: children.Child | None = None
        self.clients: list = []
        self.cold: dict[str, int] = {}
        self.cold_collect: dict[str, list] = {}
        self.setups = 0

    def script_digest(self) -> str:
        return json.dumps(self.scripts)

    def truncate(self, rounds: int) -> None:
        """Keep the first ``rounds`` rounds of every script."""
        keep = rounds * len(SERVED_CLASSES)
        self.scripts = [script[:keep] for script in self.scripts]

    def setup(self) -> None:
        import repro

        self.setups += 1
        store_dir = self.tmp / f"store_{self.setups}"
        with self.rec.span("service.spawn"):
            self.server = children.spawn(
                "serve", self.graph_path, store_dir, MACHINES, SERVE_THREADS
            )
        with self.rec.span("service.connect"):
            self.clients = [
                repro.connect(self.server.address) for _ in range(CLIENTS)
            ]
        # Cold fills.  Both connections send the count-only request at the
        # same moment: one executes, the other rides on it (or hits).
        client = self.clients[0]
        for query in SERVED_QUERIES:
            counts: list[int] = []

            def cold(conn: int, query=query, counts=counts) -> None:
                with self.rec.span("service.req.cold", query=query):
                    result = self.clients[conn].submit(query)
                self.check_count(query, result)
                counts.append(result.embedding_count)

            self.on_every_connection(cold)
            self.cold[query] = counts[0]
            with self.rec.span("service.req.cold", query=query):
                collected = client.submit(query, collect=True)
            self.cold_collect[query] = collected.embeddings
            with self.rec.span("service.req.cold", query=query):
                stored = client.submit(query, collect="store")
            self.op(
                collected.embedding_count == stored.embedding_count
                == counts[0] == counts[-1],
                f"{self.name} {query}: cold fills disagree",
            )
        self.run_pass(0)

    def on_every_connection(self, fn) -> None:
        """Run ``fn(conn)`` on one thread per connection, started together."""
        parent = self.rec.current()
        barrier = threading.Barrier(CLIENTS)
        errors: list[BaseException] = []

        def drive(conn: int) -> None:
            self.rec.adopt(parent)
            try:
                barrier.wait(timeout=60)
                fn(conn)
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(conn,))
            for conn in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def run_pass(self, index: int) -> None:
        def script(conn: int) -> None:
            with self.rec.span("service.connection", conn=conn):
                for request in self.scripts[conn]:
                    self.request(self.clients[conn], request)

        self.on_every_connection(script)

    _lock = threading.Lock()

    def request(self, client, request: tuple) -> None:
        from repro.service.client import ServiceError

        cls, query, arg = request
        want = self.cold.get(query)
        try:
            with self.rec.span(f"service.req.{cls}", query=query):
                if cls == "hit_exact":
                    got = client.submit(query)
                    ok = (client.last_cache == "hit"
                          and got.embedding_count == want)
                elif cls == "hit_iso":
                    got = client.submit(arg)
                    ok = (client.last_cache == "hit"
                          and got.embedding_count == want)
                elif cls == "hit_collect":
                    got = client.submit(query, collect=True, limit=100)
                    ok = (client.last_cache == "hit"
                          and got.embedding_count == want
                          and got.embeddings == self.cold_collect[query][:100])
                elif cls == "page":
                    got = client.page(query, limit=50, offset=arg)
                    ok = (got["total"] == want and len(got["embeddings"])
                          == max(0, min(50, want - arg)))
                elif cls == "lookup":
                    got = client.lookup(query, vertex=arg)
                    ok = (got["total"] == want
                          and got["count"] == len(got["embeddings"])
                          and all(arg in emb for emb in got["embeddings"]))
                elif cls == "aggregate":
                    got = client.aggregate(query, group_by="root")
                    ok = (got["total"] == want
                          and sum(got["groups"].values()) == want)
                elif cls == "explain":
                    ok = bool(client.explain(query).to_dict())
                elif cls == "metrics":
                    ok = "scheduler" in client.metrics()
                else:
                    raise ValueError(cls)
        except ServiceError as exc:
            ok = False
            cls = f"{cls}: {exc}"
        with self._lock:
            self.op(ok, f"{self.name} {cls} {query}: wrong or refused")

    def children(self) -> list[children.Child]:
        return [self.server] if self.server is not None else []

    def teardown(self) -> None:
        from repro.service.client import ServiceError

        clients, self.clients = self.clients, []
        if clients and self.server is not None:
            try:
                clients[0].shutdown()
            except (ServiceError, OSError):
                pass
        for client in clients:
            client.close()
        if self.server is not None:
            self.server.reap()
            self.server = None


class StreamDelta(Workload):
    name = "stream_delta"
    why = ("continuous queries over edge batches: the enumeration layer "
           "rooted at one edge, thousands of tiny calls, beside CSR batch "
           "merges and rebinds; a kernel with a fixed cost per call loses "
           "only here")

    def make_inputs(self) -> None:
        py = random.Random(int(self.rng.integers(2**31)))
        sizes = [STREAM_SMALL[1]] * STREAM_SMALL[0]
        sizes += [STREAM_LARGE[1]] * STREAM_LARGE[0]
        py.shuffle(sizes)
        forward = make_batches(self.graphs[0], py, sizes)
        # ... then the inverse batches, so that every pass ends on the
        # graph it started from and does the same work as the last.
        self.script = forward + [
            (deletions, additions) for additions, deletions in reversed(forward)
        ]
        self.session = None
        self.delta_embeddings = 0
        self.passes_run = 0

    def script_digest(self) -> str:
        return json.dumps(self.script)

    def setup(self) -> None:
        import repro

        with self.rec.span("api.open"):
            self.session = repro.open(self.graphs[0]).with_cluster(
                machines=MACHINES
            )
        with self.rec.span("api.watch"):
            self.watches = [
                self.session.watch(query) for query in STREAM_WATCHES
            ]
        self.start_fingerprint = self.graphs[0].fingerprint()
        self.run_pass(0)

    def run_pass(self, index: int) -> None:
        net = [0] * len(self.watches)
        half = len(self.script) // 2
        for step, (additions, deletions) in enumerate(self.script):
            kind = "small" if len(additions) * 2 == STREAM_SMALL[1] else "large"
            with self.rec.span("api.ingest", size=kind):
                report = self.session.ingest(
                    additions=additions, deletions=deletions
                )
            ok = len(report["watches"]) == len(self.watches)
            for slot, watch in enumerate(self.watches):
                records = watch.poll()
                ok = ok and len(records) == 1
                for record in records:
                    net[slot] += record.added_count - record.removed_count
                    self.delta_embeddings += (
                        record.added_count + record.removed_count)
            self.op(ok, f"{self.name} batch {step}: missing delta")
            if self.verify and index == 0 and step == half - 1:
                self.verify_midpoint(net)
        self.passes_run += 1
        restored = self.session.graph.fingerprint() == self.start_fingerprint
        self.op(restored and not any(net),
                f"{self.name}: pass left net deltas {net}, "
                f"fingerprint restored={restored}")

    def verify_midpoint(self, net: list[int]) -> None:
        """Forward deltas must equal the difference of full recounts."""
        for slot, query in enumerate(STREAM_WATCHES):
            before = oracle_count(self.graphs[0], query)
            after = oracle_count(self.session.graph, query)
            self.op(after - before == net[slot],
                    f"{self.name} {query}: deltas {net[slot]}, "
                    f"recount {after - before}")

    def verify_goldens(self) -> None:
        pass  # nothing committed: the batches differ with the seed

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


WORKLOADS = {
    cls.name: cls
    for cls in (EnumSparse, EnumSkewed, ShardedBatch, ServedHot, StreamDelta)
}
