"""Extension benchmark: the socket backend, forked or in-process shards.

Runs the same query mix through the process backend (shard workers
forked on this host) and through the socket backend at 1, 2 and 4
in-process shard workers, reporting queries/sec for each configuration.
Both are one mechanism now — pickle + TCP per task to a shard worker —
so the table no longer compares two designs: it shows what separate
processes buy over shard threads sharing this interpreter, and how the
wire cost amortises with shard count.  Counts must agree everywhere (the
correctness contract of every backend).
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.api import default_registry
from repro.bench.experiments import bench_graph
from repro.cluster import Cluster
from repro.distributed import ProcessExecutor, ShardWorker, SocketExecutor
from repro.query import named_patterns

QUERIES = ("q1", "q2", "q3")
#: Requests per configuration (each query run round-robin).
REQUESTS = 12
SHARD_COUNTS = (1, 2, 4)
PROCESS_WORKERS = 4


def _drive(cluster, executor) -> tuple[float, tuple[int, ...]]:
    """Run the request mix on one backend; (elapsed s, counts)."""
    engine = default_registry().create("rads", graph=cluster.graph)
    patterns = [named_patterns()[name] for name in QUERIES]
    counts = []
    start = time.perf_counter()
    for i in range(REQUESTS):
        result = engine.run(
            cluster.fresh_copy(),
            patterns[i % len(patterns)],
            collect_embeddings=False,
            executor=executor,
        )
        assert not result.failed
        counts.append(result.embedding_count)
    elapsed = time.perf_counter() - start
    return elapsed, tuple(counts[: len(QUERIES)])


def test_ext_distributed_backends(benchmark, report):
    graph = bench_graph("roadnet")
    cluster = Cluster.create(graph, 8)

    def experiment():
        rows = []
        with ProcessExecutor(PROCESS_WORKERS) as executor:
            elapsed, counts = _drive(cluster, executor)
            rows.append((f"process x{PROCESS_WORKERS}", elapsed, counts))
        for shard_count in SHARD_COUNTS:
            workers = [ShardWorker().start() for _ in range(shard_count)]
            try:
                with SocketExecutor(
                    [w.address for w in workers],
                    heartbeat_interval=None,
                ) as executor:
                    elapsed, counts = _drive(cluster, executor)
                rows.append((f"socket x{shard_count}", elapsed, counts))
            finally:
                for worker in workers:
                    worker.close()
        return rows

    rows = run_once(benchmark, experiment)

    # Every backend must agree on every query's count.
    reference = rows[0][2]
    for label, _elapsed, counts in rows:
        assert counts == reference, (label, counts, reference)

    lines = [
        f"Distributed shard backend — roadnet, RADS, {REQUESTS} requests "
        f"over {', '.join(QUERIES)} (8 simulated machines)",
    ]
    for label, elapsed, _counts in rows:
        qps = REQUESTS / elapsed if elapsed else float("inf")
        lines.append(f"  {label:<12} {elapsed:8.2f} s   {qps:6.2f} q/s")
    lines.append("  embedding counts:          identical across backends")
    report("ext_distributed", "\n".join(lines))
