"""Extension benchmark: query-service throughput with and without the cache.

Drives the :class:`repro.service.QueryScheduler` with a realistic serving
mix — a small set of distinct queries, each requested many times (the
skew that makes result caching worth building) — and reports queries/sec
for three configurations:

- ``no-cache``: every request pays full enumeration,
- ``cache``: repeats and isomorphic rewrites are served from the
  canonical-pattern :class:`~repro.service.ResultCache`,
- ``cache+iso``: the same workload where every repeat is an isomorphic
  *rewrite* of the original spelling (exercising the remap path).

The absolute numbers are simulation-host-dependent; the point of the
table is the cache speedup factor and the hit counters.
"""

from __future__ import annotations

import random
import time

from conftest import run_once

import repro
from repro.api import RunConfig
from repro.graph import powerlaw_cluster
from repro.service import QueryScheduler

#: Distinct queries in the mix (names from the paper catalogue).
QUERIES = ("triangle", "q1", "q2", "q3")
#: Total requests (each query repeated REQUESTS / len(QUERIES) times).
REQUESTS = 48
THREADS = 4


def _rewrite(pattern, seed):
    perm = list(range(pattern.num_vertices))
    random.Random(seed).shuffle(perm)
    return pattern.relabel(dict(enumerate(perm))).copy_with_name(
        f"{pattern.name}~{seed}"
    )


def _workload(isomorphic_rewrites: bool):
    """REQUESTS patterns: each catalogue query repeated round-robin."""
    patterns = [repro.resolve_query(name) for name in QUERIES]
    requests = []
    for i in range(REQUESTS):
        pattern = patterns[i % len(patterns)]
        if isomorphic_rewrites and i >= len(patterns):
            pattern = _rewrite(pattern, seed=i)
        requests.append(pattern)
    return requests


def _drive(
    graph, *, cache, isomorphic_rewrites=False, trace=False, profile=False
):
    config = RunConfig(machines=4)
    requests = _workload(isomorphic_rewrites)
    with QueryScheduler(
        graph, config, threads=THREADS, cache=cache
    ) as scheduler:
        start = time.perf_counter()
        # First wave: the distinct queries, run to completion — so the
        # burst of repeats below actually exercises the cache instead of
        # deduplicating onto still-in-flight executions.
        warm = [
            scheduler.submit(pattern, "rads", trace=trace, profile=profile)
            for pattern in requests[: len(QUERIES)]
        ]
        results = [ticket.result(600) for ticket in warm]
        tickets = [
            scheduler.submit(pattern, "rads", trace=trace, profile=profile)
            for pattern in requests[len(QUERIES):]
        ]
        results += [ticket.result(600) for ticket in tickets]
        elapsed = time.perf_counter() - start
        stats = scheduler.stats()
    assert len({r.embedding_count for r in results}) == len(QUERIES)
    return elapsed, stats


def test_service_throughput(benchmark, report):
    graph = powerlaw_cluster(400, edges_per_vertex=4, seed=11)

    def experiment():
        rows = []
        for label, cache, iso in (
            ("no-cache", False, False),
            ("cache", None, False),
            ("cache+iso", None, True),
        ):
            elapsed, stats = _drive(
                graph, cache=cache, isomorphic_rewrites=iso
            )
            cache_stats = stats["cache"] or {"hits": 0, "misses": REQUESTS}
            rows.append((
                label,
                REQUESTS / elapsed,
                elapsed,
                cache_stats["hits"],
                cache_stats["misses"],
                stats["deduped"],
            ))
        return rows

    rows = run_once(benchmark, experiment)

    lines = [
        "Service throughput — powerlaw |V|=400, 4 machines, "
        f"{THREADS} threads, {REQUESTS} requests over {len(QUERIES)} "
        "distinct queries",
        f"{'config':>10} {'q/s':>10} {'elapsed':>9} {'hits':>6} "
        f"{'misses':>7} {'dedup':>6}",
    ]
    for label, qps, elapsed, hits, misses, deduped in rows:
        lines.append(
            f"{label:>10} {qps:>10.1f} {elapsed:>8.2f}s {hits:>6} "
            f"{misses:>7} {deduped:>6}"
        )
    baseline = rows[0][1]
    for label, qps, *_ in rows[1:]:
        lines.append(f"{label} speedup over no-cache: {qps / baseline:.1f}x")
    report("ext_service_throughput", "\n".join(lines))

    # The cache must actually absorb the repeats...
    assert rows[1][3] >= REQUESTS - len(QUERIES) - rows[1][5]
    # ...and a served workload with repeats must not be slower than
    # re-enumerating everything (generous bound: simulation noise).
    assert rows[1][1] >= rows[0][1]


# ----------------------------------------------------------------------
# Multi-tenant open-loop load on the elastic socket backend
# ----------------------------------------------------------------------
#: Open-loop requests fired without waiting (tenants alternate).
OPEN_LOOP_REQUESTS = 24
OPEN_LOOP_TENANTS = ("gold", "bronze")


def test_ext_multitenant_elastic_throughput(benchmark, report):
    """Open-loop multi-tenant load with a shard worker killed mid-run.

    Two announced shard workers serve a weighted pair of tenants; every
    request is submitted up front (open loop), one worker is crashed once
    a third of the responses are in, and the remaining work rides the
    fault-tolerance path (lost worker, task resubmission) on the
    surviving shard.  The table reports per-tenant completions and the
    fault counters — the acceptance bar is that every request completes
    and the kill is visible in the counters, not silent.
    """
    from repro.distributed import ShardRegistry, ShardWorker
    from repro.service import TenantQuota

    graph = powerlaw_cluster(300, edges_per_vertex=4, seed=11)

    def experiment():
        registry = ShardRegistry()
        workers = [ShardWorker().start(), ShardWorker().start()]
        for worker in workers:
            registry.announce(worker.address)
        config = RunConfig(machines=4, backend="socket")
        try:
            with QueryScheduler(
                graph,
                config,
                threads=THREADS,
                cache=False,
                shard_registry=registry,
                tenants={
                    "gold": TenantQuota(weight=2.0),
                    "bronze": TenantQuota(weight=1.0),
                },
            ) as scheduler:
                start = time.perf_counter()
                tickets = [
                    scheduler.submit(
                        QUERIES[i % len(QUERIES)],
                        "rads",
                        tenant=OPEN_LOOP_TENANTS[
                            i % len(OPEN_LOOP_TENANTS)
                        ],
                    )
                    for i in range(OPEN_LOOP_REQUESTS)
                ]
                deadline = time.monotonic() + 600
                while (
                    scheduler.stats()["completed"]
                    < OPEN_LOOP_REQUESTS // 3
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                workers[1].crash()  # mid-run, no withdraw: a dead host
                results = [ticket.result(600) for ticket in tickets]
                elapsed = time.perf_counter() - start
                stats = scheduler.stats()
            lost = sum(
                r.counters.get("distributed.lost_workers", 0)
                for r in results
            )
            resubmits = sum(
                r.counters.get("distributed.resubmits", 0)
                for r in results
            )
            return elapsed, stats, lost, resubmits
        finally:
            for worker in workers:
                worker.close()

    elapsed, stats, lost, resubmits = run_once(benchmark, experiment)

    tenants = stats["tenants"]
    lines = [
        "Multi-tenant elastic service — powerlaw |V|=300, 4 machines, "
        f"{THREADS} threads, {OPEN_LOOP_REQUESTS} open-loop requests, "
        "2 shard workers (one killed mid-run)",
        f"{'tenant':>8} {'weight':>7} {'submitted':>10} {'completed':>10} "
        f"{'deduped':>8}",
    ]
    for name in OPEN_LOOP_TENANTS:
        row = tenants[name]
        lines.append(
            f"{name:>8} {row['weight']:>7.1f} {row['submitted']:>10} "
            f"{row['completed']:>10} {row['deduped']:>8}"
        )
    lines.append(
        f"throughput: {OPEN_LOOP_REQUESTS / elapsed:.1f} q/s "
        f"({elapsed:.2f}s); lost workers: {lost}, task resubmits: "
        f"{resubmits}"
    )
    report("ext_service_multitenant", "\n".join(lines))

    # Every request survives the mid-run kill...
    assert stats["completed"] == OPEN_LOOP_REQUESTS
    assert stats["failed"] == 0
    per_tenant = OPEN_LOOP_REQUESTS // len(OPEN_LOOP_TENANTS)
    for name in OPEN_LOOP_TENANTS:
        assert tenants[name]["submitted"] == per_tenant
        assert (
            tenants[name]["completed"] + tenants[name]["deduped"]
            >= per_tenant
        )
    # ...and the kill is visible on the fault counters, not silent.
    assert lost >= 1


# ----------------------------------------------------------------------
# Tracing overhead guard (PR 9)
# ----------------------------------------------------------------------
#: Iterations for the disabled-instrumentation microprobes.
TRACE_PROBE_ITERS = 50_000


def test_ext_tracing_overhead(benchmark, report):
    """Disabled tracing must cost nothing the serving path can feel.

    The guard against instrumentation creep: (a) the no-op ``span()``
    context (one ContextVar read) and a ``Histogram.observe`` stay in
    single-digit microseconds, (b) their combined per-request cost is
    deep inside the noise of the untraced serving drive — i.e. the
    PR 8 baseline throughput is preserved — and (c) a fully traced
    drive still produces the same enumeration counts (spans observe,
    never perturb).
    """
    from repro.obs.hist import Histogram
    from repro.obs.trace import span

    graph = powerlaw_cluster(400, edges_per_vertex=4, seed=11)

    def experiment():
        start = time.perf_counter()
        for _ in range(TRACE_PROBE_ITERS):
            with span("probe"):
                pass
        span_cost = (time.perf_counter() - start) / TRACE_PROBE_ITERS
        hist = Histogram("probe")
        start = time.perf_counter()
        for _ in range(TRACE_PROBE_ITERS):
            hist.observe(0.001)
        observe_cost = (time.perf_counter() - start) / TRACE_PROBE_ITERS
        elapsed_off, _ = _drive(graph, cache=False)
        elapsed_on, _ = _drive(graph, cache=False, trace=True)
        return span_cost, observe_cost, elapsed_off, elapsed_on

    span_cost, observe_cost, elapsed_off, elapsed_on = run_once(
        benchmark, experiment
    )

    # The scheduler touches at most one disabled root span and a
    # handful of histogram observations per request.
    per_request = span_cost + 3 * observe_cost
    baseline_per_request = elapsed_off / REQUESTS
    lines = [
        "Tracing overhead — powerlaw |V|=400, 4 machines, "
        f"{THREADS} threads, {REQUESTS} requests (cache off)",
        f"no-op span():        {span_cost * 1e6:8.3f} us/call",
        f"Histogram.observe(): {observe_cost * 1e6:8.3f} us/call",
        f"disabled overhead:   {per_request * 1e6:8.3f} us/request "
        f"({100 * per_request / baseline_per_request:.4f}% of the "
        f"{baseline_per_request * 1e3:.1f}ms baseline request)",
        f"untraced drive: {elapsed_off:6.2f}s "
        f"({REQUESTS / elapsed_off:.1f} q/s)",
        f"traced drive:   {elapsed_on:6.2f}s "
        f"({REQUESTS / elapsed_on:.1f} q/s, "
        f"{elapsed_on / elapsed_off:.2f}x)",
    ]
    report("ext_tracing_overhead", "\n".join(lines))

    # (a) the disabled primitives stay cheap in absolute terms...
    assert span_cost < 10e-6
    assert observe_cost < 10e-6
    # (b) ...so the untraced serving path is within noise of the
    # pre-observability baseline: the added fixed cost per request is
    # a vanishing fraction of what a request already costs.
    assert per_request < 0.01 * baseline_per_request
    # (c) and even full tracing stays a bounded, modest tax.
    assert elapsed_on < elapsed_off * 1.5 + 1.0


# ----------------------------------------------------------------------
# Profiling overhead guard (PR 10)
# ----------------------------------------------------------------------
def test_ext_profiling_overhead(benchmark, report):
    """Enabled profiling must not perturb, nor cost without bound.

    A fully profiled drive must produce the same enumeration counts, and
    a profiled/unprofiled pair of the same query must be bit-identical on
    every engine stat: profiles observe, never perturb.  (An unprofiled
    execution runs no profiling code: nothing to time.)
    """
    graph = powerlaw_cluster(400, edges_per_vertex=4, seed=11)

    def _stats(result):
        return (
            result.failed,
            result.embedding_count,
            result.makespan,
            result.total_comm_bytes,
            result.peak_memory,
            tuple(result.per_machine_time),
            {
                name: value
                for name, value in result.counters.items()
                if not name.startswith("service.")
            },
        )

    def experiment():
        elapsed_off, _ = _drive(graph, cache=False)
        elapsed_on, _ = _drive(graph, cache=False, profile=True)
        # Bit-parity: same scheduler, same query, profiled and not.
        with QueryScheduler(
            graph, RunConfig(machines=4), threads=1, cache=False
        ) as scheduler:
            plain = scheduler.submit("q2", "rads").result(600)
            profiled = scheduler.submit(
                "q2", "rads", profile=True
            ).result(600)
        assert plain.profile is None
        assert profiled.profile is not None
        assert profiled.profile["wall_seconds"] > 0
        identical = _stats(plain) == _stats(profiled)
        return elapsed_off, elapsed_on, identical

    elapsed_off, elapsed_on, identical = run_once(
        benchmark, experiment
    )

    baseline_per_request = elapsed_off / REQUESTS
    lines = [
        "Profiling overhead — powerlaw |V|=400, 4 machines, "
        f"{THREADS} threads, {REQUESTS} requests (cache off)",
        f"baseline request: {baseline_per_request * 1e3:.1f}ms",
        f"unprofiled drive: {elapsed_off:6.2f}s "
        f"({REQUESTS / elapsed_off:.1f} q/s)",
        f"profiled drive:   {elapsed_on:6.2f}s "
        f"({REQUESTS / elapsed_on:.1f} q/s, "
        f"{elapsed_on / elapsed_off:.2f}x)",
        f"profiled stats bit-identical: {identical}",
    ]
    report("ext_profiling_overhead", "\n".join(lines))

    # Profiles observe, never perturb.
    assert identical
    # Enabled profiling is a deliberate opt-in cost — tracemalloc hooks
    # every allocation in the process — so the bound here only catches
    # runaway regressions, not the instrument's own (large) price.
    assert elapsed_on < elapsed_off * 15.0 + 5.0
