"""The query service layer: cache, scheduler, socket server + client."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

import repro
from repro.api import RunConfig
from repro.api.registry import EngineRegistry, EngineSpec
from repro.api.results import read_records_jsonl
from repro.cli import main as cli_main
from repro.engines.base import EnumerationEngine, RunResult
from repro.graph import erdos_renyi
from repro.query.explain import QueryExplanation
from strategies import cycle
from repro.service import (
    AdmissionError,
    QueryScheduler,
    QueryServer,
    ResultCache,
    SchedulerClosed,
    ServiceError,
    ServiceTimeout,
    cache_key,
    config_digest,
    connect,
    remap_embeddings,
)
from repro.service import protocol


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.12, seed=17)


def triangle(name="triangle"):
    return repro.pattern("a-b, b-c, c-a").copy_with_name(name)


def shuffled(pattern, seed=3, name="rewrite"):
    """An isomorphic rewrite: the same structure under a random relabeling."""
    import random

    perm = list(range(pattern.num_vertices))
    random.Random(seed).shuffle(perm)
    return pattern.relabel(dict(enumerate(perm))).copy_with_name(name)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_isomorphic_patterns_share_a_key(self, graph):
        config = RunConfig(machines=3)
        p = repro.pattern("a-b, b-c, c-a, a-d")
        q = repro.pattern("x-y, z-x, w-z, y-z").copy_with_name("other")
        assert p.isomorphic_to(q)
        assert cache_key(graph, p, "RADS", config, collect=False) == \
            cache_key(graph, q, "RADS", config, collect=False)

    def test_key_separates_engine_config_collect_and_graph(self, graph):
        config = RunConfig(machines=3)
        p = triangle()
        base = cache_key(graph, p, "RADS", config, collect=False)
        assert cache_key(graph, p, "PSgL", config, collect=False) != base
        assert cache_key(
            graph, p, "RADS", RunConfig(machines=4), collect=False
        ) != base
        assert cache_key(graph, p, "RADS", config, collect=True) != base
        other = erdos_renyi(60, 0.12, seed=18)
        assert cache_key(other, p, "RADS", config, collect=False) != base

    def test_digest_ignores_workers_and_result_mode(self):
        base = config_digest(RunConfig(machines=3))
        assert config_digest(RunConfig(machines=3, workers=2)) == base
        assert config_digest(
            RunConfig(machines=3, collect=True, limit=5)
        ) == base
        assert config_digest(RunConfig(machines=3, memory_mb=64)) != base
        assert config_digest(
            RunConfig(machines=3, stragglers={0: 2.0})
        ) != base

    def test_graph_fingerprint_tracks_content(self, graph):
        assert graph.fingerprint() == graph.fingerprint()
        same = erdos_renyi(60, 0.12, seed=17)
        assert same.fingerprint() == graph.fingerprint()
        assert erdos_renyi(60, 0.12, seed=1).fingerprint() != \
            graph.fingerprint()


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
def _result(name="triangle", count=5, embeddings=None):
    return RunResult(
        engine="RADS",
        pattern_name=name,
        embedding_count=count,
        makespan=1.5,
        total_comm_bytes=10,
        peak_memory=20,
        per_machine_time=[1.0, 1.5],
        embeddings=embeddings,
    )


class TestResultCache:
    def test_round_trip_is_an_independent_copy(self):
        cache = ResultCache()
        p = triangle()
        stored = _result(embeddings=[(1, 2, 3)])
        cache.put(("k",), p, stored)
        served = cache.get(("k",), p)
        assert served.embedding_count == stored.embedding_count
        assert served.embeddings == [(1, 2, 3)]
        served.embeddings.append((9, 9, 9))
        served.counters["x"] = 1
        again = cache.get(("k",), p)
        assert again.embeddings == [(1, 2, 3)]
        assert "x" not in again.counters

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        p = triangle()
        cache.put(("a",), p, _result())
        cache.put(("b",), p, _result())
        assert cache.get(("a",), p) is not None  # refresh "a"
        cache.put(("c",), p, _result())          # evicts "b"
        assert cache.get(("b",), p) is None
        assert cache.get(("a",), p) is not None
        assert cache.get(("c",), p) is not None
        assert cache.evictions == 1

    def test_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        cache = ResultCache(ttl=10.0, clock=lambda: now[0])
        p = triangle()
        cache.put(("k",), p, _result())
        now[0] = 9.9
        assert cache.get(("k",), p) is not None
        now[0] = 10.0
        assert cache.get(("k",), p) is None
        assert cache.expirations == 1
        assert len(cache._entries) == 0

    def test_failed_runs_are_not_cached(self):
        cache = ResultCache()
        failed = _result()
        failed.failed = True
        assert not cache.put(("k",), triangle(), failed)
        assert cache.get(("k",), triangle()) is None

    def test_hit_serves_remapped_embeddings_for_isomorphic_pattern(self):
        cache = ResultCache()
        p = repro.pattern("a-b, b-c")  # path, 0-1-2
        q = repro.pattern("a-b, a-c").copy_with_name("star")  # centre 0
        cache.put(("k",), p, _result(embeddings=[(10, 11, 12)]))
        served = cache.get(("k",), q)
        assert served.pattern_name == "star"
        # q's centre (vertex 0) must land on the path's middle (11).
        (emb,) = served.embeddings
        assert emb[0] == 11 and set(emb) == {10, 11, 12}

    def test_limit_serves_the_first_rows_of_the_full_remap(self):
        cache = ResultCache()
        p = repro.pattern("a-b, b-c")
        q = repro.pattern("a-b, a-c").copy_with_name("star")
        rows = [(10 + 3 * i, 11 + 3 * i, 12 + 3 * i) for i in range(50)]
        cache.put(("k",), p, _result(embeddings=rows))
        full = cache.get(("k",), q)
        page = cache.get(("k",), q, limit=7)
        assert page.embeddings == full.embeddings[:7]
        assert page.embedding_count == full.embedding_count
        # The stored entry is untouched by the sliced serve.
        assert cache.get(("k",), q) == full
        assert cache.get(("k",), q, limit=500) == full

    def test_annotate_surfaces_counters(self):
        cache = ResultCache()
        p = triangle()
        cache.put(("k",), p, _result())
        served = cache.get(("k",), p)
        cache.annotate(served, hit=True)
        assert served.counters["service.cache_hit"] == 1
        assert served.counters["service.cache_hits"] == 1
        assert served.counters["service.cache_misses"] == 0
        assert served.counters["service.cache_evictions"] == 0


class TestRemap:
    def test_identity_for_structurally_equal_patterns(self):
        p = triangle()
        embs = [(3, 1, 2), (5, 4, 6)]
        assert remap_embeddings(embs, p, triangle("other")) == embs

    def test_rejects_non_isomorphic(self):
        with pytest.raises(ValueError, match="not\\s+isomorphic"):
            remap_embeddings(
                [(0, 1, 2)], triangle(), repro.pattern("a-b, b-c")
            )

    def test_remapped_tuples_are_valid_embeddings(self, graph):
        p = repro.pattern("a-b, b-c, c-a, a-d, b-e, d-e")  # house / q4
        q = shuffled(p, seed=11)
        direct = (
            repro.open(graph).with_cluster(machines=3)
            .engine("single").query(p).run(collect=True)
        )
        remapped = remap_embeddings(direct.embeddings, p, q)
        for emb in remapped[:100]:
            for u, v in q.edges():
                assert graph.has_edge(emb[u], emb[v])


# ----------------------------------------------------------------------
# Scheduler: a controllable stub engine
# ----------------------------------------------------------------------
class _StubEngine(EnumerationEngine):
    """Deterministic engine whose runs block on an event (class-shared)."""

    name = "Stub"
    gate: "threading.Event | None" = None
    barrier: "threading.Barrier | None" = None
    executed: list[str] = []
    lock = threading.Lock()

    def _execute(self, cluster, pattern, constraints, collect, executor):
        if _StubEngine.barrier is not None:
            _StubEngine.barrier.wait(timeout=30)
        if _StubEngine.gate is not None:
            assert _StubEngine.gate.wait(timeout=30)
        with _StubEngine.lock:
            _StubEngine.executed.append(pattern.name)
        self._count = pattern.num_vertices
        return [tuple(range(pattern.num_vertices))] if collect else []


@pytest.fixture()
def stub_registry():
    registry = EngineRegistry()
    registry.register(EngineSpec(name="Stub", engine_cls=_StubEngine))
    _StubEngine.gate = None
    _StubEngine.barrier = None
    _StubEngine.executed = []
    yield registry
    _StubEngine.gate = None
    _StubEngine.barrier = None


def _await_running(scheduler, count=1, timeout=10.0):
    """Block until ``count`` executions hold worker threads."""
    deadline = time.monotonic() + timeout
    while scheduler.stats()["running"] < count:
        assert time.monotonic() < deadline, "no execution started"
        time.sleep(0.01)


class TestScheduler:
    def test_sustains_eight_concurrent_in_flight_queries(
        self, graph, stub_registry
    ):
        _StubEngine.barrier = threading.Barrier(9)
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=8
        ) as scheduler:
            tickets = [
                scheduler.submit(cycle(n), "stub") for n in range(3, 11)
            ]
            # All eight runs are now blocked inside the barrier together.
            _StubEngine.barrier.wait(timeout=30)
            results = [t.result(30) for t in tickets]
            stats = scheduler.stats()
        assert stats["max_in_flight"] >= 8
        assert sorted(r.embedding_count for r in results) == list(
            range(3, 11)
        )
        assert stats["completed"] == 8

    def test_deduplicates_identical_in_flight_queries(
        self, graph, stub_registry
    ):
        _StubEngine.gate = gate = threading.Event()
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            blocker = scheduler.submit(cycle(5), "stub")
            first = scheduler.submit(triangle(), "stub")
            second = scheduler.submit(triangle("same-again"), "stub")
            third = scheduler.submit(shuffled(cycle(3), name="iso"), "stub")
            assert second.deduped and third.deduped and not first.deduped
            gate.set()
            results = [
                t.result(30) for t in (blocker, first, second, third)
            ]
        assert [r.embedding_count for r in results] == [5, 3, 3, 3]
        assert results[2].counters["service.dedup"] == 1
        # One execution served all three triangle requests.
        assert _StubEngine.executed.count("triangle") == 1
        assert scheduler.stats()["deduped"] == 2

    def test_priority_orders_the_queue(self, graph, stub_registry):
        _StubEngine.gate = gate = threading.Event()
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            blocker = scheduler.submit(cycle(7), "stub")
            deadline = time.monotonic() + 10
            while (
                scheduler.stats()["running"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            low = scheduler.submit(cycle(4), "stub", priority=-5)
            mid = scheduler.submit(cycle(5), "stub")
            high = scheduler.submit(cycle(6), "stub", priority=10)
            gate.set()
            for ticket in (blocker, low, mid, high):
                ticket.result(30)
        assert _StubEngine.executed == [
            "cycle7", "cycle6", "cycle5", "cycle4"
        ]

    def test_admission_budget_serializes_and_rejects(
        self, graph, stub_registry
    ):
        _StubEngine.gate = gate = threading.Event()
        config = RunConfig(machines=2, memory_mb=10)  # 20 MiB per query
        with QueryScheduler(
            graph, config, stub_registry, threads=2, memory_budget_mb=30
        ) as scheduler:
            first = scheduler.submit(cycle(3), "stub")
            second = scheduler.submit(cycle(4), "stub")
            deadline = time.monotonic() + 10
            while (
                scheduler.stats()["running"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            stats = scheduler.stats()
            # Two worker threads, but only one 20 MiB query fits in 30 MiB.
            assert stats["running"] == 1
            assert stats["queued"] == 1
            with pytest.raises(AdmissionError):
                scheduler.submit(cycle(5), "stub", memory_mb=31)
            gate.set()
            first.result(30)
            second.result(30)
        assert scheduler.stats()["max_in_flight"] == 1
        assert scheduler.stats()["rejected"] == 1

    def test_queue_timeout_is_honored(self, graph, stub_registry):
        _StubEngine.gate = gate = threading.Event()
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            blocker = scheduler.submit(cycle(5), "stub")
            doomed = scheduler.submit(triangle(), "stub", timeout=0.05)
            time.sleep(0.2)
            gate.set()
            blocker.result(30)
            with pytest.raises(ServiceTimeout):
                doomed.result(30)
        assert "triangle" not in _StubEngine.executed
        assert scheduler.stats()["timeouts"] == 1

    def test_waiting_result_returns_at_the_deadline(
        self, graph, stub_registry
    ):
        """The deadline timer bounds result() even while workers are busy."""
        _StubEngine.gate = gate = threading.Event()
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            blocker = scheduler.submit(cycle(5), "stub")
            doomed = scheduler.submit(triangle(), "stub", timeout=0.2)
            start = time.monotonic()
            with pytest.raises(ServiceTimeout):
                # Well before the blocker is ever released.
                doomed.result(10)
            assert time.monotonic() - start < 5
            gate.set()
            blocker.result(30)
        assert scheduler.stats()["timeouts"] == 1

    def test_running_request_times_out_but_still_populates_cache(
        self, graph, stub_registry
    ):
        _StubEngine.gate = gate = threading.Event()
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            ticket = scheduler.submit(triangle(), "stub", timeout=0.2)
            with pytest.raises(ServiceTimeout):
                ticket.result(10)
            gate.set()
            deadline = time.monotonic() + 10
            while (
                scheduler.stats()["running"] > 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            # The execution completed anyway and seeded the cache.
            follow_up = scheduler.submit(triangle(), "stub")
            assert follow_up.result(30).embedding_count == 3
            assert follow_up.cache_hit

    def test_dedup_rider_escalates_queue_priority(
        self, graph, stub_registry
    ):
        _StubEngine.gate = gate = threading.Event()
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            blocker = scheduler.submit(cycle(7), "stub")
            deadline = time.monotonic() + 10
            while (
                scheduler.stats()["running"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            other = scheduler.submit(cycle(5), "stub")
            low = scheduler.submit(cycle(4), "stub")
            rider = scheduler.submit(cycle(4), "stub", priority=10)
            assert rider.deduped
            gate.set()
            for ticket in (blocker, other, low, rider):
                ticket.result(30)
        # FIFO alone would run cycle5 first; the rider's priority
        # escalated the queued cycle4 execution past it.
        assert _StubEngine.executed == ["cycle7", "cycle4", "cycle5"]

    def test_broken_engine_factory_fails_tickets_not_workers(
        self, graph, stub_registry
    ):
        def _broken_factory(*, graph=None, **kwargs):
            raise RuntimeError("factory exploded")

        stub_registry.register(EngineSpec(
            name="Broken", engine_cls=_StubEngine, factory=_broken_factory,
        ))
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            doomed = scheduler.submit(triangle(), "broken")
            with pytest.raises(RuntimeError, match="factory exploded"):
                doomed.result(30)
            # The (only) worker survived and keeps serving.
            assert scheduler.submit(
                cycle(4), "stub"
            ).result(30).embedding_count == 4
        assert scheduler.stats()["failed"] == 1

    def test_cancel_skips_queued_work(self, graph, stub_registry):
        _StubEngine.gate = gate = threading.Event()
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            blocker = scheduler.submit(cycle(5), "stub")
            doomed = scheduler.submit(triangle(), "stub")
            assert doomed.cancel()
            gate.set()
            blocker.result(30)
        assert doomed.cancelled()
        assert "triangle" not in _StubEngine.executed

    def test_cancel_reaps_the_deadline_timer(self, graph, stub_registry):
        _StubEngine.gate = gate = threading.Event()
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            blocker = scheduler.submit(cycle(5), "stub")
            doomed = scheduler.submit(triangle(), "stub", timeout=300)
            assert doomed._timer is not None
            assert doomed.cancel()
            assert doomed._timer is None  # no sleeping Timer thread left
            gate.set()
            blocker.result(30)

    def test_drain_close_survives_priority_escalation(
        self, graph, stub_registry
    ):
        """close(cancel_pending=False) must not hang on stale heap entries."""
        _StubEngine.gate = gate = threading.Event()
        scheduler = QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        )
        blocker = scheduler.submit(cycle(5), "stub")
        deadline = time.monotonic() + 10
        while (
            scheduler.stats()["running"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        queued = scheduler.submit(triangle(), "stub")
        rider = scheduler.submit(triangle(), "stub", priority=7)
        assert rider.deduped  # leaves a stale pre-escalation heap entry
        gate.set()
        closer = threading.Thread(
            target=scheduler.close, kwargs={"cancel_pending": False}
        )
        closer.start()
        closer.join(30)
        assert not closer.is_alive(), "drain close deadlocked"
        assert blocker.result(1).embedding_count == 5
        assert queued.result(1).embedding_count == 3
        assert rider.result(1).embedding_count == 3

    def test_escalated_execution_queues_behind_its_new_priority(
        self, graph, stub_registry
    ):
        """A rider raising a queued execution's priority re-queues it
        behind the work already waiting at that priority."""
        _StubEngine.gate = gate = threading.Event()
        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            blocker = scheduler.submit(cycle(7), "stub")
            _await_running(scheduler)
            low = scheduler.submit(cycle(4), "stub")
            high = scheduler.submit(cycle(5), "stub", priority=5)
            rider = scheduler.submit(cycle(4), "stub", priority=5)
            assert rider.deduped
            gate.set()
            for ticket in (blocker, low, high, rider):
                ticket.result(30)
        assert _StubEngine.executed == ["cycle7", "cycle5", "cycle4"]

    def test_job_priority_orders_against_queued_queries(
        self, graph, stub_registry
    ):
        _StubEngine.gate = gate = threading.Event()

        def job():
            with _StubEngine.lock:
                _StubEngine.executed.append("job")
            return "done"

        with QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        ) as scheduler:
            blocker = scheduler.submit(cycle(7), "stub")
            _await_running(scheduler)
            query = scheduler.submit(cycle(4), "stub")
            ticket = scheduler.submit_job(job, priority=5)
            gate.set()
            assert ticket.result(30) == "done"
            blocker.result(30)
            query.result(30)
        assert _StubEngine.executed == ["cycle7", "job", "cycle4"]

    def test_drain_close_counts_a_cancelled_queued_request(
        self, graph, stub_registry
    ):
        _StubEngine.gate = gate = threading.Event()
        scheduler = QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        )
        blocker = scheduler.submit(cycle(5), "stub")
        _await_running(scheduler)
        doomed = scheduler.submit(triangle(), "stub")
        assert doomed.cancel()
        gate.set()
        closer = threading.Thread(
            target=scheduler.close, kwargs={"cancel_pending": False}
        )
        closer.start()
        closer.join(30)
        assert not closer.is_alive(), "drain close deadlocked"
        assert blocker.result(1).embedding_count == 5
        assert scheduler.stats()["cancelled"] == 1
        assert "triangle" not in _StubEngine.executed

    def test_submit_after_close_raises(self, graph, stub_registry):
        scheduler = QueryScheduler(
            graph, RunConfig(machines=2), stub_registry, threads=1
        )
        scheduler.close()
        with pytest.raises(SchedulerClosed):
            scheduler.submit(triangle(), "stub")

    def test_budget_without_memory_mb_is_rejected(self, graph):
        """An explicit budget over unmetered (cost-0) requests is a no-op
        admission control — refuse it loudly instead."""
        with pytest.raises(ValueError, match="memory_budget_mb"):
            QueryScheduler(
                graph, RunConfig(machines=2), threads=1,
                memory_budget_mb=64,
            )

    def test_labeled_queries_are_rejected(self, graph):
        with QueryScheduler(
            graph, RunConfig(machines=2), threads=1
        ) as scheduler:
            with pytest.raises(ValueError, match="unlabeled"):
                scheduler.submit("a:0-b:1", "single")


class TestSchedulerResults:
    """Real engines: served results match a standalone Session bit for bit."""

    def test_miss_then_hit_matches_session_run(self, graph):
        config = RunConfig(machines=3)
        session = (
            repro.open(graph).with_config(config)
            .engine("rads").query("q2")
        )
        direct = session.run(collect=True)
        with QueryScheduler(graph, config, threads=2) as scheduler:
            first = scheduler.submit("q2", "rads", collect=True)
            miss = first.result(60)
            second = scheduler.submit("q2", "rads", collect=True)
            hit = second.result(60)
        assert not first.cache_hit and second.cache_hit
        for served in (miss, hit):
            assert served.embedding_count == direct.embedding_count
            assert served.makespan == direct.makespan
            assert served.total_comm_bytes == direct.total_comm_bytes
            assert served.peak_memory == direct.peak_memory
            assert served.embeddings == direct.embeddings
        assert miss.counters["service.cache_hit"] == 0
        assert hit.counters["service.cache_hit"] == 1

    def test_isomorphic_rewrite_hits_with_identical_counts(self, graph):
        pattern = repro.resolve_query("q1")
        rewrite = shuffled(pattern, seed=5)
        with QueryScheduler(
            graph, RunConfig(machines=3), threads=2
        ) as scheduler:
            original = scheduler.submit("q1", "rads", collect=True).result()
            ticket = scheduler.submit(rewrite, "rads", collect=True)
            served = ticket.result(60)
        assert ticket.cache_hit
        assert served.embedding_count == original.embedding_count
        for emb in served.embeddings:
            for u, v in rewrite.edges():
                assert graph.has_edge(emb[u], emb[v])

    def test_per_request_limit_truncates_served_embeddings(self, graph):
        with QueryScheduler(
            graph, RunConfig(machines=3), threads=1
        ) as scheduler:
            full = scheduler.submit("triangle", "rads", collect=True).result()
            limited = scheduler.submit(
                "triangle", "rads", collect=True, limit=3
            ).result()
        assert limited.embeddings == full.embeddings[:3]
        assert limited.counters["service.cache_hit"] == 1

    def test_limited_hit_for_a_rewrite_is_the_head_of_the_full_remap(
        self, graph
    ):
        rewrite = shuffled(repro.resolve_query("q1"), seed=5)
        with QueryScheduler(
            graph, RunConfig(machines=3), threads=1
        ) as scheduler:
            scheduler.submit("q1", "rads", collect=True).result()
            full = scheduler.submit(rewrite, "rads", collect=True).result()
            ticket = scheduler.submit(rewrite, "rads", collect=True, limit=4)
            page = ticket.result(60)
        assert ticket.cache_hit
        assert len(full.embeddings) > 4
        assert page.embeddings == full.embeddings[:4]
        assert page.embedding_count == full.embedding_count

    def test_cache_disabled(self, graph):
        with QueryScheduler(
            graph, RunConfig(machines=3), threads=1, cache=False
        ) as scheduler:
            scheduler.submit("triangle", "rads").result()
            ticket = scheduler.submit("triangle", "rads")
            ticket.result(60)
            assert not ticket.cache_hit
            assert scheduler.stats()["cache"] is None


# ----------------------------------------------------------------------
# Server + client over a real socket
# ----------------------------------------------------------------------
@pytest.fixture()
def server(graph, tmp_path):
    server = QueryServer(
        graph,
        RunConfig(machines=3),
        threads=4,
        log_path=str(tmp_path / "requests.jsonl"),
    )
    with server.start():
        yield server


class TestServerClient:
    def test_round_trip_miss_then_hits(self, graph, server):
        direct = (
            repro.open(graph).with_cluster(machines=3)
            .engine("rads").query("triangle").run()
        )
        with connect(server.address, timeout=60) as client:
            assert client.hello["graph"] == graph.fingerprint()
            assert client.ping()
            first = client.submit("a-b, b-c, c-a", engine="rads")
            assert client.last_cache == "miss"
            second = client.submit("a-b, b-c, c-a", engine="rads")
            assert client.last_cache == "hit"
            rewrite = client.submit("x-y, y-z, z-x", engine="rads")
            assert client.last_cache == "hit"
        for served in (first, second, rewrite):
            assert served.embedding_count == direct.embedding_count
            assert served.makespan == direct.makespan

    def test_explain_and_stats_over_the_wire(self, server):
        with connect(server.address, timeout=60) as client:
            explanation = client.explain("q4", engine="rads")
            assert isinstance(explanation, QueryExplanation)
            assert explanation.engine == "RADS"
            assert explanation.rounds
            client.submit("triangle", engine="rads")
            stats = client.stats()
        assert stats["submitted"] >= 1
        assert stats["cache"]["capacity"] == 128

    def test_errors_come_back_as_service_errors(self, server):
        with connect(server.address, timeout=60) as client:
            with pytest.raises(ServiceError, match="unknown engine"):
                client.submit("triangle", engine="nope")
            with pytest.raises(ServiceError, match="unknown query"):
                client.submit("not-a-pattern-name!!", engine="rads")
            # The connection survives errors.
            assert client.ping()

    def test_request_log_replays(self, graph, server, tmp_path):
        with connect(server.address, timeout=60) as client:
            client.submit("triangle", engine="rads")
            client.explain("q4", engine="rads")
        records = read_records_jsonl(tmp_path / "requests.jsonl")
        assert [type(r).__name__ for r in records] == [
            "RunResult", "QueryExplanation"
        ]
        assert records[0].engine == "RADS"

    def test_concurrent_clients_share_the_cache(self, server):
        results = []
        errors = []

        def one_client(i):
            try:
                with connect(server.address, timeout=60) as client:
                    result = client.submit("q2", engine="rads")
                    results.append((result.embedding_count,
                                    client.last_cache))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        counts = {count for count, _ in results}
        assert len(counts) == 1
        # Everyone beyond the one real execution was a hit or dedup rider.
        dispositions = sorted(cache for _, cache in results)
        assert dispositions.count("miss") == 1

    def test_overlong_line_is_refused_at_the_cap_and_hangs_up(
        self, server, monkeypatch
    ):
        """A line of twice the frame cap: the reader stops at the cap
        (nothing past it is buffered), names the limit and closes."""
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        with socket.create_connection(server.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            assert protocol.read_message(stream)["kind"] == "hello"
            stream.write(b"x" * (2 * 4096) + b"\n")
            stream.flush()
            response = protocol.read_message(stream)
            assert response["ok"] is False
            assert "4096-byte frame limit" in response["error"]
            assert protocol.read_message(stream) is None  # hung up

    def test_client_refuses_an_overlong_line(self, server, monkeypatch):
        with connect(server.address, timeout=10) as client:
            client.submit("triangle", engine="rads", collect=True)
            monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 512)
            with pytest.raises(protocol.ProtocolError, match="512-byte"):
                client.submit("triangle", engine="rads", collect=True)

    def test_bad_field_type_gets_error_response_not_a_dead_socket(
        self, server
    ):
        with socket.create_connection(server.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            protocol.read_message(stream)  # hello
            protocol.write_message(stream, {
                "op": "submit", "id": 1,
                "query": "triangle", "timeout": "5",  # string, not number
            })
            response = protocol.read_message(stream)
            assert response["id"] == 1 and not response["ok"]
            # The connection survives for the next request.
            protocol.write_message(stream, {"op": "ping", "id": 2})
            assert protocol.read_message(stream)["kind"] == "pong"

    def test_unknown_op(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            protocol.read_message(stream)
            protocol.write_message(stream, {"op": "frobnicate", "id": 7})
            response = protocol.read_message(stream)
        assert response["id"] == 7
        assert not response["ok"]
        assert "unknown op" in response["error"]


class TestExplainMemo:
    """The server keeps explain answers per (engine, query text,
    estimates) until the graph changes."""

    @staticmethod
    def explain(server, query="q4", estimates=True):
        response = server._dispatch({
            "op": "explain", "id": 1, "query": query, "engine": "rads",
            "estimates": estimates,
        })
        assert response["ok"], response
        return response["result"]

    @staticmethod
    def count_planning(monkeypatch) -> list:
        import repro.query.plan as planning

        calls: list = []
        real = planning.enumerate_execution_plans

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(planning, "enumerate_execution_plans", counted)
        return calls

    def test_repeat_does_not_replan_and_equals_a_fresh_answer(
        self, server, monkeypatch
    ):
        first = self.explain(server)
        calls = self.count_planning(monkeypatch)
        again = self.explain(server)
        assert calls == []
        fresh = server.registry.create("rads", graph=server.graph).explain(
            repro.resolve_query("q4"), graph=server.graph
        ).to_dict()
        assert again == first == fresh
        assert len(calls) == 1  # the fresh answer planned; the repeat not
        # A different estimates flag is a different answer.
        assert self.explain(server, estimates=False)["graph_summary"] is None
        assert len(calls) == 2

    def test_ingest_drops_the_memo(self, graph, server):
        assert (
            self.explain(server)["graph_summary"]["num_edges"]
            == graph.num_edges
        )
        u, v = next(
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        )
        response = server._dispatch(
            {"op": "ingest", "id": 2, "additions": [[u, v]]}
        )
        assert response["ok"], response
        assert (
            self.explain(server)["graph_summary"]["num_edges"]
            == graph.num_edges + 1
        )

    def test_lru_evicts_the_oldest_query_text(self, server, monkeypatch):
        from repro.service.server import EXPLAIN_MEMO_SIZE

        texts = [
            f"a{i}-b{i}, b{i}-c{i}, c{i}-a{i}"
            for i in range(EXPLAIN_MEMO_SIZE + 1)
        ]
        for text in texts:
            self.explain(server, text, estimates=False)
        assert len(server._explain_memo) == EXPLAIN_MEMO_SIZE
        calls = self.count_planning(monkeypatch)
        self.explain(server, texts[1], estimates=False)  # still kept
        assert calls == []
        self.explain(server, texts[0], estimates=False)  # evicted
        assert len(calls) == 1

    def test_concurrent_explains_keep_the_memo_consistent(self, server):
        from repro.service.server import EXPLAIN_MEMO_SIZE

        texts = [f"a{i}-b{i}, b{i}-c{i}, a{i}-c{i}" for i in range(160)]
        errors: list = []

        def worker(offset: int) -> None:
            try:
                for text in texts[offset::2]:
                    answer = self.explain(server, text, estimates=False)
                    assert answer["pattern_dsl"] == (
                        repro.resolve_query(text).to_dsl()
                    )
            except BaseException as exc:  # re-raised below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i % 2,))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert len(server._explain_memo) == EXPLAIN_MEMO_SIZE


class TestClientErrors:
    """A broken peer is named by its ``host:port``, never a tuple."""

    @pytest.mark.parametrize("reply, error", [
        (None, "server at {} closed the connection"),
        ({"id": 99, "ok": True}, "out-of-sync response from {}: expected"),
    ])
    def test_errors_spell_the_address(self, reply, error):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)

            def peer():
                conn, _ = listener.accept()
                with conn, conn.makefile("rwb") as stream:
                    protocol.write_message(stream, {
                        "kind": "hello", "version": protocol.PROTOCOL_VERSION,
                    })
                    stream.readline()  # drained, so closing sends a FIN
                    if reply is not None:
                        protocol.write_message(stream, reply)

            thread = threading.Thread(target=peer, daemon=True)
            thread.start()
            spelled = protocol.format_address(*listener.getsockname())
            with connect(listener.getsockname(), timeout=10) as client:
                with pytest.raises(ServiceError) as raised:
                    client.ping()
            thread.join(10)
        assert str(raised.value).startswith(error.format(spelled))


class TestSessionServe:
    def test_session_serve_and_shutdown_op(self, graph):
        session = repro.open(graph).with_cluster(machines=3)
        server = session.serve(port=0, threads=2)
        try:
            with connect(server.address, timeout=60) as client:
                result = client.submit("triangle", engine="rads")
                assert result.embedding_count > 0
                client.shutdown()
            deadline = time.monotonic() + 10
            while not server._closed and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server._closed
        finally:
            server.close()


# ----------------------------------------------------------------------
# CLI: serve/submit wiring
# ----------------------------------------------------------------------
class TestServiceCLI:
    def test_submit_cli_against_live_server(self, server, capsys):
        host, port = server.address
        base = ["submit", "--host", host, "--port", str(port)]
        assert cli_main([*base, "--ping"]) == 0
        assert "pong" in capsys.readouterr().out
        assert cli_main([*base, "--query", "q2", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cache"] == "miss" and not first["failed"]
        assert cli_main([*base, "--query", "q2", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cache"] == "hit"
        assert second["embedding_count"] == first["embedding_count"]
        assert cli_main([*base, "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cache"]["hits"] >= 1

    def test_submit_cli_human_output_shows_cache(self, server, capsys):
        host, port = server.address
        assert cli_main([
            "submit", "--host", host, "--port", str(port),
            "--query", "triangle", "--show", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "cache:" in out and "emb=" in out

    def test_submit_cli_unknown_engine_exits(self, server):
        host, port = server.address
        with pytest.raises(SystemExit, match="unknown engine"):
            cli_main([
                "submit", "--host", host, "--port", str(port),
                "--query", "triangle", "--engine", "nope",
            ])

    def test_submit_cli_refuses_without_query(self, server):
        host, port = server.address
        with pytest.raises(SystemExit, match="needs --query"):
            cli_main(["submit", "--host", host, "--port", str(port)])

    def test_submit_cli_json_keeps_collected_embeddings(self, graph, capsys):
        """--json without --show must not drop a collect=True server's data."""
        server = QueryServer(
            graph, RunConfig(machines=3, collect=True), threads=2
        )
        with server.start():
            host, port = server.address
            assert cli_main([
                "submit", "--host", host, "--port", str(port),
                "--query", "triangle", "--json",
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
        assert payload["embeddings"]
        assert len(payload["embeddings"]) == payload["embedding_count"]

    def test_serve_cli_port_in_use_exits_cleanly(self, tmp_path):
        from repro.cli import save_graph

        path = str(tmp_path / "g.npz")
        save_graph(erdos_renyi(20, 0.2, seed=1), path)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            with pytest.raises(SystemExit) as excinfo:
                cli_main([
                    "serve", "--graph", path, "--port", str(port),
                ])
            assert "in use" in str(excinfo.value).lower() or str(
                excinfo.value
            )

    def test_submit_cli_connection_refused_exits(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(SystemExit, match="cannot connect"):
            cli_main([
                "submit", "--port", str(free_port), "--query", "triangle",
            ])
