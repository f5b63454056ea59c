"""Production service tier: shard registry, tenant quotas, tiered cache.

Covers the elastic-roster path end to end (workers announce, crash, get
replaced without a server restart), the persistent disk tier (a fresh
server over the same directory serves byte-identical results), the
per-tenant quota/fair-share accounting, and the submit/field validation
and stats-accounting fixes that rode along:

- ``submit()`` rejects malformed ``memory_mb``/``limit``/``tenant``
  overrides loudly at submit time;
- ``ResultCache`` sweeps TTL-expired entries (as ``expirations``) before
  LRU-evicting live ones;
- ``stats()["queued"]`` counts live queued work, not raw heap entries;
- malformed protocol fields get an error naming the field and the
  connection stays serviceable (``tests/test_protocol_table.py``, one
  case per op, field and bad value, generated from the op table).
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

import repro
from repro.api import RunConfig
from repro.api.config import MIB
from repro.api.registry import EngineRegistry, EngineSpec
from repro.cli import main as cli_main
from repro.cluster import Cluster
from repro.core.rads import RADSEngine
from repro.distributed import ShardRegistry, ShardWorker, SocketExecutor
from repro.engines.base import EnumerationEngine, RunResult
from repro.graph import erdos_renyi
from repro.query import named_patterns
from repro.service import (
    AdmissionError,
    QueryScheduler,
    QueryServer,
    QuotaExceeded,
    ResultCache,
    TenantLedger,
    TenantQuota,
    connect,
    key_digest,
)
from repro.service import protocol
from repro.service.cache import cache_key


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.12, seed=17)


def triangle(name="triangle"):
    return repro.pattern("a-b, b-c, c-a").copy_with_name(name)


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


def _addr(worker: ShardWorker) -> str:
    host, port = worker.address
    return f"{host}:{port}"


def _poll(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _stripped(result: RunResult) -> dict:
    """``to_dict()`` minus the per-request ``service.*`` counters."""
    record = result.to_dict()
    record["counters"] = {
        key: value
        for key, value in record["counters"].items()
        if not key.startswith("service.")
    }
    return record


# ----------------------------------------------------------------------
# Shard registry
# ----------------------------------------------------------------------
class TestShardRegistry:
    def test_announce_withdraw_and_versioning(self):
        clock = [0.0]
        registry = ShardRegistry(clock=lambda: clock[0])
        v1 = registry.announce("127.0.0.1:9001", graphs=["f1"], workers=2,
                               pid=41)
        assert registry.addresses() == ["127.0.0.1:9001"]
        assert len(registry) == 1
        # A re-announce (any address spelling) refreshes without a
        # membership edit; the announce count still advances.
        assert registry.announce(("127.0.0.1", 9001)) == v1
        assert registry.announces("127.0.0.1:9001") == 2
        v2 = registry.announce("127.0.0.1:9002")
        assert v2 == v1 + 1
        assert registry.withdraw("127.0.0.1:9001") is True
        assert registry.withdraw("127.0.0.1:9001") is False
        assert registry.addresses() == ["127.0.0.1:9002"]
        assert registry.version() == v2 + 1
        assert registry.announces("127.0.0.1:9001") == 0

    def test_stale_entries_leave_the_roster_but_not_the_snapshot(self):
        clock = [0.0]
        registry = ShardRegistry(stale_after=45.0, clock=lambda: clock[0])
        registry.announce("127.0.0.1:9001")
        registry.announce("127.0.0.1:9002")
        clock[0] = 30.0
        registry.announce("127.0.0.1:9002")  # keeps itself fresh
        clock[0] = 46.0
        assert registry.addresses() == ["127.0.0.1:9002"]
        assert len(registry) == 1
        by_address = {e["address"]: e for e in registry.snapshot()}
        # The silent worker is still visible to an operator, flagged.
        assert by_address["127.0.0.1:9001"]["stale"] is True
        assert by_address["127.0.0.1:9002"]["stale"] is False

    def test_stale_after_none_never_expires(self):
        clock = [0.0]
        registry = ShardRegistry(stale_after=None, clock=lambda: clock[0])
        registry.announce("127.0.0.1:9001")
        clock[0] = 1e9
        assert registry.addresses() == ["127.0.0.1:9001"]

    def test_invalid_stale_after(self):
        with pytest.raises(ValueError, match="stale_after"):
            ShardRegistry(stale_after=0)


# ----------------------------------------------------------------------
# Tenant quotas (ledger unit level)
# ----------------------------------------------------------------------
class TestTenantLedger:
    def test_token_bucket_refills_on_the_injected_clock(self):
        clock = [0.0]
        ledger = TenantLedger(
            {"a": TenantQuota(rate=1.0, burst=2)}, clock=lambda: clock[0]
        )
        ledger.admit("a")
        ledger.admit("a")
        with pytest.raises(QuotaExceeded, match="rate"):
            ledger.admit("a")
        clock[0] = 1.0  # one token back
        ledger.admit("a")
        with pytest.raises(QuotaExceeded):
            ledger.admit("a")
        assert ledger.stats()["a"]["rejected_rate"] == 2

    def test_anonymous_and_unquotad_tenants_are_never_limited(self):
        ledger = TenantLedger({"a": TenantQuota(rate=0.001, burst=1)})
        for _ in range(10):
            ledger.admit(None)
            ledger.admit("free-rider")
        assert ledger.stats()["*"]["rejected_rate"] == 0

    def test_default_quota_applies_to_unlisted_tenants(self):
        ledger = TenantLedger(
            {"vip": TenantQuota(memory_mb=100)},
            default=TenantQuota(memory_mb=1),
        )
        assert ledger.memory_bytes("vip") == 100 * MIB
        assert ledger.memory_bytes("anyone") == 1 * MIB
        assert ledger.memory_bytes(None) is None

    def test_fair_key_is_reserved_per_unit_weight(self):
        ledger = TenantLedger({"heavy": TenantQuota(weight=2.0)})
        ledger.reserve("heavy", 100)
        ledger.reserve("light", 100)
        assert ledger.fair_key("heavy") == 50.0
        assert ledger.fair_key("light") == 100.0
        assert ledger.fair_key("idle") == 0.0
        ledger.release("heavy", 100)
        assert ledger.fair_key("heavy") == 0.0

    def test_headroom_tracks_reservations(self):
        ledger = TenantLedger({"a": TenantQuota(memory_mb=1)})
        assert ledger.has_headroom("a", MIB)
        ledger.reserve("a", MIB)
        assert not ledger.has_headroom("a", 1)
        ledger.release("a", MIB)
        assert ledger.has_headroom("a", MIB)

    def test_quota_validation(self):
        for bad in (
            dict(rate=0), dict(rate=-1), dict(burst=0), dict(memory_mb=0),
            dict(weight=0), dict(weight=-2.0),
        ):
            with pytest.raises(ValueError):
                TenantQuota(**bad)
        assert TenantQuota(rate=2.5).bucket_size == 3.0
        assert TenantQuota().bucket_size is None

    def test_ledger_validation(self):
        with pytest.raises(ValueError, match="tenant names"):
            TenantLedger({"": TenantQuota()})
        with pytest.raises(TypeError, match="TenantQuota"):
            TenantLedger({"a": {"rate": 1.0}})

    def test_stats_reports_anonymous_under_star(self):
        ledger = TenantLedger()
        ledger.note(None, "submitted")
        ledger.note("acme", "completed")
        stats = ledger.stats()
        assert stats["*"]["submitted"] == 1
        assert stats["acme"]["completed"] == 1
        assert stats["acme"]["weight"] == 1.0


# ----------------------------------------------------------------------
# A stub engine with per-pattern gates (finer-grained than
# tests/test_service.py's single shared gate).
# ----------------------------------------------------------------------
class _GatedEngine(EnumerationEngine):
    """Deterministic engine; runs block on a per-pattern-name event."""

    name = "Gated"
    gates: "dict[str, threading.Event]" = {}
    executed: list[str] = []
    lock = threading.Lock()

    def _execute(self, cluster, pattern, constraints, collect, executor):
        gate = _GatedEngine.gates.get(pattern.name)
        if gate is not None:
            assert gate.wait(timeout=30)
        with _GatedEngine.lock:
            _GatedEngine.executed.append(pattern.name)
        self._count = pattern.num_vertices
        return [tuple(range(pattern.num_vertices))] if collect else []


@pytest.fixture()
def gated_registry():
    registry = EngineRegistry()
    registry.register(EngineSpec(name="Gated", engine_cls=_GatedEngine))
    _GatedEngine.gates = {}
    _GatedEngine.executed = []
    yield registry
    _GatedEngine.gates = {}


# ----------------------------------------------------------------------
# Submit-time validation (per-request overrides)
# ----------------------------------------------------------------------
class TestSubmitValidation:
    @pytest.fixture()
    def scheduler(self, graph, gated_registry):
        with QueryScheduler(
            graph, RunConfig(machines=2), gated_registry, threads=1
        ) as scheduler:
            yield scheduler

    @pytest.mark.parametrize("memory_mb", [-5, 0, "8", True, float("nan")])
    def test_bad_memory_mb_is_rejected(self, scheduler, memory_mb):
        with pytest.raises(ValueError, match="memory_mb"):
            scheduler.submit("triangle", "gated", memory_mb=memory_mb)

    @pytest.mark.parametrize("limit", [0, -1, 2.5, True, "3"])
    def test_bad_limit_is_rejected(self, scheduler, limit):
        with pytest.raises(ValueError, match="limit"):
            scheduler.submit("triangle", "gated", limit=limit)

    @pytest.mark.parametrize("tenant", ["", 7, 1.5])
    def test_bad_tenant_is_rejected(self, scheduler, tenant):
        with pytest.raises(ValueError, match="tenant"):
            scheduler.submit("triangle", "gated", tenant=tenant)

    def test_rejected_submissions_touch_nothing(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.submit("triangle", "gated", limit=0)
        stats = scheduler.stats()
        assert stats["submitted"] == 0
        assert stats["queued"] == 0


class TestWorkerEngineCache:
    def test_a_ninth_engine_evicts_only_the_oldest(self, graph):
        """Each worker keeps 8 engines; building a ninth used to drop all
        of them, so the other seven warm ones were rebuilt on next use."""
        built: list[str] = []

        def factory(name):
            def make(**kwargs):
                built.append(name)
                return _GatedEngine()
            return make

        registry = EngineRegistry()
        names = [f"E{i}" for i in range(9)]
        for name in names:
            registry.register(EngineSpec(
                name=name, engine_cls=_GatedEngine, factory=factory(name),
            ))
        _GatedEngine.gates = {}
        with QueryScheduler(
            graph, RunConfig(machines=2), registry, threads=1, cache=False
        ) as scheduler:
            for name in names:
                scheduler.run("triangle", name)
            assert built == names
            for name in names[1:]:  # still warm
                scheduler.run("triangle", name)
            assert built == names
            scheduler.run("triangle", "E0")  # the one that was evicted
            assert built == names + ["E0"]


# ----------------------------------------------------------------------
# Cache eviction ordering (the bugfix: sweep expired before evicting)
# ----------------------------------------------------------------------
class TestCacheEvictionSweep:
    def test_expired_entries_are_swept_before_live_ones_are_evicted(self):
        now = [0.0]
        cache = ResultCache(capacity=2, ttl=10.0, clock=lambda: now[0])
        p = triangle()
        cache.put(("a",), p, _result())           # expires at 10
        now[0] = 5.0
        cache.put(("b",), p, _result())           # expires at 15
        now[0] = 12.0                             # "a" is now dead weight
        cache.put(("c",), p, _result())
        # The live entry survived: capacity pressure removed the expired
        # one, counted as an expiration, not an eviction.
        assert cache.get(("b",), p) is not None
        assert cache.get(("c",), p) is not None
        assert cache.get(("a",), p) is None
        assert cache.expirations == 1
        assert cache.evictions == 0

    def test_live_lru_eviction_still_works_when_nothing_expired(self):
        cache = ResultCache(capacity=2, ttl=100.0, clock=lambda: 0.0)
        p = triangle()
        cache.put(("a",), p, _result())
        cache.put(("b",), p, _result())
        cache.put(("c",), p, _result())
        assert cache.get(("a",), p) is None
        assert cache.evictions == 1
        assert cache.expirations == 0


# ----------------------------------------------------------------------
# Persistent disk tier
# ----------------------------------------------------------------------
class TestDiskTier:
    def test_restart_round_trip_is_byte_identical(self, tmp_path):
        p = triangle()
        stored = _result(embeddings=[(1, 2, 3), (4, 5, 6)])
        first = ResultCache(disk_dir=tmp_path / "cache")
        first.put(("k",), p, stored)
        assert first.disk_writes == 1
        reference = first.get(("k",), p)
        # A brand-new cache over the same directory (a restarted server)
        # serves the spilled entry, byte for byte.
        second = ResultCache(disk_dir=tmp_path / "cache")
        assert len(second) == 0
        served = second.get(("k",), p)
        assert served is not None
        assert served.to_dict() == reference.to_dict()
        assert second.disk_hits == 1
        # The hit was promoted into memory: the next get stays there.
        second.get(("k",), p)
        assert second.disk_hits == 1

    def test_key_digest_is_stable_and_discriminating(self):
        key = ("fp", ("canon", 1), "RADS", "digest", True)
        assert key_digest(key) == key_digest(key)
        assert key_digest(key) != key_digest(key[:-1] + (False,))

    def test_tampered_spill_file_is_a_miss_not_a_wrong_answer(self, tmp_path):
        p = triangle()
        first = ResultCache(disk_dir=tmp_path)
        first.put(("k",), p, _result())
        path = tmp_path / f"{key_digest(('k',))}.json"
        record = json.loads(path.read_text())
        record["key"] = ["not-the-key"]
        path.write_text(json.dumps(record))
        second = ResultCache(disk_dir=tmp_path)
        assert second.get(("k",), p) is None
        assert second.disk_errors == 1
        assert not path.exists()  # the bad file was dropped

    def test_corrupt_spill_file_is_tolerated(self, tmp_path):
        p = triangle()
        first = ResultCache(disk_dir=tmp_path)
        first.put(("k",), p, _result())
        path = tmp_path / f"{key_digest(('k',))}.json"
        path.write_text("not json at all")
        second = ResultCache(disk_dir=tmp_path)
        assert second.get(("k",), p) is None
        assert second.disk_errors == 1

    def test_disk_ttl_uses_wall_clock_across_restarts(self, tmp_path):
        wall = [1000.0]
        p = triangle()
        first = ResultCache(
            ttl=10.0, disk_dir=tmp_path, wall_clock=lambda: wall[0]
        )
        first.put(("k",), p, _result())
        wall[0] = 1020.0  # "restart" 20 wall-clock seconds later
        second = ResultCache(
            ttl=10.0, disk_dir=tmp_path, wall_clock=lambda: wall[0]
        )
        assert second.get(("k",), p) is None
        assert second.disk_expirations == 1

    def test_disk_capacity_evicts_oldest_spill(self, tmp_path):
        p = triangle()
        cache = ResultCache(disk_dir=tmp_path, disk_capacity=2)
        cache.put(("a",), p, _result())
        cache.put(("b",), p, _result())
        cache.put(("c",), p, _result())
        assert cache.disk_evictions == 1
        assert not (tmp_path / f"{key_digest(('a',))}.json").exists()
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get(("a",), p) is None
        assert fresh.get(("b",), p) is not None
        assert fresh.get(("c",), p) is not None

    def test_stats_reports_the_disk_tier(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path, disk_capacity=4)
        cache.put(("k",), triangle(), _result())
        disk = cache.stats()["disk"]
        assert disk["entries"] == 1
        assert disk["writes"] == 1
        assert disk["capacity"] == 4
        assert ResultCache().stats()["disk"] is None


# ----------------------------------------------------------------------
# Scheduler: queued-stat fix + tenant quotas under load
# ----------------------------------------------------------------------
class TestQueuedStat:
    def test_queued_counts_live_work_not_heap_entries(
        self, graph, gated_registry
    ):
        _GatedEngine.gates["cycle3"] = gate = threading.Event()
        from repro.query.pattern_gen import cycle

        with QueryScheduler(
            graph, RunConfig(machines=2), gated_registry, threads=1
        ) as scheduler:
            blocker = scheduler.submit(cycle(3), "gated")
            _poll(lambda: scheduler.stats()["running"] == 1,
                  message="blocker running")
            first = scheduler.submit(cycle(4), "gated")
            # A dedup rider escalating priority re-pushes the execution:
            # two heap entries, one unit of queued work.
            rider = scheduler.submit(cycle(4), "gated", priority=5)
            assert rider.deduped
            assert scheduler.stats()["queued"] == 1
            # Cancelling every waiter leaves heap garbage but no live
            # queued work.
            assert first.cancel() and rider.cancel()
            assert scheduler.stats()["queued"] == 0
            gate.set()
            blocker.result(30)


class TestTenantScheduler:
    def test_rate_limited_tenant_is_rejected_loudly(
        self, graph, gated_registry
    ):
        from repro.query.pattern_gen import cycle

        with QueryScheduler(
            graph,
            RunConfig(machines=2),
            gated_registry,
            threads=1,
            tenants={"metered": TenantQuota(rate=0.001, burst=2)},
        ) as scheduler:
            scheduler.submit(cycle(3), "gated", tenant="metered").result(30)
            scheduler.submit(cycle(4), "gated", tenant="metered").result(30)
            with pytest.raises(QuotaExceeded, match="metered"):
                scheduler.submit(cycle(5), "gated", tenant="metered")
            # Other tenants are untouched by the metered bucket.
            scheduler.submit(cycle(6), "gated", tenant="other").result(30)
            stats = scheduler.stats()
        assert stats["quota_rejected"] == 1
        assert stats["tenants"]["metered"]["rejected_rate"] == 1

    def test_cache_hits_consume_rate_tokens_too(self, graph, gated_registry):
        from repro.query.pattern_gen import cycle

        with QueryScheduler(
            graph,
            RunConfig(machines=2),
            gated_registry,
            threads=1,
            tenants={"metered": TenantQuota(rate=0.001, burst=2)},
        ) as scheduler:
            scheduler.submit(cycle(3), "gated", tenant="metered").result(30)
            hit = scheduler.submit(cycle(3), "gated", tenant="metered")
            assert hit.cache_hit
            with pytest.raises(QuotaExceeded):
                scheduler.submit(cycle(3), "gated", tenant="metered")

    def test_never_fitting_tenant_request_fails_at_submit(
        self, graph, gated_registry
    ):
        config = RunConfig(machines=2, memory_mb=10)  # 20 MiB per query
        with QueryScheduler(
            graph,
            config,
            gated_registry,
            threads=2,
            tenants={"small": TenantQuota(memory_mb=10)},
        ) as scheduler:
            with pytest.raises(AdmissionError, match="small"):
                scheduler.submit("triangle", "gated", tenant="small")
            stats = scheduler.stats()
        assert stats["rejected"] == 1
        assert stats["tenants"]["small"]["rejected_memory"] == 1

    def test_over_budget_tenant_is_deferred_without_blocking_others(
        self, graph, gated_registry
    ):
        from repro.query.pattern_gen import cycle

        _GatedEngine.gates["cycle3"] = gate = threading.Event()
        config = RunConfig(machines=2, memory_mb=10)  # 20 MiB per query
        with QueryScheduler(
            graph,
            config,
            gated_registry,
            threads=2,
            tenants={"a": TenantQuota(memory_mb=20)},  # one query at a time
        ) as scheduler:
            running = scheduler.submit(cycle(3), "gated", tenant="a")
            _poll(lambda: scheduler.stats()["running"] == 1,
                  message="tenant a's first query running")
            waiting = scheduler.submit(cycle(4), "gated", tenant="a")
            other = scheduler.submit(cycle(5), "gated", tenant="b")
            # Tenant b sails past a's deferred work on the free thread.
            other.result(30)
            assert not waiting.done()
            assert scheduler.stats()["queued"] == 1
            gate.set()
            running.result(30)
            waiting.result(30)
        tenants = scheduler.stats()["tenants"]
        assert tenants["a"]["completed"] == 2
        assert tenants["b"]["completed"] == 1

    def test_fair_share_prefers_the_less_loaded_tenant(
        self, graph, gated_registry
    ):
        from repro.query.pattern_gen import cycle

        _GatedEngine.gates["cycle3"] = g1 = threading.Event()
        _GatedEngine.gates["cycle4"] = g2 = threading.Event()
        with QueryScheduler(
            graph, RunConfig(machines=2, memory_mb=10), gated_registry,
            threads=2,
        ) as scheduler:
            # Tenant a holds both worker threads (reserved = 2 queries).
            a1 = scheduler.submit(cycle(3), "gated", tenant="a")
            a2 = scheduler.submit(cycle(4), "gated", tenant="a")
            _poll(lambda: scheduler.stats()["running"] == 2,
                  message="both blockers running")
            # FIFO order says a3 first; fair share says b1 first because
            # tenant a still holds a reservation when the thread frees.
            a3 = scheduler.submit(cycle(5), "gated", tenant="a")
            b1 = scheduler.submit(cycle(6), "gated", tenant="b")
            g1.set()  # frees one thread; a still holds a2's reservation
            b1.result(30)
            a3.result(30)
            g2.set()
            a1.result(30)
            a2.result(30)
        assert _GatedEngine.executed.index("cycle6") < \
            _GatedEngine.executed.index("cycle5")


# ----------------------------------------------------------------------
# Server: protocol validation, announce + metrics ops
# ----------------------------------------------------------------------
@pytest.fixture()
def server(graph):
    server = QueryServer(graph, RunConfig(machines=3), threads=2)
    with server:
        yield server


class TestProtocolValidation:
    def test_announce_op_round_trip(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            protocol.read_message(stream)  # hello
            protocol.write_message(stream, {
                "op": "announce", "id": 1, "address": "127.0.0.1:9410",
                "graphs": ["fp"], "workers": 2, "pid": 99,
            })
            announced = protocol.read_message(stream)
            assert announced["ok"] and announced["kind"] == "announced"
            assert announced["result"]["roster"] == 1
            assert announced["result"]["interval"] == pytest.approx(15.0)
            protocol.write_message(stream, {
                "op": "announce", "id": 2, "address": "127.0.0.1:9410",
                "withdraw": True,
            })
            withdrawn = protocol.read_message(stream)
            assert withdrawn["kind"] == "withdrawn"
            assert withdrawn["result"]["known"] is True
            assert withdrawn["result"]["roster"] == 0
            protocol.write_message(stream, {
                "op": "announce", "id": 3, "address": "no-port-here:xx",
            })
            bad = protocol.read_message(stream)
            assert not bad["ok"] and "address" in bad["error"]

    def test_metrics_op_reports_every_section(self, graph, server):
        with connect(server.address, timeout=60) as client:
            client.submit("triangle", engine="rads", tenant="acme")
            metrics = client.metrics()
        assert metrics["graph"] == graph.fingerprint()
        assert metrics["protocol_version"] == protocol.PROTOCOL_VERSION
        assert metrics["uptime_seconds"] >= 0
        assert metrics["scheduler"]["submitted"] == 1
        assert metrics["cache"]["entries"] == 1
        assert metrics["tenants"]["acme"]["completed"] == 1
        assert metrics["shards"] == {
            "configured": [], "registry": [], "version": 0,
        }

    def test_submit_cli_metrics_flag(self, server, capsys):
        host, port = server.address
        assert cli_main([
            "submit", "--host", host, "--port", str(port), "--metrics",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["protocol_version"] == protocol.PROTOCOL_VERSION
        assert "scheduler" in payload and "shards" in payload


# ----------------------------------------------------------------------
# Elastic roster: announce loop, crash, replacement without restart
# ----------------------------------------------------------------------
class TestElasticRoster:
    def test_worker_announces_on_start_and_withdraws_on_close(self, graph):
        registry = ShardRegistry()
        with QueryServer(
            graph, RunConfig(machines=2), shard_registry=registry
        ) as server:
            worker = ShardWorker(
                announce=server.address, announce_interval=60.0
            ).start()
            _poll(lambda: len(registry) == 1, message="worker announced")
            assert registry.addresses() == [_addr(worker)]
            worker.close()
            # A polite close withdraws synchronously.
            assert registry.addresses() == []

    def test_crashed_worker_stays_in_the_book_until_stale(self, graph):
        registry = ShardRegistry()
        with QueryServer(
            graph, RunConfig(machines=2), shard_registry=registry
        ) as server:
            worker = ShardWorker(
                announce=server.address, announce_interval=60.0
            ).start()
            _poll(lambda: len(registry) == 1, message="worker announced")
            worker.crash()
            worker.close()
            # No goodbye from a killed host: the entry lingers (it would
            # go stale after stale_after seconds on a real clock).
            assert registry.addresses() == [_addr(worker)]

    def test_coordinator_joins_announced_workers_and_scales_down_politely(
        self, graph
    ):
        registry = ShardRegistry()
        pattern = named_patterns()["q1"]
        cluster = Cluster.create(graph, 3)
        serial = RADSEngine().run(
            cluster.fresh_copy(), pattern, collect_embeddings=False
        )
        # Built before any worker exists: the roster is legitimately
        # empty until the first announcement.
        executor = SocketExecutor([], registry=registry,
                                  heartbeat_interval=None)
        w1 = ShardWorker().start()
        w2 = None
        try:
            registry.announce(w1.address, graphs=w1.fingerprints())
            first = RADSEngine().run(
                cluster.fresh_copy(), pattern,
                collect_embeddings=False, executor=executor,
            )
            assert first.embedding_count == serial.embedding_count
            assert first.makespan == serial.makespan
            assert executor.workers == 1
            # Swap the roster: withdraw w1 (polite scale-down), announce
            # a replacement.  The next batch follows the book.
            w2 = ShardWorker().start()
            registry.withdraw(w1.address)
            registry.announce(w2.address)
            second = RADSEngine().run(
                cluster.fresh_copy(), pattern,
                collect_embeddings=False, executor=executor,
            )
            assert second.embedding_count == serial.embedding_count
            assert second.makespan == serial.makespan
            # A withdrawn worker is not a fault: no lost-worker counter.
            assert "distributed.lost_workers" not in second.counters
            assert executor.workers == 1
        finally:
            executor.close()
            w1.close()
            if w2 is not None:
                w2.close()

    def test_worker_killed_mid_run_is_replaced_without_server_restart(
        self, graph
    ):
        """The PR's elastic acceptance path, through the whole server.

        One announced worker serves a query; it is killed (no withdraw),
        a second query hits the dead roster mid-run, and a replacement
        worker announced *while the query is waiting* joins the running
        server — no restart, and the result is bit-identical to serial.
        """
        registry = ShardRegistry()
        session = repro.open(graph).with_cluster(machines=3)
        serial_q2 = session.engine("rads").query("q2").run()
        serial_q1 = session.engine("rads").query("q1").run()
        w1 = ShardWorker().start()
        registry.announce(w1.address, graphs=w1.fingerprints())
        w2 = None
        config = RunConfig(machines=3, backend="socket")
        with QueryServer(
            graph, config, threads=1, shard_registry=registry
        ) as server:
            try:
                with connect(server.address, timeout=60) as client:
                    first = client.submit("q2", engine="rads",
                                          tenant="alice")
                    assert first.embedding_count == serial_q2.embedding_count
                    assert first.makespan == serial_q2.makespan
                    w1.crash()
                    served: list = []

                    def resubmit():
                        with connect(server.address, timeout=60) as second:
                            served.append(
                                second.submit("q1", engine="rads",
                                              tenant="alice")
                            )

                    thread = threading.Thread(target=resubmit)
                    thread.start()
                    time.sleep(0.3)  # let the query hit the dead roster
                    w2 = ShardWorker(
                        announce=server.address, announce_interval=60.0
                    ).start()
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                    assert served, "replacement worker never served"
                    assert served[0].embedding_count == \
                        serial_q1.embedding_count
                    assert served[0].makespan == serial_q1.makespan
                    metrics = client.metrics()
                assert metrics["tenants"]["alice"]["submitted"] == 2
                roster = {
                    e["address"] for e in metrics["shards"]["registry"]
                }
                assert _addr(w2) in roster
            finally:
                w1.close()
                if w2 is not None:
                    w2.close()


# ----------------------------------------------------------------------
# Disk-tier restart through the whole server
# ----------------------------------------------------------------------
class TestServerRestartFromDisk:
    def test_restarted_server_serves_byte_identical_disk_hit(
        self, graph, tmp_path
    ):
        cache_dir = str(tmp_path / "results")
        with QueryServer(
            graph, RunConfig(machines=3), cache_dir=cache_dir
        ) as server:
            with connect(server.address, timeout=60) as client:
                first = client.submit("triangle", engine="rads",
                                      collect=True)
                assert client.last_cache == "miss"
        # A brand-new server process-equivalent over the same directory.
        with QueryServer(
            graph, RunConfig(machines=3), cache_dir=cache_dir
        ) as server:
            with connect(server.address, timeout=60) as client:
                again = client.submit("triangle", engine="rads",
                                      collect=True)
                assert client.last_cache == "hit"
                stats = client.stats()
        assert stats["cache"]["disk"]["hits"] == 1
        # Byte parity modulo the per-request service.* counters.
        assert _stripped(again) == _stripped(first)

    def test_cache_dir_conflicts_are_rejected(self, graph, tmp_path):
        with pytest.raises(ValueError, match="cache_dir"):
            QueryServer(graph, cache=False, cache_dir=str(tmp_path))
        with pytest.raises(ValueError, match="disk_dir"):
            QueryServer(
                graph, cache=ResultCache(), cache_dir=str(tmp_path)
            )

    def test_scheduler_key_matches_disk_spill(self, graph, tmp_path):
        """The spill filename is the digest of the canonical cache key."""
        config = RunConfig(machines=3)
        cache = ResultCache(disk_dir=tmp_path)
        with QueryScheduler(
            graph, config, threads=1, cache=cache
        ) as scheduler:
            scheduler.run("triangle", "rads")
        key = cache_key(
            graph, triangle(), "RADS", config, collect=config.collect
        )
        assert (tmp_path / f"{key_digest(key)}.json").exists()
