"""The structured event journal: ring semantics, filters, sink, wire op.

PR-10 surface: every state transition that used to only bump a counter
now also lands one leveled, JSON-safe record in the process-global
:class:`~repro.obs.events.EventJournal`, queryable over the wire via the
``events`` protocol op (and ``repro events``).  These tests cover the
journal's unit behavior (bounded ring, level/component/since/limit
filters, JSONL sink replay, trace-id capture), the op's validation and
cursor semantics, and a few real emitting sites (announce/withdraw,
quota rejection, cache eviction).
"""

from __future__ import annotations

import pytest

from repro.api import RunConfig
from repro.api.results import read_records_jsonl
from repro.graph import erdos_renyi
from repro.obs import events
from repro.obs.events import EventJournal
from repro.obs.trace import Tracer
from repro.service import QueryServer, connect


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(40, 0.15, seed=11)


# ----------------------------------------------------------------------
# Journal unit behavior
# ----------------------------------------------------------------------
class TestEventJournal:
    def test_record_shape(self):
        journal = EventJournal()
        record = journal.emit(
            "warning", "coordinator", events.WORKER_LOST,
            address="127.0.0.1:9001", managed=False,
        )
        assert record["level"] == "warning"
        assert record["component"] == "coordinator"
        assert record["kind"] == "worker.lost"
        assert record["address"] == "127.0.0.1:9001"
        assert record["managed"] is False
        assert record["seq"] == 1
        assert record["ts"] > 0
        assert "trace_id" not in record  # no span active here

    def test_unknown_level_rejected(self):
        journal = EventJournal()
        with pytest.raises(ValueError, match="unknown level"):
            journal.emit("fatal", "x", "y.z")

    def test_ring_is_bounded_and_seq_is_monotonic(self):
        journal = EventJournal(capacity=3)
        for i in range(5):
            journal.emit("info", "t", "k", i=i)
        assert len(journal) == 3
        retained = journal.snapshot()
        assert [r["seq"] for r in retained] == [3, 4, 5]
        assert journal.last_seq == 5
        # clear drops records but the seq clock keeps advancing.
        journal.clear()
        assert len(journal) == 0
        assert journal.emit("info", "t", "k")["seq"] == 6

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            EventJournal(capacity=0)

    def test_level_filter_is_a_floor(self):
        journal = EventJournal()
        for level in ("debug", "info", "warning", "error"):
            journal.emit(level, "t", "k")
        kept = journal.snapshot(level="warning")
        assert [r["level"] for r in kept] == ["warning", "error"]
        with pytest.raises(ValueError, match="unknown level"):
            journal.snapshot(level="verbose")

    def test_component_since_and_limit_filters(self):
        journal = EventJournal()
        journal.emit("info", "cache", "cache.evicted")
        journal.emit("info", "scheduler", "admission.timeout")
        journal.emit("info", "cache", "cache.disk_error")
        assert [
            r["kind"] for r in journal.snapshot(component="cache")
        ] == ["cache.evicted", "cache.disk_error"]
        # since is strictly greater — the cursor never re-reads itself.
        assert [r["seq"] for r in journal.snapshot(since=1)] == [2, 3]
        assert journal.snapshot(since=journal.last_seq) == []
        assert [r["seq"] for r in journal.snapshot(limit=2)] == [2, 3]

    def test_last_by_kind_and_component(self):
        journal = EventJournal()
        journal.emit("info", "a", "k.one")
        journal.emit("info", "b", "k.one")
        assert journal.last("k.one")["component"] == "b"
        assert journal.last("k.one", component="a")["seq"] == 1
        assert journal.last("k.none") is None

    def test_trace_id_captured_from_active_span(self):
        journal = EventJournal()
        tracer = Tracer()
        with tracer.root("test.root"):
            record = journal.emit("info", "t", "k")
        assert record["trace_id"] == tracer.trace_id
        # An explicit id (helper threads) wins over context lookup.
        explicit = journal.emit("info", "t", "k", trace_id="tid-42")
        assert explicit["trace_id"] == "tid-42"

    def test_core_keys_win_over_attrs(self):
        journal = EventJournal()
        record = journal.emit("info", "t", "k", seq=999, ts=-1.0)
        assert record["seq"] == 1
        assert record["ts"] > 0

    def test_jsonl_sink_replays(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal()
        journal.set_sink(str(path))
        journal.emit("warning", "coordinator", events.BATCH_RESUBMIT,
                     address="127.0.0.1:9001", tasks=3)
        journal.emit("info", "registry", events.WORKER_JOINED,
                     address="127.0.0.1:9002")
        journal.set_sink(None)
        journal.emit("info", "t", "after.close")  # must not be written
        replayed = read_records_jsonl(str(path))
        assert [r["kind"] for r in replayed] == [
            "batch.resubmit", "worker.joined",
        ]
        assert replayed[0]["tasks"] == 3

    def test_module_level_emit_uses_default_journal(self):
        seq0 = events.journal().last_seq
        record = events.emit("debug", "t", "k.module")
        assert record["seq"] == seq0 + 1
        assert events.journal().last("k.module") is not None


class TestKindRegistry:
    def test_all_kinds_are_namespaced(self):
        assert events.KNOWN_KINDS
        assert all("." in kind for kind in events.KNOWN_KINDS)

    def test_mirrored_kinds_are_known(self):
        assert set(events.MIRRORED_COUNTERS) <= events.KNOWN_KINDS


# ----------------------------------------------------------------------
# Emitting sites (journal-level integration)
# ----------------------------------------------------------------------
class TestEmittingSites:
    def test_cache_eviction_emits_one_sweep_event(self, graph):
        from repro.service.cache import ResultCache
        from repro.service.scheduler import QueryScheduler

        seq0 = events.journal().last_seq
        with QueryScheduler(
            graph, RunConfig(machines=2), threads=1,
            cache=ResultCache(capacity=1),
        ) as scheduler:
            scheduler.submit("q1", engine="rads").result(timeout=60)
            scheduler.submit("q2", engine="rads").result(timeout=60)
        evicted = [
            r for r in events.journal().snapshot(since=seq0)
            if r["kind"] == events.CACHE_EVICTED
        ]
        assert evicted and evicted[0]["component"] == "cache"
        assert evicted[0]["evicted"] >= 1

    def test_quota_rejection_emits(self, graph):
        from repro.service.scheduler import QueryScheduler
        from repro.service.tenancy import QuotaExceeded, TenantQuota

        seq0 = events.journal().last_seq
        with QueryScheduler(
            graph, RunConfig(machines=2), threads=1,
            tenants={"acme": TenantQuota(rate=0.0001, burst=1)},
        ) as scheduler:
            scheduler.submit(
                "q1", engine="rads", tenant="acme"
            ).result(timeout=60)
            with pytest.raises(QuotaExceeded):
                scheduler.submit("q2", engine="rads", tenant="acme")
        rejected = [
            r for r in events.journal().snapshot(since=seq0)
            if r["kind"] == events.QUOTA_REJECTED
        ]
        assert rejected and rejected[0]["tenant"] == "acme"
        assert rejected[0]["level"] == "warning"


# ----------------------------------------------------------------------
# The events op over the wire
# ----------------------------------------------------------------------
class TestEventsOp:
    @pytest.fixture(scope="class")
    def server(self, graph):
        config = RunConfig(machines=2)
        with QueryServer(graph, config, threads=2, cache=True) as server:
            yield server

    def test_announce_and_withdraw_emit_roster_events(self, server):
        with connect(server.address, timeout=30) as client:
            before = client.events()["last_seq"]
            client._call("announce", address="127.0.0.1:9321",
                         graphs=[], workers=1, pid=4242)
            # A refresh re-announce is not a join: no second event.
            client._call("announce", address="127.0.0.1:9321", graphs=[])
            client._call("announce", address="127.0.0.1:9321",
                         withdraw=True)
            payload = client.events(
                since=before, component="registry"
            )
            kinds = [r["kind"] for r in payload["events"]]
            assert kinds == ["worker.joined", "worker.left"]
            joined = payload["events"][0]
            assert joined["address"] == "127.0.0.1:9321"

    def test_since_cursor_and_limit(self, server):
        with connect(server.address, timeout=30) as client:
            cursor = client.events()["last_seq"]
            events.emit("info", "test", "test.ping", n=1)
            events.emit("info", "test", "test.ping", n=2)
            fresh = client.events(since=cursor, component="test")
            assert [r["n"] for r in fresh["events"]] == [1, 2]
            assert client.events(
                since=cursor, component="test", limit=1
            )["events"][0]["n"] == 2
            # The new cursor sees nothing until something new fires.
            assert client.events(
                since=fresh["last_seq"]
            )["events"] == []

    def test_metrics_carries_journal_summary(self, server):
        with connect(server.address, timeout=30) as client:
            metrics = client.metrics()
        assert metrics["events"]["capacity"] == 512
        assert metrics["events"]["last_seq"] >= metrics["events"]["retained"]
