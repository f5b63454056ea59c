"""The SLO health engine: declarative rules, transitions, the wire op.

Unit level: every built-in rule fires on a synthetic metrics snapshot
crossing its threshold and stays quiet below it; rule transitions emit
``health.rule_fired`` / ``health.rule_cleared`` into the journal.  End
to end: killing an announced worker mid-run produces a ``worker.lost``
event carrying the active trace id and flips ``health`` to ``degraded``
until a replacement worker announces — the PR's acceptance scenario.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.api import RunConfig
from repro.distributed import ShardRegistry, ShardWorker
from repro.graph import erdos_renyi
from repro.obs import events
from repro.obs.events import EventJournal
from repro.obs import health
from repro.obs.health import STATUSES, HealthEngine
from repro.service import QueryServer, connect


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.12, seed=17)


def _addr(worker: ShardWorker) -> str:
    host, port = worker.address
    return f"{host}:{port}"


def _poll(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _rule(verdict: dict, name: str) -> dict:
    return next(r for r in verdict["rules"] if r["name"] == name)


# ----------------------------------------------------------------------
# Rule unit behavior (synthetic snapshots, private journal)
# ----------------------------------------------------------------------
class TestHealthRules:
    def engine(self) -> HealthEngine:
        return HealthEngine(journal=EventJournal())

    def test_empty_metrics_is_ok(self):
        verdict = self.engine().evaluate({})
        assert verdict["status"] == "ok"
        assert verdict["firing"] == []
        assert {r["name"] for r in verdict["rules"]} == {
            "latency_p95", "error_rate", "queue_depth",
            "stale_shards", "disk_errors", "worker_loss",
        }

    def test_latency_rule_is_gated_on_min_samples(self):
        engine = self.engine()
        p95 = health.P95_LATENCY_SECONDS + 20.0
        slow = {"histograms": {"latency": {
            "count": health.MIN_SAMPLES - 1, "p95": p95,
        }}}
        assert engine.evaluate(slow)["status"] == "ok"  # too few samples
        slow["histograms"]["latency"]["count"] = health.MIN_SAMPLES
        verdict = engine.evaluate(slow)
        assert verdict["status"] == "degraded"
        assert verdict["firing"] == ["latency_p95"]
        evidence = _rule(verdict, "latency_p95")["evidence"]
        assert evidence["p95_seconds"] == p95
        assert evidence["ceiling_seconds"] == health.P95_LATENCY_SECONDS

    def test_error_rate_rule_is_critical(self):
        engine = self.engine()
        completed = health.MIN_SAMPLES // 4
        failed = health.MIN_SAMPLES - completed
        assert failed / health.MIN_SAMPLES > health.ERROR_RATE
        metrics = {"scheduler": {"completed": completed, "failed": failed}}
        verdict = engine.evaluate(metrics)
        assert verdict["status"] == "critical"
        assert "error_rate" in verdict["firing"]
        assert _rule(verdict, "error_rate")["evidence"]["rate"] == (
            failed / health.MIN_SAMPLES
        )

    def test_queue_depth_rule(self):
        engine = self.engine()
        assert engine.evaluate(
            {"scheduler": {"queued": health.QUEUE_DEPTH}}
        )["status"] == "ok"
        verdict = engine.evaluate(
            {"scheduler": {"queued": health.QUEUE_DEPTH + 1}}
        )
        assert verdict["status"] == "degraded"
        assert verdict["firing"] == ["queue_depth"]

    def test_stale_shards_rule(self):
        engine = self.engine()
        registry = [
            {"address": "a:1", "stale": False},
            {"address": "b:2", "stale": False},
        ]
        assert health.STALE_SHARDS <= len(registry)
        assert engine.evaluate(
            {"shards": {"registry": registry}}
        )["status"] == "ok"
        registry[0]["stale"] = registry[1]["stale"] = True
        verdict = engine.evaluate({"shards": {"registry": registry}})
        assert verdict["firing"] == ["stale_shards"]
        assert _rule(verdict, "stale_shards")["evidence"]["stale"] == [
            "a:1", "b:2",
        ]

    def test_disk_errors_rule(self):
        engine = self.engine()
        budget = health.DISK_ERROR_BUDGET
        assert engine.evaluate(
            {"cache": {"disk": {"errors": budget}}}
        )["status"] == "ok"
        verdict = engine.evaluate({"cache": {"disk": {"errors": budget + 1}}})
        assert verdict["firing"] == ["disk_errors"]
        # A memory-only cache reports disk: null — never a crash.
        assert engine.evaluate(
            {"cache": {"disk": None}}
        )["status"] == "ok"

    def test_worker_loss_rule_is_event_sourced(self):
        journal = EventJournal()
        engine = HealthEngine(journal=journal)
        assert engine.evaluate({})["status"] == "ok"
        journal.emit("error", "coordinator", events.WORKER_LOST,
                     trace_id="tid-7", address="127.0.0.1:9001")
        verdict = engine.evaluate({})
        assert verdict["status"] == "degraded"
        assert verdict["firing"] == ["worker_loss"]
        evidence = _rule(verdict, "worker_loss")["evidence"]
        assert evidence["address"] == "127.0.0.1:9001"
        assert evidence["trace_id"] == "tid-7"
        # A later join clears it; a still-later loss re-fires it.
        journal.emit("info", "registry", events.WORKER_JOINED,
                     address="127.0.0.1:9002")
        assert engine.evaluate({})["status"] == "ok"
        journal.emit("error", "coordinator", events.WORKER_LOST,
                     address="127.0.0.1:9002")
        assert engine.evaluate({})["firing"] == ["worker_loss"]

    def test_transitions_are_journaled(self):
        journal = EventJournal()
        engine = HealthEngine(journal=journal)
        over = health.QUEUE_DEPTH + 1
        engine.evaluate({"scheduler": {"queued": 0}})
        assert journal.last(events.HEALTH_RULE_FIRED) is None
        engine.evaluate({"scheduler": {"queued": over}})
        fired = journal.last(events.HEALTH_RULE_FIRED)
        assert fired["rule"] == "queue_depth"
        assert fired["severity"] == "degraded"
        # Steady firing state: no duplicate transition event.
        engine.evaluate({"scheduler": {"queued": over}})
        assert journal.last(events.HEALTH_RULE_FIRED)["seq"] == fired["seq"]
        engine.evaluate({"scheduler": {"queued": 0}})
        cleared = journal.last(events.HEALTH_RULE_CLEARED)
        assert cleared["rule"] == "queue_depth"

    def test_critical_outranks_degraded(self):
        engine = self.engine()
        verdict = engine.evaluate({"scheduler": {
            "queued": health.QUEUE_DEPTH + 1,
            "completed": 0,
            "failed": health.MIN_SAMPLES,
        }})
        assert verdict["status"] == "critical"
        assert set(verdict["firing"]) == {"queue_depth", "error_rate"}

    def test_statuses_ladder(self):
        assert STATUSES == ("ok", "degraded", "critical")


# ----------------------------------------------------------------------
# Acceptance: announced worker killed mid-run -> degraded -> replaced
# ----------------------------------------------------------------------
class TestWorkerLossEndToEnd:
    def test_killed_worker_flips_health_until_replacement_announces(
        self, graph
    ):
        serial = (
            repro.open(graph).with_cluster(machines=3)
            .engine("rads").query("q1").run()
        )
        registry = ShardRegistry()
        config = RunConfig(machines=3, backend="socket")
        w2 = None
        with QueryServer(
            graph, config, threads=1, shard_registry=registry
        ) as server:
            w1 = ShardWorker(
                announce=server.address, announce_interval=60.0
            ).start()
            try:
                _poll(lambda: len(registry) == 1,
                      message="worker announced")
                with connect(server.address, timeout=60) as client:
                    cursor = client.events()["last_seq"]
                    # The announce path journaled the join; with the
                    # roster whole, worker_loss must not fire even if
                    # earlier tests in this process lost workers.
                    healthy = client.health()
                    assert not _rule(healthy, "worker_loss")["firing"]
                    assert healthy["status"] == "ok"

                    client.submit("q2", engine="rads")  # roster warm
                    w1.crash()
                    served: list = []

                    def resubmit():
                        with connect(server.address, timeout=60) as c2:
                            served.append(
                                c2.submit("q1", engine="rads", trace=True)
                            )

                    thread = threading.Thread(target=resubmit)
                    thread.start()

                    def lost_events():
                        return [
                            r for r in client.events(
                                since=cursor
                            )["events"]
                            if r["kind"] == events.WORKER_LOST
                        ]

                    _poll(lambda: lost_events(),
                          message="worker.lost event")
                    lost = lost_events()[0]
                    assert lost["address"] == _addr(w1)
                    assert lost["level"] == "error"
                    assert lost["trace_id"]  # the active traced request

                    degraded = client.health()
                    assert degraded["status"] == "degraded"
                    assert "worker_loss" in degraded["firing"]
                    evidence = _rule(degraded, "worker_loss")["evidence"]
                    assert evidence["address"] == _addr(w1)
                    assert evidence["trace_id"] == lost["trace_id"]

                    # The replacement's announce both unblocks the
                    # waiting query and clears the rule.
                    w2 = ShardWorker(
                        announce=server.address, announce_interval=60.0
                    ).start()
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                    assert served, "replacement worker never served"
                    result = served[0]
                    assert result.embedding_count == serial.embedding_count
                    assert result.makespan == serial.makespan
                    # The event's trace id is the blocked request's.
                    assert result.trace["trace_id"] == lost["trace_id"]

                    recovered = client.health()
                    assert not _rule(recovered, "worker_loss")["firing"]
                    assert recovered["status"] == "ok"
                    kinds = [
                        r["kind"]
                        for r in client.events(since=cursor)["events"]
                        if r["kind"].startswith(("worker.", "health."))
                    ]
                    assert "worker.lost" in kinds
                    assert "worker.joined" in kinds
                    assert "health.rule_fired" in kinds
                    assert "health.rule_cleared" in kinds
            finally:
                w1.close()
                if w2 is not None:
                    w2.close()
