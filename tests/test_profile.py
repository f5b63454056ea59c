"""Per-request resource profiling: Profiler, flame table, wire path.

PR-10 tentpole surface #1: ``profile=True`` on ``Session.run`` and on
the protocol ``submit`` measures one request's CPU/memory/GC cost and
aggregates its span tree into a flame table; socket-backed runs put
per-task worker rusage on the shipped-back task spans and the profile
attributes CPU per shard.
The acceptance bound lives here: a profiled socket submit returns
per-worker CPU attribution and a flame table whose self times sum to
the root duration within 5%, with counts and stats bit-identical to an
unprofiled run.  Profiles are per-request diagnostics — cache hits and
cached copies never carry one.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import RunConfig
from repro.api.results import RunResult
from repro.distributed import ShardWorker
from repro.distributed import protocol as dproto
from repro.graph import erdos_renyi
from repro.obs.profile import Profiler, flame_table, worker_rows
from repro.service import QueryServer, connect
from repro.service.client import ServiceError


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.12, seed=17)


def _addr(worker: ShardWorker) -> str:
    host, port = worker.address
    return f"{host}:{port}"


def _engine_stats(result):
    """Everything that must be bit-identical, service annotations aside."""
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


def _span(name, duration, *children):
    return {"name": name, "duration": duration, "children": list(children)}


# ----------------------------------------------------------------------
# Flame table (pure aggregation)
# ----------------------------------------------------------------------
class TestFlameTable:
    def test_empty_tree(self):
        assert flame_table(None) == []
        assert flame_table({}) == []

    def test_self_times_telescope_to_root_duration(self):
        tree = _span(
            "root", 1.0,
            _span("round", 0.3, _span("task", 0.1)),
            _span("round", 0.2),
            _span("flush", 0.05),
        )
        table = flame_table(tree)
        rows = {row["name"]: row for row in table}
        assert rows["root"] == {
            "name": "root", "count": 1, "total": 1.0,
            "self": pytest.approx(0.45),
        }
        # Same-named spans aggregate into one row.
        assert rows["round"]["count"] == 2
        assert rows["round"]["total"] == pytest.approx(0.5)
        assert rows["round"]["self"] == pytest.approx(0.4)
        assert rows["task"]["self"] == pytest.approx(0.1)
        assert sum(r["self"] for r in table) == pytest.approx(
            tree["duration"]
        )
        # Hottest self-time first, name as the tie-break.
        assert [r["name"] for r in table] == [
            "root", "round", "task", "flush",
        ]

    def test_overlapping_children_rescale_into_parent_wall_time(self):
        # Concurrent children (shard tasks under one batch) sum past
        # their parent's wall time; their self shares are rescaled to
        # divide exactly the parent's duration, so the telescoping
        # identity survives concurrency.  Totals stay unscaled.
        tree = _span("root", 0.1, _span("a", 0.08), _span("b", 0.07))
        rows = {r["name"]: r for r in flame_table(tree)}
        assert rows["root"]["self"] == 0.0
        assert rows["a"]["total"] == pytest.approx(0.08)
        assert rows["a"]["self"] == pytest.approx(0.08 * 0.1 / 0.15)
        assert rows["b"]["self"] == pytest.approx(0.07 * 0.1 / 0.15)
        assert sum(r["self"] for r in flame_table(tree)) == pytest.approx(
            tree["duration"]
        )


# ----------------------------------------------------------------------
# Profiler measurement and context propagation
# ----------------------------------------------------------------------
class TestProfiler:
    def test_measures_and_propagates(self):
        with Profiler() as profiler:
            ballast = [bytes(1024) for _ in range(64)]  # allocate
            del ballast
        record = profiler.result(None)
        assert record["wall_seconds"] > 0
        assert record["cpu"]["process_seconds"] >= 0
        assert record["cpu"]["thread_seconds"] >= 0
        assert record["memory"]["peak_bytes"] > 0
        assert isinstance(record["memory"]["allocated_bytes"], int)
        assert set(record["gc"]) == {
            "collections", "collected", "uncollectable",
        }
        assert record["flame"] == []  # no span tree supplied
        assert record["workers"] == []

    def test_worker_usage_aggregates_by_shard_pid_mode(self):
        def task(shard, pid, mode, utime, stime, maxrss_kb):
            return {"name": "worker.task", "duration": 0.1, "children": [],
                    "attributes": {"shard": shard, "pid": pid, "mode": mode,
                                   "utime": utime, "stime": stime,
                                   "maxrss_kb": maxrss_kb}}

        tree = {"name": "root", "duration": 1.0, "children": [
            {"name": "executor.batch", "duration": 0.5, "children": [
                task("a:1", 10, "inline", 0.2, 0.1, 100),
                task("a:1", 10, "inline", 0.3, 0.0, 90),
                task("b:2", 11, "pool", 0.1, 0.0, 500),
            ]},
            {"name": "round.1", "duration": 0.1, "children": []},
        ]}
        rows = worker_rows(tree)
        assert [r["shard"] for r in rows] == ["a:1", "b:2"]  # busiest CPU
        merged = rows[0]
        assert merged["tasks"] == 2
        assert merged["utime"] == pytest.approx(0.5)
        assert merged["stime"] == pytest.approx(0.1)
        assert merged["maxrss_kb"] == 100  # max, not sum
        assert rows[1]["mode"] == "pool"
        assert worker_rows(None) == []  # no tree: nothing shipped


# ----------------------------------------------------------------------
# Session.run(profile=True)
# ----------------------------------------------------------------------
class TestSessionProfile:
    def test_profiled_run_attaches_record(self, graph):
        session = (
            repro.open(graph).with_cluster(machines=2)
            .engine("rads").query("q1")
        )
        plain = session.run()
        profiled = session.run(profile=True)
        assert plain.profile is None
        assert profiled.embedding_count == plain.embedding_count
        assert profiled.counters == plain.counters
        profile = profiled.profile
        assert profile["wall_seconds"] > 0
        names = [row["name"] for row in profile["flame"]]
        assert "session.run" in names
        # Profiling forces an internal tracer (the flame table needs the
        # span tree) but the trace itself is only attached when asked.
        assert profiled.trace is None
        both = session.run(profile=True, trace=True)
        assert both.trace is not None and both.profile is not None

    def test_profile_round_trips_through_to_dict(self, graph):
        result = (
            repro.open(graph).with_cluster(machines=2)
            .engine("seed").query("q3").run(profile=True)
        )
        clone = RunResult.from_dict(result.to_dict())
        assert clone.profile == result.profile
        # Unprofiled records simply omit the key.
        assert "profile" not in (
            repro.open(graph).with_cluster(machines=2)
            .engine("seed").query("q3").run()
        ).to_dict()


# ----------------------------------------------------------------------
# The acceptance path: profiled submit over the socket backend
# ----------------------------------------------------------------------
class TestDistributedProfile:
    @pytest.fixture(scope="class")
    def shard_pair(self):
        workers = [ShardWorker().start(), ShardWorker().start()]
        yield workers
        for worker in workers:
            worker.close()

    @pytest.fixture(scope="class")
    def server(self, graph, shard_pair):
        config = RunConfig(
            machines=3,
            backend="socket",
            shards=[_addr(w) for w in shard_pair],
        )
        with QueryServer(graph, config, threads=2, cache=True) as server:
            yield server

    def test_profiled_submit_attributes_workers_and_telescopes(
        self, server, shard_pair
    ):
        with connect(server.address, timeout=60) as client:
            # Profiled first (cold, executes); the plain repeat is a
            # cache hit served from the same enumeration.
            profiled = client.submit("q2", engine="rads", profile=True)
            plain = client.submit("q2", engine="rads")

        # Bit-parity: profiles observe, never perturb — and the cached
        # copy the repeat was served from was stripped of the profile.
        assert _engine_stats(profiled) == _engine_stats(plain)
        assert plain.profile is None

        profile = profiled.profile
        assert profile["wall_seconds"] > 0

        # Per-worker CPU attribution: every task's rusage row shipped
        # back and aggregated per shard address.
        shard_addrs = {_addr(w) for w in shard_pair}
        workers = profile["workers"]
        assert workers
        assert {row["shard"] for row in workers} <= shard_addrs
        for row in workers:
            assert row["tasks"] >= 1
            assert row["utime"] >= 0.0 and row["stime"] >= 0.0
            assert row["pid"] > 0
            assert row["mode"] == "inline"
        # Busiest-first ordering.
        cpu = [row["utime"] + row["stime"] for row in workers]
        assert cpu == sorted(cpu, reverse=True)

        # The flame table covers the whole request: self times telescope
        # to the root span's duration within the 5% acceptance bound.
        rows = {row["name"]: row for row in profile["flame"]}
        assert rows["service.execute"]["count"] == 1
        assert "worker.task" in rows
        root = rows["service.execute"]["total"]
        self_sum = sum(row["self"] for row in profile["flame"])
        assert self_sum == pytest.approx(root, rel=0.05)

    def test_worker_rows_are_the_task_spans_summed(
        self, server, monkeypatch
    ):
        """The ``workers`` rows are the ``worker.task`` spans' rusage
        attributes summed per (shard, pid), and no task message carries
        a ``profile`` field: the trace is the only channel."""
        sent = []
        write = dproto.write_message

        def recording(stream, message):
            if message.get("op") == "task":
                sent.append(message)
            return write(stream, message)

        monkeypatch.setattr(dproto, "write_message", recording)
        with connect(server.address, timeout=60) as client:
            result = client.submit("q3", engine="rads", profile=True, trace=True)
        assert sent and not any("profile" in message for message in sent)

        sums: dict[tuple, dict] = {}

        def visit(node):
            if node["name"] == "worker.task":
                a = node["attributes"]
                row = sums.setdefault((a["shard"], a["pid"]), {
                    "tasks": 0, "utime": 0.0, "stime": 0.0, "maxrss_kb": 0,
                })
                row["tasks"] += 1
                row["utime"] += a["utime"]
                row["stime"] += a["stime"]
                row["maxrss_kb"] = max(row["maxrss_kb"], a["maxrss_kb"])
            for child in node["children"]:
                visit(child)

        visit(result.trace)
        rows = {(r["shard"], r["pid"]): r for r in result.profile["workers"]}
        assert sums and set(rows) == set(sums)
        for key, row in sums.items():
            assert rows[key]["tasks"] == row["tasks"]
            assert rows[key]["utime"] == pytest.approx(row["utime"])
            assert rows[key]["stime"] == pytest.approx(row["stime"])
            assert rows[key]["maxrss_kb"] == row["maxrss_kb"] > 0

    def test_cache_hit_fast_path_has_no_profile(self, server):
        with connect(server.address, timeout=60) as client:
            client.submit("q1", engine="rads")
            again = client.submit("q1", engine="rads", profile=True)
        # Served from the result cache without executing: nothing ran,
        # so there is nothing to profile (and the payload stays
        # byte-stable).
        assert again.counters["service.cache_hit"] == 1
        assert again.profile is None

    def test_profile_field_is_validated(self, server):
        with connect(server.address, timeout=60) as client:
            with pytest.raises(ServiceError, match="profile"):
                client._call(
                    "submit", query="q1", engine="rads", profile="yes"
                )
