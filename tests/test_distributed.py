"""Distributed shard runtime: socket backend, worker daemons, fault tolerance.

The correctness bar mirrors the process backend's: every engine must
report **bit-identical** counts and stats on the socket backend, no
matter how tasks were dealt across shards — including after a mid-run
worker crash (outstanding tasks are resubmitted to survivors and the
merge order is unchanged).  Roster management (handshakes, fingerprint
rejection, heartbeats, total-loss errors) and the capability enforcement
for non-distributed engines are covered alongside.
"""

from __future__ import annotations

import dataclasses
import io
import json
import socket
import threading

import numpy as np
import pytest

import repro
from repro.api import CapabilityError, RunConfig, default_registry
from repro.api.config import ConfigError
from repro.cluster import Cluster
from repro.core.rads import RADSEngine
from repro.engines.bigjoin import BigJoinEngine
from repro.distributed import (
    DistributedError,
    ShardCoordinator,
    ShardWorker,
    SocketExecutor,
    stop_worker,
)
from repro.distributed import protocol as dproto
from repro.graph import erdos_renyi
from repro.query import named_patterns
from repro.runtime import SerialExecutor
from repro.runtime.delta import capture_state, compute_delta
from repro.service import QueryScheduler
from repro.service.cache import cache_key, config_digest


def _addr(worker: ShardWorker) -> str:
    host, port = worker.address
    return f"{host}:{port}"


def _echo_task(cluster, args):
    """Top-level (picklable) task used by the wire-protocol tests."""
    return ("echo", args)


def _unpicklable_task(cluster, args):
    """Runs fine, but its result cannot be pickled for the way back."""
    return lambda: None


def _stats(result) -> tuple:
    return (
        result.failed,
        result.embedding_count,
        result.makespan,
        result.total_comm_bytes,
        result.peak_memory,
        tuple(result.per_machine_time),
        dict(result.counters),
    )


@pytest.fixture(scope="module")
def shard_pair():
    """Two local in-process shard workers (serial task execution)."""
    workers = [ShardWorker().start(), ShardWorker().start()]
    yield workers
    for worker in workers:
        worker.close()


@pytest.fixture(scope="module")
def socket_pool(shard_pair):
    """One long-lived SocketExecutor over the module's shard pair."""
    executor = SocketExecutor(
        [w.address for w in shard_pair], heartbeat_interval=None
    )
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def dist_cluster(er_graph):
    return Cluster.create(er_graph, 3)


class TestSocketBackendEquivalence:
    def test_all_engines_q4_bit_identical(
        self, dist_cluster, socket_pool
    ):
        """Every distributed-capable engine: socket stats == serial stats."""
        pattern = named_patterns()["q4"]
        for spec in default_registry().specs(distributed=True):
            serial = spec.create(graph=dist_cluster.graph).run(
                dist_cluster.fresh_copy(), pattern,
                collect_embeddings=False, executor=SerialExecutor(),
            )
            via_socket = spec.create(graph=dist_cluster.graph).run(
                dist_cluster.fresh_copy(), pattern,
                collect_embeddings=False, executor=socket_pool,
            )
            assert not serial.failed, spec.name
            assert _stats(via_socket) == _stats(serial), spec.name

    def test_collected_embeddings_match(self, dist_cluster, socket_pool):
        pattern = named_patterns()["q1"]
        serial = RADSEngine().run(
            dist_cluster.fresh_copy(), pattern, collect_embeddings=True
        )
        via_socket = RADSEngine().run(
            dist_cluster.fresh_copy(), pattern,
            collect_embeddings=True, executor=socket_pool,
        )
        # RADS picks its parallel-capable decomposition when the backend
        # is parallel (same as the process pool), so the *order* of
        # collected embeddings may differ from serial; the set may not.
        assert sorted(via_socket.embeddings) == sorted(serial.embeddings)
        assert via_socket.embedding_count == serial.embedding_count

    def test_simulated_oom_parity(self, er_graph, socket_pool):
        """A capacity blow-up fails identically on both backends.

        PSgL is schedule-free (identical decomposition on every
        backend), so the whole failed RunResult — partial counters
        included — must match bit for bit.
        """
        from repro.engines.psgl import PSgLEngine

        pattern = named_patterns()["q4"]
        base = Cluster.create(er_graph, 3)
        serial = PSgLEngine().run(
            Cluster(base.partition, base.cost_model, 50_000), pattern,
            collect_embeddings=False,
        )
        via_socket = PSgLEngine().run(
            Cluster(base.partition, base.cost_model, 50_000), pattern,
            collect_embeddings=False, executor=socket_pool,
        )
        assert serial.failed and via_socket.failed
        assert _stats(via_socket) == _stats(serial)

    def test_session_socket_backend(self, er_graph, shard_pair):
        """The whole Session stack on RunConfig(backend='socket')."""
        shards = [_addr(w) for w in shard_pair]
        serial = (
            repro.open(er_graph).with_cluster(machines=3)
            .engine("rads").query("q2").run()
        )
        with repro.open(er_graph).with_cluster(machines=3).backend(
            "socket", shards=shards
        ).engine("rads").query("q2") as session:
            via_socket = session.run()
        assert _stats(via_socket) == _stats(serial)

    def test_scheduler_fans_out_over_shards(self, er_graph, shard_pair):
        """A served session (QueryScheduler) runs queries on the roster."""
        shards = tuple(_addr(w) for w in shard_pair)
        with QueryScheduler(
            er_graph, RunConfig(machines=3), threads=1
        ) as serial_scheduler:
            reference = serial_scheduler.run("q1", "rads")
        with QueryScheduler(
            er_graph,
            RunConfig(machines=3, backend="socket", shards=shards),
            threads=2,
            cache=False,
        ) as scheduler:
            served = scheduler.run("q1", "rads")
            assert scheduler.stats()["executor_fallbacks"] == 0
        assert served.embedding_count == reference.embedding_count
        assert served.makespan == reference.makespan


class TestFaultTolerance:
    def test_worker_crash_mid_run_resubmits(self, er_graph):
        workers = [ShardWorker().start(), ShardWorker().start()]
        try:
            session = repro.open(er_graph).with_cluster(machines=4).backend(
                "socket", shards=[_addr(w) for w in workers]
            ).engine("rads").query("q4")
            serial = (
                repro.open(er_graph).with_cluster(machines=4)
                .engine("rads").query("q4").run()
            )
            healthy = session.run()
            assert _stats(healthy) == _stats(serial)
            # Kill one shard between batches: the next run discovers the
            # death mid-batch, resubmits its outstanding tasks to the
            # survivor, and still reports bit-identical stats (plus the
            # fault counters).
            workers[1].crash()
            recovered = session.run()
            assert recovered.embedding_count == serial.embedding_count
            assert recovered.makespan == serial.makespan
            assert recovered.total_comm_bytes == serial.total_comm_bytes
            assert recovered.counters["distributed.resubmits"] > 0
            assert recovered.counters["distributed.lost_workers"] == 1
            session.close()
        finally:
            for worker in workers:
                worker.close()

    def test_total_roster_loss_raises(self, er_graph):
        workers = [ShardWorker().start(), ShardWorker().start()]
        try:
            executor = SocketExecutor(
                [w.address for w in workers], heartbeat_interval=None
            )
            cluster = Cluster.create(er_graph, 3)
            pattern = named_patterns()["q1"]
            RADSEngine().run(
                cluster.fresh_copy(), pattern,
                collect_embeddings=False, executor=executor,
            )
            for worker in workers:
                worker.crash()
            with pytest.raises(DistributedError):
                RADSEngine().run(
                    cluster.fresh_copy(), pattern,
                    collect_embeddings=False, executor=executor,
                )
            executor.close()
        finally:
            for worker in workers:
                worker.close()

    def test_startup_unreachable_shard_surfaces_on_first_run(self, er_graph):
        """A configured-but-dead shard is a lost worker, visibly."""
        worker = ShardWorker().start()
        try:
            executor = SocketExecutor(
                [worker.address, "127.0.0.1:1"],
                connect_timeout=0.5, heartbeat_interval=None,
            )
            assert executor.workers == 1
            cluster = Cluster.create(er_graph, 3)
            result = RADSEngine().run(
                cluster.fresh_copy(), named_patterns()["q1"],
                collect_embeddings=False, executor=executor,
            )
            assert result.counters["distributed.lost_workers"] == 1
            assert "distributed.resubmits" not in result.counters
            executor.close()
        finally:
            worker.close()

    def test_unreachable_roster_fails_at_construction(self):
        with pytest.raises(DistributedError, match="no shard worker"):
            SocketExecutor(
                ["127.0.0.1:1"], connect_timeout=0.5,
                heartbeat_interval=None,
            )

    def test_heartbeat_prunes_dead_workers(self):
        worker = ShardWorker().start()
        coordinator = ShardCoordinator(
            [worker.address], heartbeat_interval=None
        )
        try:
            assert coordinator.heartbeat() == 1
            worker.crash()
            assert coordinator.heartbeat() == 0
            assert not coordinator.live_shards()
            assert coordinator.counters["distributed.lost_workers"] == 1
        finally:
            coordinator.close()
            worker.close()

    def test_lose_is_idempotent(self):
        """A shard buried twice (heartbeat + batch racing) counts once."""
        worker = ShardWorker().start()
        coordinator = ShardCoordinator(
            [worker.address], heartbeat_interval=None
        )
        try:
            shard = coordinator.live_shards()[0]
            coordinator._lose(shard, RuntimeError("first cause"))
            coordinator._lose(shard, RuntimeError("second cause"))
            assert coordinator.counters["distributed.lost_workers"] == 1
            assert "first cause" in shard.last_error
        finally:
            coordinator.close()
            worker.close()

    def test_heartbeat_burial_then_run_recovers(self, er_graph):
        """A shard the heartbeat buried must not poison the next batch."""
        workers = [ShardWorker().start(), ShardWorker().start()]
        try:
            executor = SocketExecutor(
                [w.address for w in workers], heartbeat_interval=None
            )
            workers[1].crash()
            assert executor.coordinator.heartbeat() == 1
            cluster = Cluster.create(er_graph, 3)
            pattern = named_patterns()["q1"]
            serial = RADSEngine().run(
                cluster.fresh_copy(), pattern, collect_embeddings=False
            )
            result = RADSEngine().run(
                cluster.fresh_copy(), pattern,
                collect_embeddings=False, executor=executor,
            )
            assert result.embedding_count == serial.embedding_count
            assert result.counters["distributed.lost_workers"] == 1
            executor.close()
        finally:
            for worker in workers:
                worker.close()


class TestHandshake:
    def test_fingerprint_mismatch_rejected_without_shipping(self, er_graph):
        other = erdos_renyi(40, 0.1, seed=11)
        worker = ShardWorker(graph=other).start()
        try:
            executor = SocketExecutor(
                [worker.address], ship_graph=False, heartbeat_interval=None
            )
            cluster = Cluster.create(er_graph, 3)
            with pytest.raises(
                DistributedError, match="fingerprint mismatch"
            ) as excinfo:
                RADSEngine().run(
                    cluster.fresh_copy(), named_patterns()["q1"],
                    collect_embeddings=False, executor=executor,
                )
            assert er_graph.fingerprint() in str(excinfo.value)
            assert other.fingerprint() in str(excinfo.value)
            executor.close()
        finally:
            worker.close()

    def test_preloaded_graph_needs_no_shipping(self, er_graph):
        worker = ShardWorker(graph=er_graph).start()
        try:
            executor = SocketExecutor(
                [worker.address], ship_graph=False, heartbeat_interval=None
            )
            cluster = Cluster.create(er_graph, 3)
            serial = RADSEngine().run(
                cluster.fresh_copy(), named_patterns()["q1"],
                collect_embeddings=False,
            )
            result = RADSEngine().run(
                cluster.fresh_copy(), named_patterns()["q1"],
                collect_embeddings=False, executor=executor,
            )
            assert _stats(result) == _stats(serial)
            executor.close()
        finally:
            worker.close()

    def test_shipped_graph_cached_by_fingerprint(self, er_graph):
        worker = ShardWorker().start()
        try:
            assert worker.fingerprints() == []
            executor = SocketExecutor(
                [worker.address], heartbeat_interval=None
            )
            cluster = Cluster.create(er_graph, 3)
            RADSEngine().run(
                cluster.fresh_copy(), named_patterns()["q1"],
                collect_embeddings=False, executor=executor,
            )
            assert worker.fingerprints() == [er_graph.fingerprint()]
            executor.close()
            # A later coordinator binds without shipping: the worker
            # already holds the graph.
            executor = SocketExecutor(
                [worker.address], ship_graph=False, heartbeat_interval=None
            )
            RADSEngine().run(
                cluster.fresh_copy(), named_patterns()["q1"],
                collect_embeddings=False, executor=executor,
            )
            executor.close()
        finally:
            worker.close()

    def test_version_mismatch_rejected(self):
        """A version 1 (base64-in-JSON) worker is refused by this
        coordinator before any bind."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def impostor():
            conn, _ = listener.accept()
            conn.sendall((json.dumps({
                "kind": "hello", "version": 1,
                "role": dproto.WORKER_ROLE,
            }) + "\n").encode())
            conn.recv(1)
            conn.close()

        thread = threading.Thread(target=impostor, daemon=True)
        thread.start()
        try:
            with pytest.raises(
                DistributedError,
                match="version mismatch.*worker speaks 1, coordinator 2",
            ):
                ShardCoordinator(
                    [listener.getsockname()], heartbeat_interval=None
                )
        finally:
            listener.close()

    def test_version_1_coordinator_refuses_this_worker(self, monkeypatch):
        """... and the other way round: the hello says 2, which is all a
        version 1 coordinator reads before it gives up."""
        with ShardWorker() as worker:
            hello = worker._hello()
            assert hello["version"] == 2
            monkeypatch.setattr(worker, "_hello", lambda: hello)
            monkeypatch.setattr(dproto, "WORKER_PROTOCOL_VERSION", 1)
            with pytest.raises(
                DistributedError,
                match="version mismatch.*worker speaks 2, coordinator 1",
            ):
                ShardCoordinator([worker.address], heartbeat_interval=None)

    def test_wrong_role_rejected(self, er_graph):
        """Pointing the coordinator at a query server is a loud error."""
        server = repro.open(er_graph).serve(port=0)
        try:
            with pytest.raises(
                DistributedError,
                match="is a 'unknown' endpoint, not a shard worker",
            ):
                ShardCoordinator([server.address], heartbeat_interval=None)
        finally:
            server.close()


class TestNoDelay:
    """Both protocols answer small writes with small writes; with Nagle on
    either end each exchange can wait out the peer's delayed ACK (~40 ms
    a batch, or a push-mode ingest), so every endpoint sets TCP_NODELAY."""

    @staticmethod
    def _accepted(monkeypatch) -> list:
        """Record the daemon-side socket of every accepted connection."""
        from repro.service import transport

        accepted: list[socket.socket] = []
        setup = transport._Handler.setup

        def recording(self):
            setup(self)
            accepted.append(self.connection)

        monkeypatch.setattr(transport._Handler, "setup", recording)
        return accepted

    @staticmethod
    def _nodelay(sock: socket.socket) -> bool:
        return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    def test_both_ends_of_a_shard_connection(self, monkeypatch):
        accepted = self._accepted(monkeypatch)
        with ShardWorker() as worker:
            with ShardCoordinator(
                [worker.address], heartbeat_interval=None
            ) as coordinator:
                (shard,) = coordinator.live_shards()
                assert self._nodelay(shard.sock)
                assert [self._nodelay(s) for s in accepted] == [True]

    def test_both_ends_of_a_service_connection(self, er_graph, monkeypatch):
        accepted = self._accepted(monkeypatch)
        server = repro.open(er_graph).serve(port=0)
        try:
            with repro.connect(server.address) as client:
                assert self._nodelay(client._sock)
                assert [self._nodelay(s) for s in accepted] == [True]
        finally:
            server.close()


class TestWorkerDaemon:
    def test_ping_stats_and_polite_stop(self, er_graph):
        worker = ShardWorker(graph=er_graph).start()
        host, port = worker.address
        with socket.create_connection((host, port), timeout=10) as sock:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            hello = dproto.read_message(rfile)
            assert hello["role"] == dproto.WORKER_ROLE
            assert hello["version"] == dproto.WORKER_PROTOCOL_VERSION
            assert hello["graphs"] == [er_graph.fingerprint()]
            dproto.write_message(wfile, {"op": "ping", "id": 1})
            assert dproto.read_message(rfile)["kind"] == "pong"
            dproto.write_message(wfile, {"op": "stats", "id": 2})
            stats = dproto.read_message(rfile)["result"]
            assert stats["graphs"] == [er_graph.fingerprint()]
            dproto.write_message(wfile, {"op": "nonsense", "id": 3})
            answer = dproto.read_message(rfile)
            assert not answer["ok"] and "unknown op" in answer["error"]
        assert stop_worker((host, port))
        worker.close()
        assert not stop_worker((host, port))

    def test_an_unpicklable_result_is_a_per_task_error(self, er_graph):
        """A result that cannot be sent back is answered on the task's id
        (no coordinator stall, no false shard burial) and the connection
        keeps serving."""
        worker = ShardWorker().start()
        try:
            coordinator = ShardCoordinator(
                [worker.address], heartbeat_interval=None
            )
            cluster = Cluster.create(er_graph, 2)
            bad = coordinator.run_batch(cluster, _unpicklable_task, [0])
            assert bad[0][0] == "transport_error"
            assert "not serializable" in str(bad[0][1])
            good = coordinator.run_batch(cluster, _echo_task, ["ok"])
            assert good[0][0] == "ok" and good[0][1] == ("echo", "ok")
            assert coordinator.live_shards()
            assert coordinator.counters["distributed.lost_workers"] == 0
            coordinator.close()
        finally:
            worker.close()

    def test_malformed_bind_answers_instead_of_dying(self, er_graph):
        """Worker-side bind failures come back as error responses.

        A shipped graph whose fingerprint does not match the bind's, or
        any construction failure, must be answered on the connection —
        a dead executor thread would strand the coordinator until its
        task timeout.
        """
        worker = ShardWorker().start()
        try:
            host, port = worker.address
            with socket.create_connection((host, port), timeout=10) as sock:
                rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
                dproto.read_message(rfile)  # hello
                import numpy as np

                owner = np.zeros(er_graph.num_vertices, dtype=np.int64)
                dproto.write_message(wfile, {
                    "op": "bind", "id": 1,
                    "fingerprint": "not-the-real-fingerprint",
                    "data": dproto.pack({
                        "owner": owner, "cost_model": None,
                        "memory_capacity": None,
                    }),
                    "graph": dproto.pack(er_graph),
                })
                answer = dproto.read_message(rfile)
                assert not answer["ok"]
                assert "does not match" in answer["error"]
                # The connection is still alive and answers pings.
                dproto.write_message(wfile, {"op": "ping", "id": 2})
                assert dproto.read_message(rfile)["kind"] == "pong"
        finally:
            worker.close()

    def test_batch_ctx_shipped_once_and_cached(self, er_graph):
        """The (base, fn) context rides the first task only, then sticks.

        A task naming an unknown batch token (no ctx shipped on this
        connection yet) is answered with an error, not a dead thread; a
        later task reusing a shipped token runs without re-shipping.
        """
        import numpy as np

        from repro.cluster.costmodel import CostModel
        from repro.runtime.delta import capture_state

        worker = ShardWorker().start()
        try:
            host, port = worker.address
            with socket.create_connection((host, port), timeout=10) as sock:
                rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
                dproto.read_message(rfile)  # hello
                owner = np.zeros(er_graph.num_vertices, dtype=np.int64)
                dproto.write_message(wfile, {
                    "op": "bind", "id": 1,
                    "fingerprint": er_graph.fingerprint(),
                    "data": dproto.pack({
                        "owner": owner, "cost_model": CostModel(),
                        "memory_capacity": None,
                    }),
                    "graph": dproto.pack(er_graph),
                })
                assert dproto.read_message(rfile)["ok"]
                # No ctx shipped yet: answered, and the connection lives.
                dproto.write_message(wfile, {
                    "op": "task", "id": 2, "batch": "batch-1",
                    "data": dproto.pack("args"),
                })
                answer = dproto.read_message(rfile)
                assert not answer["ok"]
                assert "batch" in answer["error"]
                # First task of the batch carries ctx ...
                base = capture_state(
                    Cluster(
                        worker._partition_for(er_graph, owner),
                        CostModel(), None,
                    )
                )
                dproto.write_message(wfile, {
                    "op": "task", "id": 3, "batch": "batch-1",
                    "ctx": dproto.pack((base, _echo_task)),
                    "data": dproto.pack("first"),
                })
                answer = dproto.read_message(rfile)
                assert answer["ok"], answer
                assert dproto.unpack(answer["data"])[1] == ("echo", "first")
                # ... and later tasks reuse the cached context.
                dproto.write_message(wfile, {
                    "op": "task", "id": 4, "batch": "batch-1",
                    "data": dproto.pack("second"),
                })
                answer = dproto.read_message(rfile)
                assert answer["ok"], answer
                assert dproto.unpack(answer["data"])[1] == ("echo", "second")
        finally:
            worker.close()

    def test_pack_unpack_roundtrip(self):
        payload = {"base": (1, 2.5), "arr": [(0, 1), (2, 3)]}
        assert dproto.unpack(dproto.pack(payload)) == payload
        for garbage in (b"not a pickle!", b"", dproto.pack(payload)[:-3]):
            with pytest.raises(dproto.ProtocolError, match="undecodable"):
                dproto.unpack(garbage)


def _same(a, b) -> bool:
    """Structural equality that looks inside arrays and dataclasses."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray) and a.dtype == b.dtype
            and a.shape == b.shape and bool((a == b).all())
        )
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b) and len(a) == len(b)
            and all(map(_same, a, b))
        )
    return a == b


class TestWire:
    """Version 2 framing: a JSON header line, then the raw blobs."""

    def test_what_crosses_the_wire_round_trips(self, er_graph):
        cluster = Cluster.create(er_graph, 3)
        base = capture_state(cluster)
        cluster.machine(1).charge_ops(7, "some_ops")
        cluster.network.record(0, 2, 64)
        block = (
            np.arange(12, dtype=np.int64).reshape(4, 3),
            np.array([2, 0, 1, 3]),
            np.arange(6, dtype=np.int64),
        )
        for payload in (
            compute_delta(cluster, base),
            (base, _echo_task),
            block,
            (0, block, 1, 3),
            er_graph,
        ):
            assert _same(dproto.unpack(dproto.pack(payload)), payload)

    def test_blobs_follow_the_header_line(self):
        message = {"op": "task", "id": 7, "data": b"\x00\n\xff", "ctx": b""}
        stream = io.BytesIO()
        dproto.write_message(stream, message)
        header, _, rest = stream.getvalue().partition(b"\n")
        assert json.loads(header) == {
            "op": "task", "id": 7, "blobs": [["data", 3], ["ctx", 0]],
        }
        assert rest == b"\x00\n\xff"
        stream.seek(0)
        assert dproto.read_message(stream) == message
        assert dproto.read_message(stream) is None

    def test_a_message_without_bytes_is_a_plain_line(self):
        """hello / ping / stats / shutdown / errors stay ``nc``-able."""
        for message in (
            {"op": "ping", "id": 3},
            dproto.error_response(4, "no"),
            ShardWorker()._hello(),
        ):
            stream = io.BytesIO()
            dproto.write_message(stream, message)
            assert stream.getvalue() == dproto.encode(message)
            stream.seek(0)
            assert dproto.read_message(stream) == message

    @pytest.mark.parametrize("declared", [
        3, "data", [["data"]], [["data", "3"]], [["data", 3.0]],
        [["data", None]], [["data", -1]],
    ])
    def test_malformed_blob_declarations_are_refused(self, declared):
        line = dproto.encode({"id": 1, "blobs": declared})
        with pytest.raises(
            dproto.ProtocolError, match="malformed 'blobs'|outside the"
        ):
            dproto.read_message(io.BytesIO(line + b"abc"))

    def test_a_declared_length_is_checked_before_it_is_read(self):
        class NoRead(io.BytesIO):
            def read(self, *args):  # pragma: no cover - must not happen
                raise AssertionError("allocated for an over-limit blob")

        line = dproto.encode({"id": 1, "blobs": [["data", 2**40]]})
        with pytest.raises(dproto.ProtocolError, match="frame limit"):
            dproto.read_message(NoRead(line))

    def test_eof_inside_a_frame_is_a_protocol_error(self):
        line = dproto.encode({"id": 1, "blobs": [["data", 100]]})
        with pytest.raises(dproto.ProtocolError, match="10 of 100 bytes"):
            dproto.read_message(io.BytesIO(line + b"x" * 10))


class TestBoundedFrames:
    """A worker refuses what is past the cap or cut short, says so where
    a line can still be written, and hangs up; for a coordinator a frame
    cut short is a lost worker."""

    @staticmethod
    def _refused(worker: ShardWorker, sent: bytes, eof: bool = False) -> dict:
        with socket.create_connection(worker.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            assert dproto.read_message(stream)["kind"] == "hello"
            stream.write(sent)
            stream.flush()
            if eof:  # our half only: the answer can still be written
                sock.shutdown(socket.SHUT_WR)
            answer = dproto.read_message(stream)
            assert dproto.read_message(stream) is None  # hung up
        return answer

    def test_worker_refuses_an_overlong_line(self, monkeypatch):
        monkeypatch.setattr(dproto._lines, "MAX_FRAME_BYTES", 4096)
        with ShardWorker() as worker:
            answer = self._refused(worker, b"x" * (2 * 4096) + b"\n")
        assert not answer["ok"]
        assert "4096-byte frame limit" in answer["error"]

    def test_worker_refuses_an_over_limit_blob(self):
        header = {"op": "task", "id": 1, "blobs": [["data", 2**40]]}
        with ShardWorker() as worker:
            answer = self._refused(worker, dproto.encode(header))
        assert not answer["ok"]
        assert f"outside the {dproto._lines.MAX_FRAME_BYTES}-byte" in answer["error"]

    def test_worker_refuses_a_frame_cut_short(self):
        header = {"op": "task", "id": 1, "blobs": [["data", 100]]}
        with ShardWorker() as worker:
            answer = self._refused(
                worker, dproto.encode(header) + b"x" * 10, eof=True
            )
        assert not answer["ok"]
        assert "closed inside blob 'data'" in answer["error"]

    def test_a_frame_cut_short_is_a_lost_worker_and_a_resubmit(self, er_graph):
        """A shard that dies mid-frame: its tasks go to the survivor and
        the run reports what the serial backend reports."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def half_a_frame():
            conn, _ = listener.accept()
            rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
            dproto.write_message(wfile, ShardWorker()._hello())
            while True:
                message = dproto.read_message(rfile)
                if message is None:
                    break
                if message["op"] == "bind":
                    dproto.write_message(wfile, dproto.ok_response(
                        message["id"], "bound", {}
                    ))
                    continue
                header = dproto.ok_response(message["id"], "delta", None)
                header["blobs"] = [["data", 100]]
                wfile.write(dproto.encode(header) + b"x" * 10)
                wfile.flush()
                conn.shutdown(socket.SHUT_WR)
                # Closing on unread tasks would reset the connection and
                # could take the half frame with it: drain to EOF first.
                while dproto.read_message(rfile) is not None:
                    pass
                break
            conn.close()

        thread = threading.Thread(target=half_a_frame, daemon=True)
        thread.start()
        pattern = named_patterns()["q4"]
        cluster = Cluster.create(er_graph, 3)
        try:
            with ShardWorker() as worker, SocketExecutor(
                [listener.getsockname(), worker.address],
                heartbeat_interval=None,
            ) as executor:
                serial = BigJoinEngine().run(
                    cluster.fresh_copy(), pattern, collect_embeddings=False
                )
                recovered = BigJoinEngine().run(
                    cluster.fresh_copy(), pattern,
                    collect_embeddings=False, executor=executor,
                )
                obituary = executor.coordinator._roster_obituary()
        finally:
            listener.close()
        thread.join(10)
        assert not thread.is_alive()
        assert "ProtocolError: connection closed inside blob" in obituary
        assert recovered.counters.pop("distributed.lost_workers") == 1
        assert recovered.counters.pop("distributed.resubmits") > 0
        assert _stats(recovered) == _stats(serial)


class TestConfigAndCapabilities:
    def test_socket_backend_requires_shards_or_registry(self):
        # The config itself is now valid (an elastic registry may supply
        # the roster later); the executor build is where a shardless,
        # registryless socket backend fails loudly.
        config = RunConfig(backend="socket")
        with pytest.raises(ConfigError, match="needs shards"):
            config.make_executor()

    def test_shards_require_socket_backend(self):
        with pytest.raises(ConfigError, match="only apply to the socket"):
            RunConfig(shards=("127.0.0.1:7471",))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            RunConfig(backend="carrier-pigeon")

    def test_shard_addresses_normalized(self):
        config = RunConfig(
            backend="socket",
            shards=[("10.0.0.1", 7471), "10.0.0.2:7472", 7473],
        )
        assert config.shards == (
            "10.0.0.1:7471", "10.0.0.2:7472", "127.0.0.1:7473"
        )
        assert config.to_dict()["backend"] == "socket"
        assert config.to_dict()["shards"] == list(config.shards)

    def test_bad_shard_address_rejected(self):
        with pytest.raises(ConfigError, match="invalid shard address"):
            RunConfig(backend="socket", shards=["not-an-address"])

    def test_backend_excluded_from_cache_key(self, er_graph):
        """Results are backend-independent, so the cache key must be too."""
        serial_config = RunConfig(machines=3)
        socket_config = RunConfig(
            machines=3, backend="socket", shards=("127.0.0.1:7471",)
        )
        assert config_digest(serial_config) == config_digest(socket_config)
        pattern = named_patterns()["q1"]
        assert cache_key(
            er_graph, pattern, "RADS", serial_config, collect=False
        ) == cache_key(
            er_graph, pattern, "RADS", socket_config, collect=False
        )

    def test_make_executor_dispatches_on_backend(self):
        from repro.runtime import ProcessExecutor

        serial = RunConfig(backend="serial", workers=4).make_executor()
        assert isinstance(serial, SerialExecutor)
        process = RunConfig(backend="process", workers=2).make_executor()
        try:
            assert isinstance(process, ProcessExecutor)
            assert process.workers == 2
        finally:
            process.close()

    def test_engine_then_socket_backend_raises(self, er_graph):
        session = repro.open(er_graph).engine("oracle")
        with pytest.raises(CapabilityError) as excinfo:
            session.backend("socket", shards=["127.0.0.1:7471"])
        assert "RADS" in str(excinfo.value)
        # The rejected config must leave the session intact.
        assert session.config.backend == "auto"
        assert session.run_grid is not None  # session still usable

    def test_socket_backend_then_engine_raises(self, er_graph):
        session = repro.open(er_graph).backend(
            "socket", shards=["127.0.0.1:7471"]
        )
        with pytest.raises(CapabilityError, match="distributed"):
            session.engine("single")
        # A distributed engine is accepted without touching the roster
        # (executors connect lazily, at run time).
        session.engine("rads")

    def test_scheduler_fails_fast_on_dead_roster(self, er_graph):
        """A socket-backed scheduler must not silently degrade to serial."""
        with pytest.raises(DistributedError):
            QueryScheduler(
                er_graph,
                RunConfig(
                    machines=3, backend="socket",
                    shards=("127.0.0.1:1",),
                ),
                threads=1,
            )

    def test_scheduler_socket_capability_check(self, er_graph):
        worker = ShardWorker().start()
        try:
            with QueryScheduler(
                er_graph,
                RunConfig(
                    machines=3, backend="socket",
                    shards=(_addr(worker),),
                ),
                threads=1,
                cache=False,
            ) as scheduler:
                with pytest.raises(CapabilityError):
                    scheduler.submit("q1", "single")
        finally:
            worker.close()
