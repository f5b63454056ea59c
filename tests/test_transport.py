"""The socket tier (:mod:`repro.service.transport`): one line daemon under
the query server and the shard worker, one dialer under everything that
connects to either.

Lifecycle and framing behaviour is the base class's, so it is asserted
once, for both daemons.  What only one daemon does stays with that
daemon's tests (``test_service.py``, ``test_distributed.py``); so do the
over-long-line and ``TCP_NODELAY`` checks, which were already a pair.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time

import pytest

import repro
from repro.api import RunConfig
from repro.api.session import load_graph
from repro.cli import main as cli_main
from repro.distributed import ShardWorker, stop_worker
from repro.graph import erdos_renyi
from repro.graph.io import save_binary
from repro.obs import events
from repro.service import QueryServer, ServiceError, connect, protocol
from repro.service.transport import LineDaemon


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(40, 0.15, seed=11)


def make(kind: str, graph, **where) -> LineDaemon:
    if kind == "server":
        return QueryServer(graph, RunConfig(machines=2), threads=1, **where)
    return ShardWorker(**where)


@pytest.fixture(params=["server", "worker"])
def build(request, graph):
    """Constructor of one of the two daemons, unstarted; closes them all."""
    made: list[LineDaemon] = []

    def build(**where) -> LineDaemon:
        made.append(make(request.param, graph, **where))
        return made[-1]

    yield build
    for daemon in made:
        daemon.close()


@pytest.fixture(scope="module", params=["server", "worker"])
def daemon(request, graph):
    """One of the two daemons, serving, shared by the tests that only talk."""
    with make(request.param, graph) as daemon:
        yield daemon


@contextlib.contextmanager
def raw(address):
    """A bare connection past the hello (plain lines read alike on both)."""
    with socket.create_connection(address, timeout=10) as sock:
        with sock.makefile("rwb") as stream:
            assert protocol.read_message(stream)["kind"] == "hello"
            yield stream


def returns(call, within: float = 10.0) -> bool:
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(within)
    return not thread.is_alive()


def registered(daemon) -> tuple:
    """What a peer can leave behind on a daemon."""
    if isinstance(daemon, ShardWorker):
        stats = daemon.stats()
        return stats["connections"], stats["tasks_served"]
    return (
        len(daemon.streams.stats()["watches"]),
        daemon.scheduler.stats()["submitted"],
    )


class TestLifecycle:
    def test_close_of_a_never_started_daemon_returns(self, build):
        # shutdown() waits for a serve loop that never ran.
        assert returns(build().close), "close() hung on an unstarted daemon"

    def test_a_shutdown_op_racing_close_serialises(self, build):
        daemon = build().start()
        with raw(daemon.address) as stream:
            protocol.write_message(stream, {"op": "shutdown", "id": 1})
            # The op's close() is on its way on a daemon thread; ours
            # either waits for it or wins and makes it a no-op.
            assert returns(daemon.close)
            assert protocol.read_message(stream)["kind"] == "bye"
        assert daemon._close_lock.acquire(timeout=10)  # nobody stuck in it
        daemon._close_lock.release()
        assert daemon._closed and not daemon._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(daemon.address, timeout=1).close()

    def test_a_bind_failure_leaves_no_threads(self, build):
        before = set(threading.enumerate())
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            with pytest.raises(OSError):
                build(port=taken.getsockname()[1])
        assert not [
            t for t in set(threading.enumerate()) - before
            if t.name.startswith("repro-") and t.is_alive()
        ]

    def test_a_probe_registers_nothing_and_emits_no_event(self, daemon):
        """Connect and hang up — what ``wait_until_serving`` does."""
        seq = events.journal().last_seq
        for _ in range(3):
            socket.create_connection(daemon.address, timeout=10).close()
        with raw(daemon.address) as stream:  # accepted after the probes
            protocol.write_message(stream, {"op": "ping", "id": 1})
            assert protocol.read_message(stream)["kind"] == "pong"
        deadline = time.monotonic() + 10
        while registered(daemon) != (0, 0) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert registered(daemon) == (0, 0)
        assert events.journal().last_seq == seq

    def test_a_malformed_line_gets_a_null_id_error_then_eof(self, daemon):
        with raw(daemon.address) as stream:
            stream.write(b"this is not json\n")
            stream.flush()
            answer = protocol.read_message(stream)
            assert answer["id"] is None and answer["ok"] is False
            assert "malformed" in answer["error"]
            assert protocol.read_message(stream) is None  # hung up

    def test_a_blank_line_is_ignored_and_a_ping_answers(self, daemon):
        with raw(daemon.address) as stream:
            stream.write(b"\n  \n")
            protocol.write_message(stream, {"op": "ping", "id": 5})
            answer = protocol.read_message(stream)
            assert answer["id"] == 5 and answer["kind"] == "pong"


@contextlib.contextmanager
def impostor(greeting: bytes):
    """A listener that says ``greeting`` to one peer; yields its address
    and, after the block, whether the peer hung up (``[True]``)."""
    hung_up: list[bool] = []
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def greet():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                conn.sendall(greeting)
                hung_up.append(conn.recv(1) == b"")

        thread = threading.Thread(target=greet, daemon=True)
        thread.start()
        yield listener.getsockname(), hung_up
        thread.join(10)


class TestDial:
    def test_stop_worker_leaves_a_query_server_serving(self, graph):
        with QueryServer(graph, RunConfig(machines=2), threads=1) as server:
            assert stop_worker(server.address) is False
            time.sleep(0.2)  # a shutdown would have run by now
            assert not server._closed
            with connect(server.address, timeout=10) as client:
                assert client.ping()

    @pytest.mark.parametrize(
        "greeting", [b"garbage\n", b""], ids=["garbage", "silence"]
    )
    def test_stop_worker_is_false_for_garbage_or_silence(self, greeting):
        with impostor(greeting) as (address, hung_up):
            assert stop_worker(address, timeout=0.5) is False
        assert hung_up == [True]  # dial closed what it opened

    def test_connecting_to_a_shard_worker_says_what_answered(self):
        with ShardWorker() as worker:
            with pytest.raises(
                ServiceError,
                match="is a 'shard-worker' endpoint, not a query server",
            ):
                connect(worker.address, timeout=10)

    def test_a_version_mismatch_names_both_sides(self, graph, monkeypatch):
        with QueryServer(graph, RunConfig(machines=2), threads=1) as server:
            hello = server._hello()
            monkeypatch.setattr(server, "_hello", lambda: hello)
            monkeypatch.setattr(protocol, "PROTOCOL_VERSION", 0)
            with pytest.raises(
                ServiceError, match="mismatch at .*: server speaks 1, client 0"
            ):
                connect(server.address, timeout=10)


class TestOneWorkerMode:
    def test_the_pool_knob_is_gone(self):
        with pytest.raises(TypeError):
            ShardWorker(workers=2)
        with pytest.raises(SystemExit) as usage:
            cli_main(["worker", "--port", "0", "--workers", "2"])
        assert usage.value.code == 2

    def test_an_inline_workers_lines_read_as_they_did(self, graph):
        """hello, the ``stats`` reply and the announce / withdraw lines
        against literals captured at the parent of the PR that deleted
        the pool: ``workers`` is still said, and is 0."""
        ids = (graph.fingerprint().encode(), os.getpid())
        announced: list[bytes] = []
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(2)

            def registry():
                for _ in range(2):  # the announce, then the withdrawal
                    conn, _ = listener.accept()
                    with conn, conn.makefile("rwb") as stream:
                        protocol.write_message(
                            stream, {"kind": "hello", "version": 1}
                        )
                        announced.append(stream.readline())
                        protocol.write_message(stream, {"id": 1, "ok": True})

            thread = threading.Thread(target=registry, daemon=True)
            thread.start()
            with ShardWorker(
                graph=graph,
                announce=listener.getsockname(),
                announce_interval=60,
            ) as worker:
                at = b"%s:%d" % (worker.address[0].encode(), worker.address[1])
                with socket.create_connection(worker.address, 10) as sock:
                    stream = sock.makefile("rwb")
                    hello = stream.readline()
                    stream.write(b'{"op": "stats", "id": 2}\n')
                    stream.flush()
                    stats = stream.readline()
                deadline = time.monotonic() + 10
                while not announced and time.monotonic() < deadline:
                    time.sleep(0.01)
            thread.join(10)
        assert hello == (
            b'{"graphs": ["%s"], "kind": "hello", "ok": true, "pid": %d, '
            b'"role": "shard-worker", "version": 3, "workers": 0}\n' % ids
        )
        assert stats == (
            b'{"id": 2, "kind": "stats", "ok": true, "result": '
            b'{"connections": 1, "graphs": ["%s"], "partitions": 0, '
            b'"pid": %d, "tasks_served": 0, "workers": 0}}\n' % ids
        )
        assert announced == [
            b'{"address": "%s", "graphs": ["%s"], "id": 1, '
            b'"op": "announce", "pid": %d, "workers": 0}\n' % (at, *ids),
            b'{"address": "%s", "id": 1, "op": "announce", '
            b'"withdraw": true}\n' % at,
        ]


class TestDaemonCommands:
    """``repro serve`` and ``repro worker`` share their run loop; scripts
    and CI parse the two lines each prints."""

    @pytest.fixture()
    def path(self, graph, tmp_path) -> str:
        path = str(tmp_path / "g.npz")
        save_binary(graph, path)
        return path

    @staticmethod
    @contextlib.contextmanager
    def running(argv: list[str], capsys):
        """The command on a thread: yields its readiness line and a list
        that holds everything it printed once the block has stopped it."""
        seen: list[str] = []
        printed: list[str] = []
        thread = threading.Thread(target=cli_main, args=(argv,), daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        while "\n" not in "".join(seen) and time.monotonic() < deadline:
            seen.append(capsys.readouterr().out)
            time.sleep(0.02)
        yield "".join(seen).split("\n")[0], printed
        thread.join(10)
        assert not thread.is_alive()
        printed.append("".join(seen) + capsys.readouterr().out)

    def test_worker_prints_ready_then_stopped(self, graph, path, capsys):
        argv = ["worker", "--port", "0", "--graph", path]
        with self.running(argv, capsys) as (ready, printed):
            prefix = "worker serving on 127.0.0.1:"
            assert ready.startswith(prefix)
            port, _, held = ready[len(prefix):].partition(" ")
            assert held == f"graph {graph.fingerprint()[:12]}"
            assert stop_worker(int(port))
        assert printed == [f"{ready}\nworker stopped\n"]

    def test_serve_prints_ready_then_stopped(self, path, capsys):
        argv = ["serve", "--graph", path, "--port", "0", "--threads", "1"]
        with self.running(argv, capsys) as (ready, printed):
            prefix = f"serving {load_graph(path)} from {path} on 127.0.0.1:"
            assert ready.startswith(prefix)
            with connect(int(ready[len(prefix):]), timeout=10) as client:
                client.shutdown()
        assert printed == [f"{ready}\nserver stopped\n"]


@pytest.mark.parametrize("address, spelled", [
    ("h:7000", "h:7000"), (7001, "127.0.0.1:7001"), (("h", 7002), "h:7002"),
    ("::1:8000", "::1:8000"),
])
def test_format_address_inverts_parse_address(address, spelled):
    host, port = protocol.parse_address(address)
    assert protocol.format_address(host, port) == spelled
    assert protocol.parse_address(spelled) == (host, port)


def test_wait_until_serving_says_where_nothing_answered():
    with socket.socket() as unused:
        unused.bind(("127.0.0.1", 0))
        address = unused.getsockname()
    with pytest.raises(TimeoutError, match="nothing answering at"):
        repro.service.wait_until_serving(address, timeout=0.2)
