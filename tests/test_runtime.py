"""Unit tests for the execution-backend subsystem (repro.runtime).

Task functions live at module level so the process backend can pickle
them by reference.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.api import RunConfig
from repro.cluster import Cluster
from repro.cluster.machine import SimulatedMemoryError
from repro.core import rads
from repro.core.rads import RADSEngine
from repro.distributed import executor as dexecutor
from repro.distributed import (
    DistributedError,
    ProcessExecutor,
    ShardWorker,
    SocketExecutor,
    stop_worker,
)
from repro.distributed import protocol as dproto
from repro.engines import TwinTwigEngine
from repro.graph import erdos_renyi
from repro.query import named_patterns
from repro.runtime import SerialExecutor


# ----------------------------------------------------------------------
# Task functions (must be importable from workers)
# ----------------------------------------------------------------------
def charge_task(cluster, args):
    """Charge machine ``t`` some ops/memory/network; return a payload."""
    t, ops = args
    machine = cluster.machine(t)
    machine.charge_ops(float(ops), "test_ops")
    machine.allocate(100 * (t + 1), "test_bytes")
    machine.free(40 * (t + 1))
    if t > 0:
        cluster.network.rpc(
            requester=machine,
            responder=cluster.machine(0),
            request_bytes=8,
            response_bytes=64,
            service_ops=2.0,
        )
    return t, ops


def graph_probe_task(cluster, args):
    """Read the graph inside a worker."""
    v = args
    return int(cluster.graph.degree(v)), [
        int(w) for w in cluster.graph.neighbors(v)
    ]


def oom_task(cluster, args):
    """Machine ``t`` does some work, then runs out of memory; task 0
    instead returns a payload no wire can carry."""
    t = args
    cluster.machine(t).charge_ops(5.0, "pre_oom_ops")
    if t == 0:
        return threading.Lock()
    cluster.machine(t).allocate(1 << 40, "huge")
    return t


def crash_task(cluster, args):
    os._exit(13)


def pid_task(cluster, args):
    return os.getpid()


def refuse_to_bind(**kwargs):
    raise OSError("no port for this worker")


def _child_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


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


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_cluster():
    return Cluster.create(erdos_renyi(80, 0.08, seed=11), 4)


@pytest.fixture(scope="module")
def pool2():
    with ProcessExecutor(2) as executor:
        yield executor


class TestWorkerGraph:
    def test_task_reads_the_worker_graph(self, small_cluster, pool2):
        """A task reads the graph its worker holds."""
        graph = small_cluster.graph
        for v in (3, 40):
            degree, neighbors = pool2.run_tasks(
                small_cluster.fresh_copy(), graph_probe_task, [v]
            )[0]
            assert degree == graph.degree(v)
            assert neighbors == [int(w) for w in graph.neighbors(v)]


class TestDeterministicMerge:
    TASKS = [(0, 10), (1, 20), (2, 5), (3, 40)]

    def _run(self, cluster, executor):
        fresh = cluster.fresh_copy()
        payloads = executor.run_tasks(fresh, charge_task, self.TASKS)
        return payloads, fresh

    def test_payloads_keep_submission_order(self, small_cluster, pool2):
        payloads, _ = self._run(small_cluster, pool2)
        assert payloads == self.TASKS

    def test_backends_merge_identically(self, small_cluster, pool2):
        serial_payloads, serial = self._run(small_cluster, SerialExecutor())
        parallel_payloads, parallel = self._run(small_cluster, pool2)
        assert serial_payloads == parallel_payloads
        for ms, mp in zip(serial.machines, parallel.machines):
            assert ms.clock == mp.clock
            assert ms.daemon_clock == mp.daemon_clock
            assert ms.memory_used == mp.memory_used
            assert ms.peak_memory == mp.peak_memory
            assert ms.counters == mp.counters
        assert np.array_equal(
            serial.network.bytes_sent, parallel.network.bytes_sent
        )
        assert serial.network.messages == parallel.network.messages

    def test_repeated_batches_are_stable(self, small_cluster, pool2):
        _, first = self._run(small_cluster, pool2)
        _, second = self._run(small_cluster, pool2)
        assert [m.clock for m in first.machines] == [
            m.clock for m in second.machines
        ]


@pytest.fixture(scope="module")
def shard():
    """One in-process shard worker (serial task execution)."""
    worker = ShardWorker().start()
    yield worker
    worker.close()


@pytest.fixture(params=["serial", "process", "socket"])
def backend(request, pool2):
    if request.param == "serial":
        yield SerialExecutor()
    elif request.param == "process":
        yield pool2
    else:
        shard = request.getfixturevalue("shard")
        with SocketExecutor([shard.address], heartbeat_interval=None) as ex:
            yield ex


class TestFailurePropagation:
    def test_oom_surfaces_with_partial_state(self, small_cluster, backend):
        capped = Cluster(small_cluster.partition, small_cluster.cost_model, 1024)
        with pytest.raises(SimulatedMemoryError) as excinfo:
            backend.run_tasks(capped, oom_task, [1, 2])
        assert excinfo.value.machine_id == 1
        # The failing task's work up to the OOM is merged (serial parity);
        # the second task never happened as far as the cluster is concerned.
        assert capped.machine(1).counters["pre_oom_ops"] == 5
        assert capped.machine(2).counters["pre_oom_ops"] == 0
        if backend.parallel:
            # A transport error at task 0 merges nothing and wins over
            # task 1's OOM, whose partial delta is discarded.
            capped = Cluster(
                small_cluster.partition, small_cluster.cost_model, 1024
            )
            with pytest.raises(Exception) as excinfo:
                backend.run_tasks(capped, oom_task, [0, 1])
            assert not isinstance(excinfo.value, SimulatedMemoryError)
            assert capped.machine(0).counters["pre_oom_ops"] == 0
            assert capped.machine(1).counters["pre_oom_ops"] == 0

    def test_oom_in_serial_matches(self, small_cluster):
        capped = Cluster(small_cluster.partition, small_cluster.cost_model, 1024)
        with pytest.raises(SimulatedMemoryError):
            SerialExecutor().run_tasks(capped, oom_task, [1, 2])
        assert capped.machine(1).counters["pre_oom_ops"] == 5
        assert capped.machine(2).counters["pre_oom_ops"] == 0


class TestBackendSelection:
    def test_get_executor(self):
        assert isinstance(RunConfig().make_executor(), SerialExecutor)
        parallel = RunConfig(workers=3).make_executor()
        try:
            assert isinstance(parallel, ProcessExecutor)
            assert parallel.workers == 3
        finally:
            parallel.close()

    def test_process_executor_uses_multiple_processes(
        self, small_cluster, pool2
    ):
        pids = set(
            pool2.run_tasks(
                small_cluster.fresh_copy(), pid_task, list(range(8))
            )
        )
        assert os.getpid() not in pids


class TestRunResultParity:
    """Serial and process backends agree on every RunResult field.

    RADS runs with work stealing disabled: reactive stealing is schedule
    driven, so only the steal-free configuration is defined to match the
    serial clock interleaving bit for bit.  The join engines are barrier
    synchronised and match as-is.
    """

    @pytest.mark.parametrize("query", ["q1", "q4"])
    @pytest.mark.parametrize(
        "make_engine",
        [
            lambda: RADSEngine(enable_work_stealing=False),
            TwinTwigEngine,
        ],
        ids=["RADS-nosteal", "TwinTwig"],
    )
    def test_parity(self, small_cluster, pool2, make_engine, query):
        pattern = named_patterns()[query]
        serial = make_engine().run(
            small_cluster.fresh_copy(), pattern, collect_embeddings=False
        )
        parallel = make_engine().run(
            small_cluster.fresh_copy(), pattern,
            collect_embeddings=False, executor=pool2,
        )
        assert serial.embedding_count == parallel.embedding_count
        assert serial.makespan == parallel.makespan
        assert serial.total_comm_bytes == parallel.total_comm_bytes
        assert serial.peak_memory == parallel.peak_memory
        assert serial.per_machine_time == parallel.per_machine_time
        assert serial.counters == parallel.counters
        assert serial.failed == parallel.failed


class TestLocalWorkerFaults:
    """The process backend's workers fail like any shard worker.

    Losing one is a ``distributed.lost_workers`` and a resubmit, with
    serial-identical results; losing all of them raises
    :class:`DistributedError`, and the session starts fresh ones for the
    next run.  ``close()`` leaves no child process behind.
    """

    @staticmethod
    def _session(graph, backend: str):
        return (
            repro.open(graph).with_cluster(machines=4)
            .backend(backend, workers=2).engine("rads").query("q4")
        )

    def test_losing_one_local_worker_resubmits(self, er_graph):
        serial = self._session(er_graph, "serial").run()
        before = _child_pids()
        with self._session(er_graph, "process") as session:
            assert _stats(session.run()) == _stats(serial)
            mine = [
                child for child in multiprocessing.active_children()
                if child.pid not in before
            ]
            assert mine
            mine[0].kill()
            mine[0].join(timeout=5)
            recovered = session.run()
        assert recovered.embedding_count == serial.embedding_count
        assert recovered.makespan == serial.makespan
        assert recovered.total_comm_bytes == serial.total_comm_bytes
        assert recovered.counters["distributed.lost_workers"] == 1
        assert recovered.counters["distributed.resubmits"] > 0

    def test_losing_every_local_worker_raises_then_session_recovers(
        self, er_graph, monkeypatch
    ):
        serial = self._session(er_graph, "serial").run()
        with self._session(er_graph, "process") as session:
            session.run()
            executor = session._executor
            # Every worker a phase-1 task reaches dies with it.
            monkeypatch.setattr(rads, "_phase1_task", crash_task)
            with pytest.raises(DistributedError):
                session.run()
            monkeypatch.undo()
            assert executor._coordinator.counters[
                "distributed.lost_workers"
            ] == 2
            assert _stats(session.run()) == _stats(serial)

    def test_close_leaves_no_worker_behind(self, small_cluster):
        before = _child_pids()
        executor = ProcessExecutor(4)
        executor.run_tasks(
            small_cluster.fresh_copy(), pid_task, list(range(8))
        )
        mine = _child_pids() - before
        assert mine
        started = time.perf_counter()
        executor.close()
        elapsed = time.perf_counter() - started
        executor.close()
        assert elapsed < 1.0
        assert not mine & _child_pids()
        for pid in mine:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
    def test_a_worker_outlives_no_parent_killed_outright(self):
        """SIGKILL skips ``close()``: the orphaned worker stops itself."""
        parent = subprocess.Popen(
            [sys.executable, "-c", (
                "import time; from repro.distributed import ProcessExecutor; "
                "e = ProcessExecutor(1); print(e._children[0].pid, flush=True); "
                "time.sleep(60)"
            )],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        worker = int(parent.stdout.readline())
        parent.send_signal(signal.SIGKILL)
        parent.wait()

        def running() -> bool:  # gone, or a zombie nobody has reaped yet
            try:
                with open(f"/proc/{worker}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 5
        while running() and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = running()
        if alive:
            os.kill(worker, signal.SIGKILL)
        assert not alive

    def test_a_foreign_connection_is_refused(self, small_cluster, pool2):
        """Only the forking parent holds the key its workers ask for."""
        for shard in pool2._coordinator.live_shards():
            assert not stop_worker(shard.address)
            with socket.create_connection(shard.address, timeout=10) as sock:
                rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
                assert dproto.read_message(rfile)["challenge"]
                for op in ("task", "shutdown"):
                    dproto.write_message(wfile, {"op": op, "id": 1})
                    answer = dproto.read_message(rfile)
                    assert not answer["ok"] and "auth" in answer["error"]
        assert len(pool2._coordinator.live_shards()) == 2
        pids = pool2.run_tasks(small_cluster.fresh_copy(), pid_task, [0, 1])
        assert os.getpid() not in pids

    def test_a_long_task_is_not_a_hung_worker(self, pool2):
        """Local workers have no task timeout: a dead one is an EOF."""
        assert pool2._coordinator.task_timeout is None
        for shard in pool2._coordinator.live_shards():
            assert shard.sock.gettimeout() is None

    def test_workers_inherit_the_graph(self, small_cluster):
        graph = small_cluster.graph
        with ProcessExecutor(2, graph=graph) as executor:
            for shard in executor._coordinator.live_shards():
                assert shard.hello["graphs"] == [graph.fingerprint()]
            degree, neighbors = executor.run_tasks(
                small_cluster.fresh_copy(), graph_probe_task, [3]
            )[0]
        assert degree == graph.degree(3)
        assert neighbors == [int(w) for w in graph.neighbors(3)]

    def test_a_worker_that_cannot_start_raises(self, monkeypatch):
        before = _child_pids()
        # The forked child inherits the patch and dies before reporting.
        monkeypatch.setattr(dexecutor, "ShardWorker", refuse_to_bind)
        with pytest.raises(DistributedError, match="did not start"):
            ProcessExecutor(2)
        assert not _child_pids() - before
