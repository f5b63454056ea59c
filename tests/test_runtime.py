"""Unit tests for the execution-backend subsystem (repro.runtime).

Task functions live at module level so the process backend can pickle
them by reference.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.machine import SimulatedMemoryError
from repro.core.rads import RADSEngine
from repro.distributed import ShardWorker, SocketExecutor
from repro.engines import TwinTwigEngine
from repro.graph import erdos_renyi
from repro.query import named_patterns
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    SharedGraph,
    WorkerCrashError,
    get_executor,
)


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
    """Read the shared graph inside a worker."""
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


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_cluster():
    return Cluster.create(erdos_renyi(80, 0.08, seed=11), 4)


@pytest.fixture(scope="module")
def pool2():
    with ProcessExecutor(2) as executor:
        yield executor


class TestSharedGraph:
    def test_round_trip(self, small_cluster):
        graph = small_cluster.graph
        shared = SharedGraph(graph)
        try:
            rebuilt, blocks = shared.handle.attach()
            assert rebuilt.num_vertices == graph.num_vertices
            assert rebuilt.num_edges == graph.num_edges
            assert np.array_equal(rebuilt.indptr, graph.indptr)
            assert np.array_equal(rebuilt.indices, graph.indices)
            for v in (0, 17, graph.num_vertices - 1):
                assert np.array_equal(rebuilt.neighbors(v), graph.neighbors(v))
            del rebuilt, blocks
        finally:
            shared.close()

    def test_attached_views_are_read_only(self, small_cluster):
        shared = SharedGraph(small_cluster.graph)
        try:
            rebuilt, blocks = shared.handle.attach()
            with pytest.raises(ValueError):
                rebuilt.indices[0] = 99
            del rebuilt, blocks
        finally:
            shared.close()

    def test_close_is_idempotent(self, small_cluster):
        shared = SharedGraph(small_cluster.graph)
        shared.close()
        shared.close()

    def test_worker_reads_graph_through_shared_memory(
        self, small_cluster, pool2
    ):
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

    def test_worker_crash_is_surfaced_and_pool_recovers(self, small_cluster):
        with ProcessExecutor(2) as executor:
            with pytest.raises(WorkerCrashError):
                executor.run_tasks(
                    small_cluster.fresh_copy(), crash_task, [0]
                )
            # A fresh pool is spun up transparently for the next batch.
            payloads = executor.run_tasks(
                small_cluster.fresh_copy(), charge_task, [(0, 1)]
            )
            assert payloads == [(0, 1)]


class TestBackendSelection:
    def test_get_executor(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor(0), SerialExecutor)
        parallel = get_executor(3)
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
