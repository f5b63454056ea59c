"""Tests for the simulated cluster substrate."""

import numpy as np
import pytest

from repro.cluster import CostModel, Cluster, Machine, Network, SimulatedMemoryError
from repro.graph import erdos_renyi


@pytest.fixture()
def model():
    return CostModel()


class TestCostModel:
    def test_compute_time(self, model):
        assert model.compute_time(model.cpu_ops_per_s) == pytest.approx(1.0)

    def test_message_time_includes_latency(self, model):
        assert model.message_time(0) >= model.latency_s

    def test_embedding_bytes(self, model):
        assert model.embedding_bytes(5) == 40

    def test_adjacency_bytes(self, model):
        assert model.adjacency_bytes(10) == 88

    def test_disk_time(self, model):
        assert model.disk_time(model.disk_bandwidth_bytes_per_s) == pytest.approx(1.0)


class TestMachine:
    def test_charge_ops_advances_clock(self, model):
        m = Machine(0, model)
        m.charge_ops(model.cpu_ops_per_s)
        assert m.clock == pytest.approx(1.0)

    def test_daemon_clock_separate(self, model):
        m = Machine(0, model)
        m.charge_daemon_ops(model.cpu_ops_per_s)
        assert m.clock == 0.0
        assert m.finish_time == pytest.approx(1.0)

    def test_memory_tracking(self, model):
        m = Machine(0, model, memory_capacity=1000)
        m.allocate(600)
        m.free(200)
        assert m.memory_used == 400
        assert m.peak_memory == 600

    def test_oom(self, model):
        m = Machine(0, model, memory_capacity=1000)
        m.allocate(800)
        with pytest.raises(SimulatedMemoryError) as err:
            m.allocate(300)
        assert err.value.machine_id == 0

    def test_unlimited_memory(self, model):
        m = Machine(0, model)
        m.allocate(10**12)  # no capacity, no error
        assert m.peak_memory == 10**12


class TestNetwork:
    def test_rpc_charges_requester(self, model):
        net = Network(2, model)
        a, b = Machine(0, model), Machine(1, model)
        net.rpc(a, b, request_bytes=100, response_bytes=1000, service_ops=10)
        assert a.clock > 2 * model.latency_s
        assert b.clock == 0.0  # daemon served it
        assert b.daemon_clock > 0
        assert net.total_bytes == 1100

    def test_local_rpc_free(self, model):
        net = Network(2, model)
        a = Machine(0, model)
        net.rpc(a, a, 100, 100, service_ops=5)
        assert net.total_bytes == 0

    def test_shuffle_barrier(self, model):
        net = Network(3, model)
        machines = [Machine(i, model) for i in range(3)]
        machines[2].clock = 5.0  # the straggler
        payload = np.zeros((3, 3), dtype=np.int64)
        payload[0, 1] = 10**6
        net.shuffle(machines, payload)
        # Barrier: everyone waits for the slowest.
        assert machines[0].clock == machines[1].clock == machines[2].clock
        assert machines[0].clock >= 5.0

    def test_broadcast(self, model):
        net = Network(3, model)
        machines = [Machine(i, model) for i in range(3)]
        net.broadcast(machines[0], machines, nbytes=8)
        assert net.messages == 2


class TestCluster:
    def test_create_partitions_graph(self):
        g = erdos_renyi(100, 0.08, seed=1)
        cluster = Cluster.create(g, 4)
        assert cluster.num_machines == 4
        assert len(cluster.partition.owner) == 100

    def test_barrier(self):
        g = erdos_renyi(50, 0.1, seed=1)
        cluster = Cluster.create(g, 3)
        cluster.machine(1).advance(7.0)
        cluster.barrier()
        assert all(m.clock == 7.0 for m in cluster.machines)

    def test_makespan_includes_daemon(self):
        g = erdos_renyi(50, 0.1, seed=1)
        cluster = Cluster.create(g, 2)
        cluster.machine(0).charge_daemon_ops(cluster.cost_model.cpu_ops_per_s)
        assert cluster.makespan() == pytest.approx(1.0)

    def test_fresh_copy_shares_partition(self):
        g = erdos_renyi(50, 0.1, seed=1)
        cluster = Cluster.create(g, 2)
        cluster.machine(0).advance(3.0)
        fresh = cluster.fresh_copy()
        assert fresh.makespan() == 0.0
        assert fresh.partition is cluster.partition

    def test_reset(self):
        g = erdos_renyi(50, 0.1, seed=1)
        cluster = Cluster.create(g, 2)
        cluster.machine(0).advance(3.0)
        cluster.network.record(0, 1, 100)
        cluster = cluster.fresh_copy()
        assert cluster.makespan() == 0.0
        assert cluster.total_comm_bytes() == 0
