"""Straggler (heterogeneous CPU) simulation tests.

The paper motivates asynchrony with the synchronisation-delay argument:
synchronous systems run at the pace of the slowest machine.  These tests
check the simulator's speed-factor plumbing and that the asynchronous RADS
degrades more gracefully than the barrier-synchronised engines when one
machine is slowed down.
"""

import pytest

from repro.cluster import Cluster
from repro.cluster.costmodel import CostModel
from repro.cluster.machine import Machine
from repro.core.rads import RADSEngine
from repro.engines import SEEDEngine, SingleMachineEngine, TwinTwigEngine
from repro.graph import community_graph
from repro.query import named_patterns


class TestSpeedFactorPlumbing:
    def test_charge_ops_scales_with_speed(self):
        model = CostModel()
        fast, slow = Machine(0, model), Machine(1, model)
        fast.speed_factor, slow.speed_factor = 2.0, 0.5
        fast.charge_ops(1000)
        slow.charge_ops(1000)
        assert slow.clock == pytest.approx(4 * fast.clock)

    def test_daemon_clock_scales_too(self):
        model = CostModel()
        slow, ref = Machine(0, model), Machine(1, model)
        slow.speed_factor = 0.25
        slow.charge_daemon_ops(500)
        ref.charge_daemon_ops(500)
        assert slow.daemon_clock == pytest.approx(4 * ref.daemon_clock)

    def test_invalid_speed_factor(self, er_graph):
        cluster = Cluster.create(er_graph, 2)
        with pytest.raises(ValueError):
            cluster.set_speed_factor(0, 0.0)

    def test_cluster_setter_and_fresh_copy(self, er_graph):
        cluster = Cluster.create(er_graph, 4)
        cluster.set_speed_factor(2, 0.125)
        copy = cluster.fresh_copy()
        assert copy.machine(2).speed_factor == 0.125
        assert copy.machine(0).speed_factor == 1.0
        with pytest.raises(ValueError):
            cluster.set_speed_factor(0, -1.0)

    def test_reset_preserves_speed(self, er_graph):
        cluster = Cluster.create(er_graph, 3)
        cluster.set_speed_factor(1, 0.5)
        cluster.machine(1).charge_ops(100)
        cluster = cluster.fresh_copy()
        assert cluster.machine(1).speed_factor == 0.5
        assert cluster.machine(1).clock == 0.0

    def test_rpc_service_uses_responder_speed(self, er_graph):
        cluster = Cluster.create(er_graph, 2)
        baseline = cluster.fresh_copy()
        baseline.network.rpc(
            baseline.machine(0), baseline.machine(1),
            request_bytes=8, response_bytes=8, service_ops=1_000_000,
        )
        slowed = cluster.fresh_copy()
        slowed.set_speed_factor(1, 0.5)
        slowed.network.rpc(
            slowed.machine(0), slowed.machine(1),
            request_bytes=8, response_bytes=8, service_ops=1_000_000,
        )
        assert slowed.machine(0).clock > baseline.machine(0).clock


class TestStragglerDegradation:
    @pytest.fixture(scope="class")
    def dense_cluster(self):
        graph = community_graph(10, 12, intra_prob=0.5, inter_edges=3, seed=11)
        return Cluster.create(graph, 4)

    def _makespan(self, engine, cluster, pattern, slowdown):
        run_cluster = cluster.fresh_copy()
        if slowdown != 1.0:
            run_cluster.set_speed_factor(0, 1.0 / slowdown)
        result = engine.run(run_cluster, pattern, collect_embeddings=False)
        assert not result.failed
        return result.makespan

    def test_results_unchanged_by_straggler(self, dense_cluster):
        pattern = named_patterns()["q2"]
        expected = set(
            SingleMachineEngine()
            .run(dense_cluster.fresh_copy(), pattern)
            .embeddings
        )
        slowed = dense_cluster.fresh_copy()
        slowed.set_speed_factor(0, 0.125)
        result = RADSEngine().run(slowed, pattern)
        assert set(result.embeddings) == expected

    def test_async_degrades_less_than_sync(self, dense_cluster):
        """RADS (asynchronous, work stealing) absorbs a straggler better
        than the barrier-synchronised join engines: it stays fastest and
        pays the smallest absolute penalty."""
        pattern = named_patterns()["q4"]
        slowdown = 8.0
        makespans = {}
        penalties = {}
        for engine in (RADSEngine(), SEEDEngine(), TwinTwigEngine()):
            base = self._makespan(engine, dense_cluster, pattern, 1.0)
            slow = self._makespan(engine, dense_cluster, pattern, slowdown)
            makespans[engine.name] = slow
            penalties[engine.name] = slow - base
        assert makespans["RADS"] < makespans["SEED"]
        assert makespans["RADS"] < makespans["TwinTwig"]
        assert penalties["RADS"] < penalties["SEED"]
        assert penalties["RADS"] < penalties["TwinTwig"]

    def test_work_stealing_helps_under_straggler(self, dense_cluster):
        pattern = named_patterns()["q4"]
        with_stealing = RADSEngine(enable_work_stealing=True)
        without = RADSEngine(enable_work_stealing=False)
        slow_with = self._makespan(with_stealing, dense_cluster, pattern, 8.0)
        slow_without = self._makespan(without, dense_cluster, pattern, 8.0)
        assert slow_with <= slow_without
