"""Focused tests for the R-Meef worker (trie maintenance, EVI, caching)."""

import sys

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.machine import SimulatedMemoryError
from repro.core.cache import ForeignVertexCache
from repro.core.embedding_trie import NODE_BYTES
from repro.core.rmeef import _NEVER, RMeefWorker, _Round
from repro.core.sme import SingleMachineSplit
from repro.engines import SingleMachineEngine
from repro.enumeration.block import first_diff
from repro.graph import erdos_renyi, grid_road_network, powerlaw_cluster
from repro.query import best_execution_plan, named_patterns
from repro.query.symmetry import symmetry_breaking_constraints


@pytest.fixture(scope="module")
def setting():
    graph = erdos_renyi(80, 0.1, seed=31)
    cluster = Cluster.create(graph, 4)
    return graph, cluster


def build_worker(cluster, pattern, machine_id, flush_threshold=4 << 20):
    plan = best_execution_plan(pattern)
    cons = symmetry_breaking_constraints(pattern)
    return (
        RMeefWorker(
            cluster, pattern, plan, cons, machine_id,
            ForeignVertexCache(), flush_threshold=flush_threshold,
        ),
        SingleMachineSplit(pattern, plan, cons),
    )


class TestWorkerCorrectness:
    @pytest.mark.parametrize("qname", ["q2", "q4", "q7", "cq3"])
    def test_all_machines_union_is_truth(self, setting, qname):
        graph, base = setting
        pattern = named_patterns()[qname]
        cluster = base.fresh_copy()
        expected = set(
            SingleMachineEngine().run(base.fresh_copy(), pattern).embeddings
        )
        found: list[tuple[int, ...]] = []
        for t in range(cluster.num_machines):
            worker, split = build_worker(cluster, pattern, t)
            local = cluster.partition.machine(t)
            sme = split.run(local, cluster.machine(t))
            found.extend(sme.embeddings)
            c1, c2 = split.split(local)
            found.extend(worker.process_group(c2))
        assert set(found) == expected
        assert len(found) == len(expected)

    def test_tiny_flush_threshold_still_correct(self, setting):
        """Streaming the final round in minimal chunks must not change
        results (only the verifyE batching granularity)."""
        graph, base = setting
        pattern = named_patterns()["q4"]
        expected = set(
            SingleMachineEngine().run(base.fresh_copy(), pattern).embeddings
        )
        cluster = base.fresh_copy()
        found = []
        for t in range(cluster.num_machines):
            worker, split = build_worker(
                cluster, pattern, t, flush_threshold=1
            )
            local = cluster.partition.machine(t)
            sme = split.run(local, cluster.machine(t))
            found.extend(sme.embeddings)
            _, c2 = split.split(local)
            found.extend(worker.process_group(c2))
        assert set(found) == expected

    def test_stolen_group_processed_remotely(self, setting):
        """A group of machine 1's candidates processed on machine 0 (the
        shareR path) yields exactly machine 1's distributed results."""
        graph, base = setting
        pattern = named_patterns()["q2"]
        cluster = base.fresh_copy()
        _, split = build_worker(cluster, pattern, 1)
        local1 = cluster.partition.machine(1)
        _, group = split.split(local1)
        home_worker, _ = build_worker(base.fresh_copy(), pattern, 1)
        thief_worker, _ = build_worker(cluster, pattern, 0)
        home = home_worker.process_group(group)
        stolen = thief_worker.process_group(group)
        assert set(stolen) == set(home)

    def test_memory_returns_to_baseline(self, setting):
        """After a group completes, only cache bytes stay allocated."""
        graph, base = setting
        pattern = named_patterns()["q4"]
        cluster = base.fresh_copy()
        worker, split = build_worker(cluster, pattern, 0)
        local = cluster.partition.machine(0)
        _, c2 = split.split(local)
        worker.process_group(c2)
        machine = cluster.machine(0)
        assert machine.memory_used == worker._cache.bytes_used

    def test_count_only(self, setting):
        graph, base = setting
        pattern = named_patterns()["q2"]
        cluster = base.fresh_copy()
        worker, split = build_worker(cluster, pattern, 0)
        _, c2 = split.split(cluster.partition.machine(0))
        collected = worker.process_group(c2, collect=True)
        cluster2 = base.fresh_copy()
        worker2, split2 = build_worker(cluster2, pattern, 0)
        _, c2b = split2.split(cluster2.partition.machine(0))
        empty = worker2.process_group(c2b, collect=False)
        assert empty == []
        assert worker2.last_group_count == len(collected)


class TestStarvedCache:
    def test_single_entry_cache_still_correct(self, setting):
        """Regression: a cache smaller than a fetch batch must not drop
        start candidates (they are re-fetched on demand)."""
        graph, base = setting
        pattern = named_patterns()["q2"]
        cluster = base.fresh_copy()
        plan_worker, split = build_worker(cluster, pattern, 0)
        local1 = cluster.partition.machine(1)
        _, group = split.split(local1)
        # Stolen group (all-foreign candidates) + one-entry cache.
        from repro.query import best_execution_plan
        from repro.query.symmetry import symmetry_breaking_constraints

        plan = best_execution_plan(pattern)
        cons = symmetry_breaking_constraints(pattern)
        starved = RMeefWorker(
            cluster, pattern, plan, cons, 0, ForeignVertexCache(0)
        )
        roomy = RMeefWorker(
            base.fresh_copy(), pattern, plan, cons, 0, ForeignVertexCache()
        )
        assert set(starved.process_group(group)) == set(
            roomy.process_group(group)
        )


class TestWorkerCommunication:
    def test_cache_prevents_refetch(self, setting):
        graph, base = setting
        pattern = named_patterns()["q4"]
        cluster = base.fresh_copy()
        worker, split = build_worker(cluster, pattern, 0)
        _, c2 = split.split(cluster.partition.machine(0))
        if not c2:
            pytest.skip("no distributed candidates on this partition")
        worker.process_group(c2)
        bytes_first = cluster.total_comm_bytes()
        worker.process_group(c2)  # same group again: everything cached
        bytes_second = cluster.total_comm_bytes() - bytes_first
        assert bytes_second < bytes_first or bytes_first == 0

    def test_daemon_serves_requests(self, setting):
        """Remote fetch/verify service lands on daemon clocks, not main."""
        graph, base = setting
        pattern = named_patterns()["q4"]
        cluster = base.fresh_copy()
        worker, split = build_worker(cluster, pattern, 0)
        _, c2 = split.split(cluster.partition.machine(0))
        worker.process_group(c2)
        remote_daemons = sum(
            m.daemon_clock for m in cluster.machines if m.machine_id != 0
        )
        if cluster.total_comm_bytes() > 0:
            assert remote_daemons > 0


class TestCacheCharging:
    def test_entry_is_charged_before_it_is_cached(self):
        """Regression: a `fetchV` whose cache allocation raises must not
        leave the vertex cached but uncharged — the split-and-retry would
        see it as known for free, and its eviction would release bytes
        that were never allocated."""
        graph = powerlaw_cluster(60, 3, 0.3, seed=7)
        cluster = Cluster.create(graph, 4, memory_capacity=int(0.01 * 2**20))
        worker, _ = build_worker(cluster, named_patterns()["q2"], 0)
        machine, cache = cluster.machine(0), worker._cache
        foreign = [
            v for v in graph.vertices()
            if not cluster.partition.machine(0).is_owned(v)
        ][:3]
        machine.allocate(machine.memory_capacity - 40)
        with pytest.raises(SimulatedMemoryError):
            worker._fetch_vertices(foreign)
        # Whatever fitted was charged; the one that did not is not cached.
        assert machine.counters["cache_bytes"] == cache.bytes_used
        assert cache.bytes_used == sum(
            ForeignVertexCache.entry_bytes(graph.neighbors(v)) for v in cache._entries
        )
        assert machine.memory_used == machine.memory_capacity - 40 + cache.bytes_used


class TestTrieTimeline:
    """The accounting the block kernel rebuilds: release cascades and the
    16 KiB charging step."""

    @staticmethod
    def release(setting, frontier, leaves, leaf_rows, segment, when, closes):
        worker, _ = build_worker(setting[1].fresh_copy(), named_patterns()["q2"], 0)
        frontier, leaves = np.array(frontier), np.array(leaves)
        state = _Round(
            frontier, np.concatenate((first_diff(frontier), [0, 0])), None,
            rooted=frontier.shape[1] == 1, final=True, width=leaves.shape[1],
        )
        entries = np.zeros(len(leaves), dtype=np.int64)
        worker._release(
            state, entries, leaves, np.array(leaf_rows), np.array(segment),
            np.array(when), np.array(closes),
        )
        return entries.tolist()

    PAPER = [(0, 1, 2), (0, 1, 9), (0, 9, 11)]  # Example 6 / Fig. 5

    def test_each_ancestor_goes_with_its_last_leaf(self, setting):
        got = self.release(setting, [[0]], self.PAPER, [0, 0, 0], [0, 0, 0], [0, 1, 2], [0])
        # 2 alone; 9 takes node 1; 11 takes node 9 and the root: 6 nodes.
        assert got == [-1, -2, -3]

    def test_release_order_moves_the_cascade(self, setting):
        got = self.release(setting, [[0]], self.PAPER, [0, 0, 0], [0, 0, 0], [2, 0, 1], [0])
        # (0, 1, 2) goes last and takes node 1 and the root with it.
        assert got == [-1, -2, -3]
        got = self.release(setting, [[0]], self.PAPER, [0, 0, 0], [0, 0, 0], [1, 2, 0], [0])
        assert got == [-2, -1, -3]

    def test_a_later_frontier_row_keeps_shared_ancestors(self, setting):
        leaves, rows = [(0, 1, 2), (0, 1, 9)], [0, 0]
        got = self.release(setting, [[0, 1], [0, 9]], leaves, rows, [0, 0], [0, 1], [0])
        assert got == [-1, -2]  # row (0, 1) goes, root 0 still has (0, 9)
        got = self.release(setting, [[0, 1], [5, 9]], leaves, rows, [0, 0], [0, 1], [0])
        assert got == [-1, -3]

    def test_a_surviving_leaf_pins_its_ancestors(self, setting):
        got = self.release(
            setting, [[0]], self.PAPER, [0, 0, 0], [0, 0, 0], [_NEVER, 0, 1], [0]
        )
        assert got[:2] == [-1, -2]  # 9, then 11 with node 9; node 1 and root stay

    def test_trie_bytes_reach_the_machine_in_16k_steps(self, setting):
        cluster = setting[1].fresh_copy()
        worker, _ = build_worker(cluster, named_patterns()["q2"], 0)
        machine = cluster.machine(0)
        worker._feed(np.ones(682, dtype=np.int64))
        assert machine.memory_used == 0  # 16 368 B: under the step
        worker._feed(np.ones(1, dtype=np.int64))
        assert machine.memory_used == 683 * NODE_BYTES
        worker._feed(np.array([-300, -382, 5, -1]))
        assert machine.memory_used == 683 * NODE_BYTES  # -682 nodes: held back
        worker._feed(np.array([-5]))
        assert machine.memory_used == 0
        assert worker._trie_delta == worker._trie_charged == 0


class TestChunkCost:
    """What a chunk pays besides expansion: counted, not timed.

    A chunk's accounting is two sums unless the 16 KiB hysteresis can be
    reached inside it; the entry timeline (``_place`` / ``_release``) is
    built only there.
    """

    #: Calls per ``_chunk`` outside ``_expand`` measured on the commit
    #: before the closed-form sums, when every chunk built its timeline.
    TIMELINE_EVERYWHERE = {"q1": 11465 / 36, "q4": 15917 / 34}

    @staticmethod
    def _profile(graph, qname: str, memory_mb=None) -> dict[str, float]:
        """``sys.setprofile`` counts of one RADS run, after a warm one."""
        from repro.core.rads import RADSEngine

        chunk, expand = RMeefWorker._chunk.__code__, RMeefWorker._expand.__code__
        depth = {chunk: 0, expand: 0}
        seen = {"chunks": 0, "calls": 0, "_place": 0, "_release": 0}

        def tick(frame, event, arg):
            code = frame.f_code
            if event in ("call", "return") and code in depth:
                depth[code] += 1 if event == "call" else -1
                seen["chunks"] += event == "call" and code is chunk
            elif event in ("call", "c_call") and depth[chunk] and not depth[expand]:
                seen["calls"] += 1
                if event == "call" and code.co_name in seen:
                    seen[code.co_name] += 1

        capacity = None if memory_mb is None else int(memory_mb * 2**20)
        base = Cluster.create(graph, 4, memory_capacity=capacity)

        def run():
            RADSEngine().run(
                base.fresh_copy(), named_patterns()[qname], collect_embeddings=False
            )

        run()  # warm: imports and numpy's dispatch caches
        sys.setprofile(tick)
        try:
            run()
        finally:
            sys.setprofile(None)
        seen["per_chunk"] = seen["calls"] / seen["chunks"]
        return seen

    @pytest.mark.parametrize("qname", ["q1", "q4"])
    def test_a_road_grid_chunk_pays_for_two_sums_not_a_timeline(self, qname):
        graph = grid_road_network(62, 62, extra_edge_prob=0.04, seed=0)
        seen = self._profile(graph, qname)
        print(f"{qname}: {seen}")
        assert seen["chunks"] > 20
        assert seen["_place"] == seen["_release"] == 0
        assert seen["per_chunk"] <= 0.6 * self.TIMELINE_EVERYWHERE[qname]

    def test_the_order_path_stays_exercised(self):
        seen = self._profile(powerlaw_cluster(40, 5, 0.3, seed=5), "q4", memory_mb=0.25)
        assert seen["_place"] > 0 and seen["_release"] > 0
