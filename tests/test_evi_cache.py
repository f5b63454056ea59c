"""Tests for the edge verification index (Def. 5, as R-Meef's block verify
holds it) and the foreign-vertex cache."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.costmodel import CostModel
from repro.core.cache import ForeignVertexCache
from repro.core.rmeef import _NEVER, RMeefWorker
from repro.graph import Graph
from repro.partition.partition import GraphPartition
from repro.query import best_execution_plan
from repro.query.patterns import triangle


class TestEVI:
    """A star around vertex 0 on machine 0; its neighbours 1, 2 live on
    machine 1 and 3, 4 on machine 2, so every leaf-leaf edge of a triangle
    rooted at 0 is undetermined there.  Only (1, 2) and (3, 4) exist."""

    N = 5

    @pytest.fixture()
    def worker(self):
        graph = Graph.from_edges(
            self.N, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
        )
        partition = GraphPartition(graph, np.array([0, 1, 1, 2, 2]))
        cluster = Cluster(partition, CostModel(), None)
        pattern = triangle()
        # No symmetry breaking: both orientations of every pair show up.
        return RMeefWorker(
            cluster, pattern, best_execution_plan(pattern), [], 0,
            ForeignVertexCache(),
        )

    def key(self, a, b):
        return min(a, b) * self.N + max(a, b)

    def pieces(self, *edge_lists):
        """One piece: leaf ``i`` depends on the edges of ``edge_lists[i]``."""
        width = max(map(len, edge_lists))
        pending = np.full((len(edge_lists), width), -1, dtype=np.int64)
        for i, edges in enumerate(edge_lists):
            pending[i, :len(edges)] = [self.key(*e) for e in edges]
        leaves = np.zeros((len(edge_lists), 3), dtype=np.int64)
        return [(leaves, np.zeros(len(edge_lists), dtype=np.int64), pending)]

    @staticmethod
    def verify(worker, pieces, segment):
        """``(requests per segment, release rank per leaf or -1)``: the
        failed mask of ``_verify`` and, as a chunk that builds its timeline
        orders them, the failed leaves' places within their segment."""
        rpcs = []
        failed, missed = worker._verify(pieces, segment, rpcs)
        worst = worker._release_rank(missed, len(segment))
        assert (worst < _NEVER).tolist() == failed.tolist()
        turn = np.empty(len(segment), dtype=np.int64)
        turn[np.lexsort((worst, segment))] = np.arange(len(segment))
        return dict(rpcs), np.where(failed, turn - np.searchsorted(segment, segment), -1)

    def test_shared_edge_groups_ecs(self, worker):
        """Def. 5: ECs sharing an undetermined edge live under one key —
        (5, 9) and (9, 5) are the same edge, asked once."""
        found = worker.process_group([0])
        assert sorted(found) == [(0, 1, 2), (0, 2, 1), (0, 3, 4), (0, 4, 3)]
        network = worker._cluster.network
        # 12 candidate rows, 6 distinct edges: five whose smaller endpoint
        # machine 1 owns, one for machine 2; one round trip each.
        assert network.messages == 4
        assert network.bytes_sent[0].tolist() == [0, 5 * 16, 1 * 16]
        assert network.bytes_sent[:, 0].tolist() == [0, 5, 1]

    def test_failed_leaves_dedup(self, worker):
        """A leaf that depends on two failed edges is released once; a
        failed edge takes every leaf that depends on it."""
        _, rank = self.verify(
            worker, self.pieces([(1, 3), (2, 3)], [(2, 3)], [(1, 2)]),
            np.zeros(3, dtype=np.int64),
        )
        assert rank.tolist() == [0, 1, -1]

    def test_group_by_machine(self, worker):
        """One request per owner of the smaller endpoint, and failed leaves
        leave in (owner, first registration, row) order."""
        rpcs, rank = self.verify(
            worker, self.pieces([(3, 2)], [(1, 4)], [(2, 3)], [(1, 3)], [(3, 4)]),
            np.zeros(5, dtype=np.int64),
        )
        # (2, 3) -> machine 1, first registered by leaf 0 and shared with
        # leaf 2; (1, 4), (1, 3) -> machine 1; (3, 4) -> machine 2, exists.
        assert rpcs == {0: [(1, 3), (2, 1)]}
        assert rank.tolist() == [0, 2, 1, 3, -1]

    def test_contains_and_clear(self, worker):
        """Keys are orientation-free, and every emit segment starts from an
        empty index: the same edge is asked again in the next segment."""
        assert self.key(4, 2) == self.key(2, 4)
        rpcs, rank = self.verify(
            worker, self.pieces([(2, 4)], [(4, 2)], [(2, 4)]), np.array([0, 0, 1])
        )
        assert rpcs == {0: [(1, 1)], 1: [(1, 1)]}
        assert rank.tolist() == [0, 1, 0]


class TestForeignVertexCache:
    def test_put_get(self):
        cache = ForeignVertexCache()
        adj = np.array([1, 2, 3], dtype=np.int64)
        cache.put(7, adj)
        assert 7 in cache
        assert cache.peek(7) is adj
        assert cache.peek(3) is None
        assert cache.vertices() == [7]

    def test_eviction_under_budget(self):
        cache = ForeignVertexCache(budget_bytes=100)
        a = np.arange(5, dtype=np.int64)   # 48 bytes
        b = np.arange(5, dtype=np.int64)
        c = np.arange(5, dtype=np.int64)
        cache.put(1, a)
        cache.put(2, b)
        evicted = cache.put(3, c)  # must evict the oldest (1)
        assert evicted == ForeignVertexCache.entry_bytes(a)
        assert 1 not in cache and 2 in cache and 3 in cache
        assert cache.evictions == 1

    def test_make_room_then_put_evicts_once(self):
        """The charge-first protocol: make room, pay, then insert."""
        cache = ForeignVertexCache(budget_bytes=100)
        for v in (1, 2):
            cache.put(v, np.arange(5, dtype=np.int64))
        assert cache.make_room(48) == [1]
        assert cache.put(3, np.arange(5, dtype=np.int64)) == 0
        assert cache.vertices() == [2, 3]

    def test_budget_respected(self):
        cache = ForeignVertexCache(budget_bytes=200)
        for v in range(20):
            cache.put(v, np.arange(4, dtype=np.int64))
        assert cache.bytes_used <= 200

    def test_duplicate_put_free(self):
        cache = ForeignVertexCache()
        adj = np.arange(3, dtype=np.int64)
        cache.put(1, adj)
        before = cache.bytes_used
        assert cache.put(1, adj) == 0
        assert cache.bytes_used == before

    def test_clear(self):
        cache = ForeignVertexCache()
        cache.put(1, np.arange(10, dtype=np.int64))
        released = cache.clear()
        assert released > 0
        assert len(cache) == 0 and cache.bytes_used == 0


class TestEvictionPolicies:
    def test_fifo_evicts_oldest_even_if_hot(self):
        # Three single-neighbour entries of 16 bytes each.
        cache = ForeignVertexCache(budget_bytes=48)
        for v in (1, 2, 3):
            cache.put(v, np.array([v + 10], dtype=np.int64))
        cache.peek(1)  # hot, but first in is first out
        cache.put(4, np.array([14], dtype=np.int64))
        assert 1 not in cache
        assert 2 in cache and 3 in cache and 4 in cache
