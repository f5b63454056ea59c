"""Tests for partitioners and partition views (border vertices/distances)."""

import numpy as np
import pytest

from repro.graph import Graph, erdos_renyi, grid_road_network
from repro.partition import (
    GraphPartition,
    HashPartitioner,
    MetisLikePartitioner,
    edge_cut,
    partition_balance,
)


@pytest.fixture(scope="module")
def grid():
    return grid_road_network(16, 16, extra_edge_prob=0.05, seed=2)


class TestHashPartitioner:
    def test_assignment_range(self, grid):
        owner = HashPartitioner().assign(grid, 4)
        assert owner.min() >= 0 and owner.max() < 4

    def test_roughly_balanced(self, grid):
        owner = HashPartitioner().assign(grid, 4)
        assert partition_balance(owner, 4) < 1.3

    def test_needs_machine(self, grid):
        with pytest.raises(ValueError):
            HashPartitioner().assign(grid, 0)


class TestMetisLikePartitioner:
    def test_balanced(self, grid):
        owner = MetisLikePartitioner(seed=0).assign(grid, 4)
        assert partition_balance(owner, 4) < 1.35

    def test_locality_beats_hash(self, grid):
        metis_owner = MetisLikePartitioner(seed=0).assign(grid, 4)
        hash_owner = HashPartitioner().assign(grid, 4)
        assert edge_cut(grid, metis_owner) < 0.5 * edge_cut(grid, hash_owner)

    def test_single_machine(self, grid):
        owner = MetisLikePartitioner().assign(grid, 1)
        assert (owner == 0).all()

    def test_all_machines_used(self, grid):
        owner = MetisLikePartitioner(seed=1).assign(grid, 6)
        assert set(np.unique(owner)) == set(range(6))

    def test_works_on_random_graph(self):
        g = erdos_renyi(200, 0.05, seed=4)
        owner = MetisLikePartitioner(seed=0).assign(g, 3)
        assert len(owner) == 200
        assert partition_balance(owner, 3) < 1.5


class TestMoreMachinesThanVertices:
    """The paper's claim is the same answer under any partition — also a
    degenerate one with more machines than vertices (empty parts)."""

    @pytest.mark.parametrize("partitioner", ["metis", "hash", "labelprop"])
    def test_rads_triangle_count_is_partition_independent(self, partitioner):
        import repro

        # Two triangles joined by an edge, 6 vertices, 8 machines.
        graph = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        config = repro.RunConfig(machines=8, partitioner=partitioner)
        owner = config.make_partition(graph).owner
        assert len(owner) == 6 and 0 <= owner.min() and owner.max() < 8
        result = (
            repro.open(graph).with_config(config)
            .engine("rads").query("triangle").run()
        )
        assert not result.failed and result.embedding_count == 2


class TestPartitionView:
    @pytest.fixture()
    def partition(self, grid):
        owner = MetisLikePartitioner(seed=0).assign(grid, 4)
        return GraphPartition(grid, owner)

    def test_ownership_partition(self, partition, grid):
        counts = sum(
            len(partition.machine(t).owned_vertices) for t in range(4)
        )
        assert counts == grid.num_vertices

    def test_mask_and_array_views_agree_with_scalar_accessors(self, partition):
        for t in range(4):
            m = partition.machine(t)
            owned = m.owned_vertices
            assert np.flatnonzero(m.owned_mask).tolist() == owned.tolist()
            with pytest.raises(ValueError):
                m.owned_mask[0] = True
            assert m.owned_degrees.tolist() == [
                m.degree(int(v)) for v in owned
            ]

    def test_foreign_access_raises(self, partition):
        m0 = partition.machine(0)
        foreign = [
            v for v in range(partition.graph.num_vertices)
            if not m0.is_owned(v)
        ][0]
        with pytest.raises(KeyError):
            m0.neighbors(foreign)

    def test_border_vertices_have_foreign_neighbour(self, partition, grid):
        m0 = partition.machine(0)
        for v in m0.border_vertices:
            owners = {partition.owner_of(int(w)) for w in grid.neighbors(int(v))}
            assert owners - {0}

    def test_non_border_fully_local(self, partition, grid):
        m0 = partition.machine(0)
        border = set(int(v) for v in m0.border_vertices)
        for v in m0.owned_vertices:
            v = int(v)
            if v not in border:
                for w in grid.neighbors(v):
                    assert partition.owner_of(int(w)) == 0

    def test_border_distance_zero_on_border(self, partition):
        m0 = partition.machine(0)
        on_border = np.isin(m0.owned_vertices, m0.border_vertices)
        assert on_border.any()
        assert (m0.border_distances[on_border] == 0).all()
        assert (m0.border_distances[~on_border] > 0).all()

    def test_border_distance_definition(self, partition, grid):
        """BD(v) = min over border vertices of local-subgraph distance."""
        m0 = partition.machine(0)
        owned = set(int(v) for v in m0.owned_vertices)
        # Build the local induced subgraph once.
        local_edges = [
            (u, v) for u, v in grid.edges() if u in owned and v in owned
        ]
        remap = {v: i for i, v in enumerate(sorted(owned))}
        local = Graph.from_edges(
            len(owned), [(remap[u], remap[v]) for u, v in local_edges]
        )
        from repro.graph import multi_source_bfs

        dist = multi_source_bfs(
            local, [remap[int(b)] for b in m0.border_vertices]
        )
        # ``owned_vertices`` is sorted, so slot i is local vertex i.
        for slot in range(50):
            expected = int(dist[slot])
            if expected == -1:
                assert m0.border_distances[slot] > grid.num_vertices
            else:
                assert m0.border_distances[slot] == expected

    def test_adjacency_bytes(self, partition):
        assert partition.machine(0).adjacency_bytes() > 0
