"""Tests for partitioners and partition views (border vertices/distances).

``tests/data/partition_goldens.json`` holds the SHA-256 of
``MetisLikePartitioner``'s owner array per graph x machine count x seed,
written by the list-of-dicts partitioner and asserted exactly: the owner
array decides every border, region group and fetch downstream, so a
rewrite of the partitioner must reproduce it bit for bit.
``python tests/test_partition.py`` rewrites the file from whatever
partitioner is checked out; only do that from a commit whose owner arrays
are the reference.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph import (
    Graph,
    community_graph,
    erdos_renyi,
    grid_road_network,
    powerlaw_cluster,
)
from repro.partition import (
    GraphPartition,
    HashPartitioner,
    MetisLikePartitioner,
    edge_cut,
    partition_balance,
)


GOLDENS = Path(__file__).parent / "data" / "partition_goldens.json"
#: The frozen structure seed of the benchmark's workload graphs.
WORKLOAD_SEED = 20190801


def _with_isolated() -> Graph:
    """A 12 x 12 grid whose ids are interleaved with 40 isolated vertices."""
    grid = grid_road_network(12, 12, extra_edge_prob=0.05, seed=6)
    n = grid.num_vertices + 40
    spread = np.random.default_rng(7).permutation(n)
    return Graph.from_edges(n, spread[np.array(list(grid.edges()))])


def _two_components() -> Graph:
    """A road grid and a power-law graph side by side, ids interleaved."""
    a = grid_road_network(15, 15, extra_edge_prob=0.04, seed=8)
    b = powerlaw_cluster(180, 3, 0.3, seed=9)
    n = a.num_vertices + b.num_vertices
    perm = np.random.default_rng(10).permutation(n)
    edges = [(u, v) for u, v in a.edges()] + [
        (u + a.num_vertices, v + a.num_vertices) for u, v in b.edges()
    ]
    return Graph.from_edges(n, perm[np.array(edges, dtype=np.int64)])


GOLDEN_GRAPHS = {
    "enum_sparse": lambda: grid_road_network(62, 62, 0.04, seed=WORKLOAD_SEED),
    "enum_skewed": lambda: powerlaw_cluster(40, 5, 0.30, seed=WORKLOAD_SEED),
    "sharded_batch": lambda: community_graph(20, 10, 0.6, 2, seed=WORKLOAD_SEED),
    "served_hot": lambda: powerlaw_cluster(200, 3, 0.30, seed=WORKLOAD_SEED),
    "stream_delta": lambda: powerlaw_cluster(200, 3, 0.30, seed=WORKLOAD_SEED),
    "grid16": lambda: grid_road_network(16, 16, 0.05, seed=2),
    "grid80": lambda: grid_road_network(80, 80, 0.04, seed=4),
    "plc1600": lambda: powerlaw_cluster(1600, 5, 0.3, seed=5),
    "er500": lambda: erdos_renyi(500, 0.01, seed=11),
    "isolated": _with_isolated,
    "two_components": _two_components,
    # Twelve levels of one match each (``max_levels``), and no match at all.
    "star": lambda: Graph.from_edges(300, [(0, v) for v in range(1, 300)]),
    "edgeless": lambda: Graph.from_edges(250, np.zeros((0, 2), dtype=np.int64)),
}
GOLDEN_MACHINES = [1, 2, 4, 10]
#: Machine counts above the coarsest graph's vertex count (40 and 6 vertices).
GOLDEN_SURPLUS = {"enum_skewed": 64, "tiny": 8}
GOLDEN_SEEDS = [0, 3]


def _owner_digest(owner: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(owner, dtype="<i8").tobytes()).hexdigest()


def compute_goldens() -> dict:
    """The owner digest of every golden case."""
    graphs = {name: make() for name, make in GOLDEN_GRAPHS.items()}
    graphs["tiny"] = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )
    cases = [(name, k) for name in GOLDEN_GRAPHS for k in GOLDEN_MACHINES]
    cases += list(GOLDEN_SURPLUS.items())
    out = {}
    for name, k in cases:
        for seed in GOLDEN_SEEDS:
            owner = MetisLikePartitioner(seed=seed).assign(graphs[name], k)
            out[f"{name}/k{k}/s{seed}"] = _owner_digest(owner)
    return out


def test_owner_arrays_match_the_goldens_bit_for_bit():
    golden = json.loads(GOLDENS.read_text())
    got = compute_goldens()
    assert sorted(got) == sorted(golden)
    assert [key for key in golden if got[key] != golden[key]] == []


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

    def test_c_calls_per_vertex_are_capped(self):
        """Levels are CSR arrays walked as int lists: numpy and the builtins
        are called per level and per boundary move, not per neighbour (the
        list-of-dicts levels made 45 C calls per vertex here, the CSR
        levels about 2.5)."""
        graph = grid_road_network(60, 60, 0.04, seed=3)
        calls = 0

        def tick(frame, event, arg):
            nonlocal calls
            calls += event == "c_call"

        MetisLikePartitioner().assign(graph, 4)  # warm: imports, dispatch
        sys.setprofile(tick)
        try:
            MetisLikePartitioner().assign(graph, 4)
        finally:
            sys.setprofile(None)
        print(f"{calls / graph.num_vertices:.1f} C calls per vertex")
        assert calls <= 12 * graph.num_vertices

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
        partition = config.make_partition(graph)
        owner = partition.owner
        assert len(owner) == 6 and 0 <= owner.min() and owner.max() < 8
        assert partition.num_machines == len(partition.machines()) == 8
        result = (
            repro.open(graph).with_config(config)
            .engine("rads").query("triangle").run()
        )
        assert not result.failed and result.embedding_count == 2


class TestPartitionView:
    @pytest.fixture()
    def partition(self, grid):
        owner = MetisLikePartitioner(seed=0).assign(grid, 4)
        return GraphPartition(grid, owner, 4)

    def test_owner_ids_must_fit_the_machine_count(self, partition, grid):
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            GraphPartition(grid, partition.owner, 3)

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
                partition.graph.degree(int(v)) for v in owned
            ]

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


if __name__ == "__main__":
    records = compute_goldens()
    GOLDENS.write_text(json.dumps(records, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDENS}")
