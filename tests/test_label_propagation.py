"""Tests for the label-propagation partitioner."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.graph import erdos_renyi, grid_road_network
from repro.partition import HashPartitioner, MetisLikePartitioner, edge_cut, partition_balance
from repro.partition.label_propagation import LabelPropagationPartitioner


@pytest.fixture(scope="module")
def grid():
    return grid_road_network(14, 14, extra_edge_prob=0.05, seed=6)


class TestLabelPropagation:
    def test_valid_assignment(self, grid):
        owner = LabelPropagationPartitioner(seed=1).assign(grid, 4)
        assert len(owner) == grid.num_vertices
        assert owner.min() >= 0 and owner.max() < 4

    def test_balance_respected(self, grid):
        owner = LabelPropagationPartitioner(seed=1).assign(grid, 4)
        assert partition_balance(owner, 4) <= 1.15

    def test_better_locality_than_hash(self, grid):
        lp = LabelPropagationPartitioner(seed=2).assign(grid, 4)
        hashed = HashPartitioner(seed=2).assign(grid, 4)
        assert edge_cut(grid, lp) < edge_cut(grid, hashed)

    def test_single_machine(self, grid):
        owner = LabelPropagationPartitioner().assign(grid, 1)
        assert (owner == 0).all()

    def test_deterministic(self, grid):
        a = LabelPropagationPartitioner(seed=5).assign(grid, 3)
        b = LabelPropagationPartitioner(seed=5).assign(grid, 3)
        assert np.array_equal(a, b)

    def test_rejects_zero_machines(self, grid):
        with pytest.raises(ValueError):
            LabelPropagationPartitioner().assign(grid, 0)

    def test_rads_correct_on_lp_partition(self, grid):
        """The engine stack is partitioner-agnostic."""
        from repro.core.rads import RADSEngine
        from repro.engines import SingleMachineEngine
        from repro.query import paper_query

        cluster = Cluster.create(
            grid, 4, partitioner=LabelPropagationPartitioner(seed=3)
        )
        pattern = paper_query("q1")
        expected = set(
            SingleMachineEngine().run(cluster.fresh_copy(), pattern).embeddings
        )
        result = RADSEngine().run(cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected


class TestPartitionerComparison:
    def test_quality_ordering_on_grids(self, grid):
        """hash >= label propagation >= METIS-like in edge cut."""
        cuts = {
            "hash": edge_cut(grid, HashPartitioner(seed=7).assign(grid, 4)),
            "lp": edge_cut(
                grid, LabelPropagationPartitioner(seed=7).assign(grid, 4)
            ),
            "metis": edge_cut(
                grid, MetisLikePartitioner(seed=7).assign(grid, 4)
            ),
        }
        assert cuts["metis"] <= cuts["lp"] <= cuts["hash"]

    def test_all_work_on_random_graphs(self):
        g = erdos_renyi(150, 0.05, seed=8)
        for partitioner in (
            HashPartitioner(),
            LabelPropagationPartitioner(),
            MetisLikePartitioner(),
        ):
            owner = partitioner.assign(g, 5)
            assert len(np.unique(owner)) >= 2
