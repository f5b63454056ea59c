"""Cross-engine, cross-backend equivalence on seeded random graphs.

Every engine must report the same embedding count for a query, and every
execution backend (serial, process pool at 1, 2 and 4 workers) must
reproduce that count exactly — the paper's correctness bar for the
reproduction, and the guard rail for the parallel runtime.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.engines import all_engines
from repro.engines.bigjoin import BigJoinEngine
from repro.engines.single import SingleMachineEngine
from repro.enumeration import EnumerationStats, backtracking, enumerate_embeddings
from repro.enumeration.vf2 import vf2_embeddings
from repro.graph import erdos_renyi, grid_road_network
from repro.query import named_patterns, symmetry_breaking_constraints
from repro.query.pattern_gen import random_connected_pattern
from repro.runtime import ProcessExecutor, SerialExecutor

QUERIES = ["q1", "q4"]
WORKER_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module")
def pools():
    executors = {n: ProcessExecutor(n) for n in WORKER_COUNTS}
    yield executors
    for executor in executors.values():
        executor.close()


@pytest.fixture(scope="module")
def equivalence_cluster(er_graph):
    return Cluster.create(er_graph, 4)


def _engines():
    classes = dict(all_engines())
    classes["BigJoin"] = BigJoinEngine
    return classes


class TestEngineBackendEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_all_engines_and_backends_agree(
        self, equivalence_cluster, pools, query
    ):
        pattern = named_patterns()[query]
        oracle = SingleMachineEngine().run(
            equivalence_cluster.fresh_copy(), pattern,
            collect_embeddings=False,
        )
        assert not oracle.failed
        for name, engine_cls in _engines().items():
            serial = engine_cls().run(
                equivalence_cluster.fresh_copy(), pattern,
                collect_embeddings=False, executor=SerialExecutor(),
            )
            assert not serial.failed, name
            assert serial.embedding_count == oracle.embedding_count, name
            for workers, executor in pools.items():
                parallel = engine_cls().run(
                    equivalence_cluster.fresh_copy(), pattern,
                    collect_embeddings=False, executor=executor,
                )
                assert not parallel.failed, (name, workers)
                assert (
                    parallel.embedding_count == oracle.embedding_count
                ), (name, workers)

    def test_seeded_graphs_rads_counts_stable(self, pools):
        """RADS counts match the oracle on more seeds/topologies, and the
        process backend reproduces them at every worker count."""
        rads_cls = all_engines()["RADS"]
        graphs = [
            erdos_renyi(70, 0.09, seed=29),
            grid_road_network(9, 9, extra_edge_prob=0.15, seed=2),
        ]
        pattern = named_patterns()["q2"]
        for graph in graphs:
            cluster = Cluster.create(graph, 3)
            expected = SingleMachineEngine().run(
                cluster.fresh_copy(), pattern, collect_embeddings=False
            ).embedding_count
            serial = rads_cls().run(
                cluster.fresh_copy(), pattern, collect_embeddings=False
            )
            assert serial.embedding_count == expected
            counts = {
                workers: rads_cls().run(
                    cluster.fresh_copy(), pattern,
                    collect_embeddings=False, executor=executor,
                ).embedding_count
                for workers, executor in pools.items()
            }
            assert set(counts.values()) == {expected}, counts

    def test_parallel_stats_identical_across_worker_counts(
        self, equivalence_cluster, pools
    ):
        """Reported stats (not just counts) are bit-identical no matter
        how many workers execute the batch."""
        pattern = named_patterns()["q4"]
        rads_cls = all_engines()["RADS"]
        runs = {
            workers: rads_cls().run(
                equivalence_cluster.fresh_copy(), pattern,
                collect_embeddings=False, executor=executor,
            )
            for workers, executor in pools.items()
        }
        reference = runs[WORKER_COUNTS[0]]
        for workers, result in runs.items():
            assert result.makespan == reference.makespan, workers
            assert result.total_comm_bytes == reference.total_comm_bytes
            assert result.peak_memory == reference.peak_memory
            assert result.per_machine_time == reference.per_machine_time
            assert result.counters == reference.counters


class TestKernelAgainstVF2:
    """The block kernel vs the independent VF2 reference, generatively."""

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(2, 5),
        extra_edges=st.integers(0, 3),
        pattern_seed=st.integers(0, 10_000),
        graph_seed=st.integers(0, 10_000),
        edge_prob=st.floats(0.1, 0.5),
        owned_share=st.floats(0.3, 1.0),
        constrained=st.booleans(),
    )
    def test_random_patterns_graphs_and_ownership_masks(
        self, size, extra_edges, pattern_seed, graph_seed, edge_prob,
        owned_share, constrained,
    ):
        pattern = random_connected_pattern(size, extra_edges, seed=pattern_seed)
        graph = erdos_renyi(14, edge_prob, seed=graph_seed)
        rng = np.random.default_rng(graph_seed)
        mask = rng.random(graph.num_vertices) < owned_share
        constraints = (
            symmetry_breaking_constraints(pattern) if constrained else []
        )

        def kernel(adjacency, allowed):
            stats = EnumerationStats()
            found = enumerate_embeddings(
                adjacency, graph.vertices(), pattern, constraints,
                allowed=allowed, stats=stats,
            )
            return found, stats

        whole = kernel(graph, mask)
        # Seven rows per block: chunk boundaries fall inside every level,
        # so ordering across chunks and the counter sums are exercised.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backtracking, "ROWS_PER_BLOCK", 7)
            chunked = kernel(graph, mask)
            # Callable adjacency + predicate: the boundary adapters.
            adapted = kernel(
                lambda v: graph.neighbors(v).copy(), lambda v: bool(mask[v])
            )
        assert chunked == whole
        assert adapted == whole
        reference = vf2_embeddings(
            graph.neighbors, graph.vertices(), pattern, constraints,
            allowed=lambda v: bool(mask[v]),
        )
        assert sorted(whole[0]) == sorted(reference)
        assert whole[1].embeddings == len(reference)
