"""Cross-engine, cross-backend equivalence on seeded random graphs.

Every engine must report the same embedding count for a query, and every
execution backend (serial, and 1, 2 and 4 forked shard workers) must
reproduce that count exactly — the paper's correctness bar for the
reproduction, and the guard rail for the parallel runtime.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.registry import default_registry
from repro.cluster import Cluster
from repro.cluster.machine import SimulatedMemoryError
from repro.core import rmeef
from repro.core.rads import RADSEngine
from repro.distributed import ProcessExecutor
from repro.engines.bigjoin import BigJoinEngine
from repro.engines.single import SingleMachineEngine
from repro.enumeration import EnumerationStats, block, enumerate_embeddings
from repro.enumeration.vf2 import vf2_embeddings
from repro.graph import erdos_renyi, grid_road_network, powerlaw_cluster
from repro.query import named_patterns, symmetry_breaking_constraints
from strategies import random_connected_pattern
from repro.runtime import SerialExecutor

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
    classes = {
        spec.name: spec.engine_cls
        for spec in default_registry().specs(paper=True)
    }
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
        rads_cls = RADSEngine
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
        rads_cls = RADSEngine
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

        def kernel(allowed):
            stats = EnumerationStats()
            found = enumerate_embeddings(
                graph, graph.vertices(), pattern, constraints,
                allowed=allowed, stats=stats,
            )
            return found, stats

        whole = kernel(mask)
        # Seven rows per block: chunk boundaries fall inside every level,
        # so ordering across chunks and the counter sums are exercised.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(block, "ROWS_PER_BLOCK", 7)
            chunked = kernel(mask)
        assert chunked == whole
        # One mask row per position is the same filter spelt per position.
        assert kernel(np.tile(mask, (pattern.num_vertices, 1))) == whole
        reference = vf2_embeddings(
            graph.neighbors, graph.vertices(), pattern, constraints,
            allowed=lambda v: bool(mask[v]),
        )
        assert sorted(whole[0]) == sorted(reference)
        assert whole[1].embeddings == len(reference)


class TestRMeefAgainstVF2:
    """RADS (SM-E + the R-Meef block kernel) vs the VF2 reference, over
    generated patterns, graphs, cluster sizes and memory regimes."""

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(3, 5),
        extra_edges=st.integers(0, 3),
        pattern_seed=st.integers(0, 10_000),
        graph_seed=st.integers(0, 10_000),
        skewed=st.booleans(),
        machines=st.integers(2, 4),
        memory_mb=st.sampled_from([None, 0.05, 0.02]),
        cache_fraction=st.sampled_from([0.35, 0.01, 0.0005]),
    )
    def test_generated_patterns_graphs_and_memory_regimes(
        self, pools, size, extra_edges, pattern_seed, graph_seed, skewed,
        machines, memory_mb, cache_fraction,
    ):
        pattern = random_connected_pattern(size, extra_edges, seed=pattern_seed)
        if skewed:
            graph = powerlaw_cluster(24, 3, 0.3, seed=graph_seed)
        else:
            graph = erdos_renyi(22, 0.25, seed=graph_seed)
        capacity = None if memory_mb is None else int(memory_mb * 2**20)
        base = Cluster.create(graph, machines, memory_capacity=capacity)

        def rads(**run):
            result = RADSEngine(cache_budget_fraction=cache_fraction).run(
                base.fresh_copy(), pattern, **run
            )
            return result.to_dict()

        whole = rads()
        # A handful of rows per chunk: chunk ends fall inside emit
        # segments, ancestor runs and known-epochs, so segment tails and
        # cross-chunk cascades are exercised.  (Pool workers were forked
        # earlier and keep the module's own constant.)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(block, "ROWS_PER_BLOCK", 3)
            assert rads() == whole
        parallel = {
            workers: rads(executor=executor)
            for workers, executor in pools.items() if workers <= 2
        }
        reference = parallel[1]
        for record in parallel.values():
            assert record == reference
        expected = sorted(
            vf2_embeddings(
                graph.neighbors, graph.vertices(), pattern,
                symmetry_breaking_constraints(pattern),
            )
        )
        for record in (whole, reference):
            if record["failed"]:
                continue  # a genuine simulated OOM: nothing to compare
            assert record["embedding_count"] == len(expected)
            assert sorted(map(tuple, record["embeddings"])) == expected

    def test_oom_split_and_retry_pins_ops_and_peak(self, monkeypatch):
        """Region groups sized past the capacity split and retry; the
        operations charged up to each simulated OOM and the memory
        high-water mark are part of what a run reports."""
        raised = []
        process_group = rmeef.RMeefWorker.process_group

        def counting(self, group, collect=True):
            try:
                return process_group(self, group, collect)
            except SimulatedMemoryError:
                raised.append(len(group))
                raise

        monkeypatch.setattr(rmeef.RMeefWorker, "process_group", counting)
        graph = powerlaw_cluster(60, 3, 0.3, seed=7)
        pattern = named_patterns()["q3"]
        cluster = Cluster.create(graph, 4, memory_capacity=int(0.125 * 2**20))
        result = RADSEngine(
            results_budget_fraction=2.0, min_groups_per_machine=1
        ).run(cluster, pattern)
        assert not result.failed
        assert raised and min(raised) > 1  # every OOM was split, none fatal
        oracle = SingleMachineEngine().run(cluster.fresh_copy(), pattern)
        assert sorted(result.embeddings) == sorted(oracle.embeddings)
        assert result.counters["rmeef_ops"] == 66862
        assert result.counters["trie_bytes"] == 344232
        assert result.peak_memory == 116352
        assert result.makespan == 0.000377575


class TestBigJoinAgainstVF2:
    """BigJoin vs the VF2 reference over generated patterns, graphs and
    cluster sizes: the count and the collected set."""

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(2, 5),
        extra_edges=st.integers(0, 3),
        pattern_seed=st.integers(0, 10_000),
        graph_seed=st.integers(0, 10_000),
        skewed=st.booleans(),
        machines=st.integers(2, 4),
    )
    def test_generated_patterns_graphs_and_cluster_sizes(
        self, size, extra_edges, pattern_seed, graph_seed, skewed, machines
    ):
        pattern = random_connected_pattern(size, extra_edges, seed=pattern_seed)
        if skewed:
            graph = powerlaw_cluster(24, 3, 0.3, seed=graph_seed)
        else:
            graph = erdos_renyi(22, 0.25, seed=graph_seed)
        base = Cluster.create(graph, machines)
        expected = sorted(
            vf2_embeddings(
                graph.neighbors, graph.vertices(), pattern,
                symmetry_breaking_constraints(pattern),
            )
        )
        collected = BigJoinEngine().run(base.fresh_copy(), pattern)
        counted = BigJoinEngine().run(
            base.fresh_copy(), pattern, collect_embeddings=False
        )
        assert sorted(collected.embeddings) == expected
        assert collected.embedding_count == len(expected)
        assert counted.embedding_count == len(expected)
        assert counted.embeddings is None
        assert counted.counters == collected.counters
        assert counted.makespan == collected.makespan
