"""Property-based end-to-end tests: RADS equals the oracle on random
graphs, partitions and queries (hypothesis)."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster
from repro.core.rads import RADSEngine
from repro.engines import SingleMachineEngine
from repro.graph import erdos_renyi, powerlaw_cluster
from repro.partition import HashPartitioner, MetisLikePartitioner
from repro.query import named_patterns


QUERY_POOL = ["q1", "q2", "q3", "q4", "q6", "cq3", "triangle"]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 1000),
    qname=st.sampled_from(QUERY_POOL),
    machines=st.integers(2, 6),
    hash_partition=st.booleans(),
)
def test_rads_equals_oracle_on_random_inputs(
    seed, qname, machines, hash_partition
):
    graph = erdos_renyi(60, 0.12, seed=seed)
    partitioner = (
        HashPartitioner(seed=seed) if hash_partition
        else MetisLikePartitioner(seed=seed)
    )
    cluster = Cluster.create(graph, machines, partitioner=partitioner)
    pattern = named_patterns()[qname]
    expected = set(
        SingleMachineEngine().run(cluster.fresh_copy(), pattern).embeddings
    )
    result = RADSEngine().run(cluster.fresh_copy(), pattern)
    got = result.embeddings
    assert set(got) == expected
    assert len(got) == len(expected)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 100), qname=st.sampled_from(["q2", "q4"]))
def test_rads_on_powerlaw_graphs(seed, qname):
    graph = powerlaw_cluster(90, 3, seed=seed)
    cluster = Cluster.create(graph, 3)
    pattern = named_patterns()[qname]
    expected = set(
        SingleMachineEngine().run(cluster.fresh_copy(), pattern).embeddings
    )
    result = RADSEngine().run(cluster.fresh_copy(), pattern)
    assert set(result.embeddings) == expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100))
def test_all_embeddings_are_valid_subgraphs(seed):
    graph = erdos_renyi(50, 0.15, seed=seed)
    cluster = Cluster.create(graph, 3)
    pattern = named_patterns()["q4"]
    result = RADSEngine().run(cluster.fresh_copy(), pattern)
    for emb in result.embeddings:
        assert len(set(emb)) == pattern.num_vertices
        for u, v in pattern.edges():
            assert graph.has_edge(emb[u], emb[v])
