"""Cross-engine integration tests: all five approaches must agree with the
single-machine oracle on every query and graph family."""

import pytest

from repro.api.registry import default_registry
from repro.cluster import Cluster
from repro.engines import (
    CrystalEngine,
    PSgLEngine,
    SEEDEngine,
    SingleMachineEngine,
    TwinTwigEngine,
)
from repro.core.rads import RADSEngine
from repro.engines import MultiwayJoinEngine, ReplicationEngine
from repro.query import named_patterns

ENGINES = [
    RADSEngine(),
    PSgLEngine(),
    TwinTwigEngine(),
    SEEDEngine(),
    CrystalEngine(),
    MultiwayJoinEngine(),
    ReplicationEngine(),
]
QUERIES = ["q1", "q2", "q3", "q4", "q6", "q7", "q8", "cq1", "cq2", "cq3", "cq4"]


@pytest.fixture(scope="module")
def oracle_cache():
    return {}


def expected_for(cluster, pattern, cache):
    key = (id(cluster.partition), pattern.name)
    if key not in cache:
        cache[key] = set(
            SingleMachineEngine().run(cluster.fresh_copy(), pattern).embeddings
        )
    return cache[key]


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.name)
@pytest.mark.parametrize("qname", QUERIES)
class TestAllEnginesAgree:
    def test_er(self, er_cluster, engine, qname, oracle_cache):
        pattern = named_patterns()[qname]
        expected = expected_for(er_cluster, pattern, oracle_cache)
        result = engine.run(er_cluster.fresh_copy(), pattern)
        assert not result.failed
        assert set(result.embeddings) == expected
        assert len(result.embeddings) == len(expected)


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.name)
class TestCommunityGraph:
    def test_q5(self, engine, community_graph_small, oracle_cache):
        cluster = Cluster.create(community_graph_small, 3)
        pattern = named_patterns()["q5"]
        expected = expected_for(cluster, pattern, oracle_cache)
        result = engine.run(cluster.fresh_copy(), pattern)
        assert set(result.embeddings) == expected


class TestEngineRegistry:
    def test_all_engines_listed(self):
        paper = [spec.name for spec in default_registry().specs(paper=True)]
        assert sorted(paper) == ["Crystal", "PSgL", "RADS", "SEED", "TwinTwig"]

    def test_names_match(self):
        for spec in default_registry().specs(paper=True):
            assert spec.engine_cls.name == spec.name


class TestRunResult:
    def test_summary_format(self, er_cluster):
        result = RADSEngine().run(er_cluster.fresh_copy(), named_patterns()["q2"])
        text = result.summary()
        assert "RADS" in text and "time=" in text

    def test_comm_mb(self, er_cluster):
        result = PSgLEngine().run(er_cluster.fresh_copy(), named_patterns()["q1"])
        assert result.comm_mb == result.total_comm_bytes / 1e6

    def test_failed_summary(self):
        from repro.engines.base import RunResult

        r = RunResult(
            engine="X", pattern_name="q1", embedding_count=0, makespan=0,
            total_comm_bytes=0, peak_memory=0, per_machine_time=[],
            failed=True, failure="OOM",
        )
        assert "OOM" in r.summary()


class TestOOMBehaviour:
    """Join engines crash under tight memory; RADS survives (paper Sec. 7)."""

    @pytest.mark.parametrize(
        "engine_cls", [TwinTwigEngine, SEEDEngine, PSgLEngine]
    )
    def test_baselines_oom_under_cap(self, powerlaw_graph, engine_cls):
        cluster = Cluster.create(
            powerlaw_graph, 4, memory_capacity=1024 * 1024
        )
        result = engine_cls().run(cluster, named_patterns()["q5"])
        assert result.failed
        assert "OOM" in (result.failure or "")

    def test_rads_survives_same_cap(self, powerlaw_graph):
        cluster = Cluster.create(
            powerlaw_graph, 4, memory_capacity=1024 * 1024
        )
        loose = Cluster.create(powerlaw_graph, 4)
        expected = set(
            SingleMachineEngine().run(loose, named_patterns()["q5"]).embeddings
        )
        result = RADSEngine().run(cluster, named_patterns()["q5"])
        assert not result.failed
        assert set(result.embeddings) == expected
