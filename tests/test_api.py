"""The repro.api surface: registry, RunConfig, Session, serialization."""

import json
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.api import (
    ConfigError,
    EngineRegistry,
    EngineSpec,
    RunConfig,
    Session,
    UnknownEngineError,
    UnknownQueryError,
    default_registry,
    read_results_jsonl,
    register_engine,
    result_from_json,
    result_to_json,
    write_results_jsonl,
)
from repro.bench.harness import run_query_grid
from repro.engines.base import RunResult
from repro.graph import erdos_renyi
from repro.query import paper_query

#: The five engines of the paper's Sec. 7, name -> class.
PAPER_ENGINES = {
    spec.name: spec.engine_cls
    for spec in default_registry().specs(paper=True)
}


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.12, seed=17)


# ----------------------------------------------------------------------
# EngineRegistry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_canonical_names_and_order(self):
        names = default_registry().names()
        assert names[:5] == ["RADS", "PSgL", "TwinTwig", "SEED", "Crystal"]
        assert "Single" in names

    @pytest.mark.parametrize("alias,canonical", [
        ("rads", "RADS"),
        ("RADS", "RADS"),
        ("R-MEEF", "RADS"),
        ("pregel", "PSgL"),
        ("tt", "TwinTwig"),
        ("WCOJ", "BigJoin"),
        ("afrati-ullman", "Multiway"),
        ("oracle", "Single"),
        ("CrystalJoin", "Crystal"),
    ])
    def test_resolution_is_case_insensitive_with_aliases(
        self, alias, canonical
    ):
        assert default_registry().resolve(alias).name == canonical

    def test_unknown_name_error_lists_canonical_names_and_aliases(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            default_registry().resolve("nope")
        message = str(excinfo.value)
        assert "'nope'" in message
        assert "TwinTwig" in message
        assert "aliases: tt" in message
        # UnknownEngineError is a KeyError, so dict-style callers work too.
        assert isinstance(excinfo.value, KeyError)

    def test_capability_filtering(self):
        reg = default_registry()
        assert [s.name for s in reg.specs(needs_index=True)] == ["Crystal"]
        assert [s.name for s in reg.specs(paper=True)] == [
            "RADS", "PSgL", "TwinTwig", "SEED", "Crystal",
        ]
        assert [s.name for s in reg.specs(distributed=False)] == ["Single"]
        extensions = [s.name for s in reg.specs(extension=True)]
        assert extensions == ["BigJoin", "Multiway", "Replication"]

    def test_create_passes_factory_kwargs(self):
        from repro.query.plan import best_execution_plan

        engine = default_registry().create(
            "rads", plan_provider=best_execution_plan
        )
        assert engine.name == "RADS"

    def test_create_crystal_index_from_graph(self, graph):
        engine = default_registry().create("crystal", graph=graph, index=True)
        assert engine._index is not None
        assert engine._index.graph is graph

    def test_create_crystal_index_true_without_graph_fails(self):
        with pytest.raises(ValueError, match="needs a graph"):
            default_registry().create("crystal", index=True)

    def test_create_all_with_names_and_kwargs(self, graph):
        engines = default_registry().create_all(
            ["tt", "crystal"],
            graph=graph,
            engine_kwargs={"Crystal": {"index": True}},
        )
        assert list(engines) == ["TwinTwig", "Crystal"]
        assert engines["Crystal"]._index is not None

    def test_create_all_capability_selection(self):
        engines = default_registry().create_all(paper=True)
        assert list(engines) == list(PAPER_ENGINES)

    def test_create_all_engine_kwargs_accept_aliases(self, graph):
        engines = default_registry().create_all(
            ["Crystal"],
            graph=graph,
            engine_kwargs={"crystaljoin": {"index": True}},
        )
        assert engines["Crystal"]._index is not None

    def test_create_all_engine_kwargs_typo_rejected(self):
        with pytest.raises(UnknownEngineError):
            default_registry().create_all(
                ["RADS"], engine_kwargs={"Crystall": {"index": True}}
            )

    def test_create_all_engine_kwargs_for_unselected_rejected(self):
        with pytest.raises(ValueError, match="not selected"):
            default_registry().create_all(
                ["RADS", "SEED"], engine_kwargs={"Crystal": {"index": True}}
            )

    def test_duplicate_registration_rejected(self):
        reg = EngineRegistry()
        spec = EngineSpec(name="Foo", engine_cls=object, aliases=("f",))
        reg.register(spec)
        with pytest.raises(ValueError, match="already registered"):
            reg.register(EngineSpec(name="foo", engine_cls=object))
        with pytest.raises(ValueError, match="already registered"):
            reg.register(EngineSpec(name="Bar", engine_cls=object,
                                    aliases=("F",)))

    def test_register_engine_decorator_on_class(self):
        reg = EngineRegistry()

        @register_engine("Mine", aliases=("m",), registry=reg,
                         description="test engine")
        class MyEngine:
            def __init__(self, knob=1):
                self.knob = knob

        assert "mine" in reg
        assert reg.create("M", knob=7).knob == 7

    def test_register_engine_decorator_on_factory(self):
        reg = EngineRegistry()

        class MyEngine:
            def __init__(self, knob):
                self.knob = knob

        @register_engine("Mine", engine_cls=MyEngine, registry=reg)
        def _make(*, graph=None, knob=2):
            return MyEngine(knob=knob)

        assert reg.resolve("mine").engine_cls is MyEngine
        assert reg.create("mine").knob == 2

    def test_register_engine_factory_without_cls_rejected(self):
        reg = EngineRegistry()
        with pytest.raises(TypeError, match="engine_cls"):
            register_engine("Mine", registry=reg)(lambda graph=None: None)


# ----------------------------------------------------------------------
# RunConfig
# ----------------------------------------------------------------------
class TestRunConfig:
    @pytest.mark.parametrize("bad", [
        {"machines": 0},
        {"machines": -2},
        {"machines": 2.5},
        {"memory_mb": 0},
        {"memory_mb": -5},
        {"workers": -1},
        {"workers": 1.5},
        {"partitioner": "voronoi"},
        {"partitioner": 42},
        {"stragglers": {-1: 2.0}},
        {"stragglers": {0: 0.0}},
        {"stragglers": {99: 2.0}},
        {"stragglers": {0: "fast"}},
        {"memory_mb": "512"},
        {"limit": 0},
        {"limit": -3},
    ])
    def test_validation_errors(self, bad):
        with pytest.raises(ConfigError):
            RunConfig(**bad)

    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.machines == 10
        assert config.memory_bytes is None
        assert config.workers == 0

    def test_memory_bytes_round_trip(self):
        assert RunConfig(memory_mb=512).memory_bytes == 512 * 1024 * 1024
        assert RunConfig(memory_mb=1.5).memory_bytes == 3 * 512 * 1024

    def test_replace_revalidates(self):
        config = RunConfig(machines=4)
        assert config.replace(machines=2).machines == 2
        with pytest.raises(ConfigError):
            config.replace(machines=0)

    def test_named_partitioners(self):
        from repro.partition import HashPartitioner, MetisLikePartitioner
        from repro.partition.label_propagation import (
            LabelPropagationPartitioner,
        )

        assert isinstance(
            RunConfig(partitioner="metis").build_partitioner(),
            MetisLikePartitioner,
        )
        assert isinstance(
            RunConfig(partitioner="hash").build_partitioner(),
            HashPartitioner,
        )
        assert isinstance(
            RunConfig(partitioner="labelprop").build_partitioner(),
            LabelPropagationPartitioner,
        )

    def test_make_cluster_applies_stragglers_and_cap(self, graph):
        config = RunConfig(
            machines=3, memory_mb=64, stragglers={0: 4.0},
        )
        cluster = config.make_cluster(graph)
        assert cluster.num_machines == 3
        assert cluster.memory_capacity == 64 * 1024 * 1024
        assert cluster.machines[0].speed_factor == 0.25
        # Speed factors are hardware config: they survive fresh_copy.
        assert cluster.fresh_copy().machines[0].speed_factor == 0.25

    def test_to_dict_is_json_safe(self):
        config = RunConfig(machines=3, stragglers={0: 2.0}, limit=5)
        payload = json.loads(json.dumps(config.to_dict()))
        assert payload["machines"] == 3
        assert payload["partitioner"] == "metis"
        assert payload["limit"] == 5

    @pytest.mark.parametrize("bad", [1, 0, "yes", "Store", [], 2.0])
    def test_collect_rejects_truthy_non_modes(self, bad):
        # Tri-state means exactly False / True / "store": a truthy 1 must
        # not silently become True (it would change the cache key).
        with pytest.raises(ConfigError, match="collect"):
            RunConfig(collect=bad)

    @pytest.mark.parametrize("mode", [False, True, "store"])
    def test_collect_mode_round_trips_through_dicts(self, mode):
        config = RunConfig(collect=mode, machines=3, stragglers={1: 2.0})
        payload = json.loads(json.dumps(config.to_dict()))
        assert payload["collect"] == mode
        rebuilt = RunConfig.from_dict(payload)
        assert rebuilt == config
        assert rebuilt.collect is mode if isinstance(mode, bool) else (
            rebuilt.collect == mode
        )

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="colect"):
            RunConfig.from_dict({"colect": True})


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class TestSession:
    def test_open_with_graph_and_path(self, graph, tmp_path):
        from repro.graph.io import save_binary

        assert repro.open(graph).graph is graph
        path = tmp_path / "g.npz"
        save_binary(graph, str(path))
        assert repro.open(path).graph == graph

    def test_open_rejects_non_graph(self):
        with pytest.raises(TypeError, match="needs a Graph"):
            Session(object())

    @pytest.mark.parametrize("engine_name", sorted(PAPER_ENGINES))
    def test_parity_with_direct_calls_q4(self, graph, engine_name):
        """Acceptance: Session stats == hand-wired stats, all five engines."""
        direct = PAPER_ENGINES[engine_name]().run(
            RunConfig(machines=3).make_cluster(graph), paper_query("q4"),
            collect_embeddings=False,
        )
        via_session = (
            repro.open(graph)
            .with_cluster(machines=3)
            .engine(engine_name.lower())
            .query("Q4")
            .run()
        )
        assert via_session.engine == direct.engine
        assert via_session.embedding_count == direct.embedding_count
        assert via_session.makespan == direct.makespan
        assert via_session.total_comm_bytes == direct.total_comm_bytes
        assert via_session.peak_memory == direct.peak_memory
        assert via_session.per_machine_time == direct.per_machine_time
        assert via_session.counters == direct.counters
        assert via_session == direct

    def test_parity_with_workers_q4(self, graph):
        """Acceptance: the workers=2 backend reports bit-identical stats."""
        serial = {
            name: cls().run(
                RunConfig(machines=3).make_cluster(graph), paper_query("q4"),
                collect_embeddings=False,
            )
            for name, cls in PAPER_ENGINES.items()
        }
        with repro.open(graph).with_cluster(machines=3) \
                .with_workers(2).query("q4") as session:
            for name, direct in serial.items():
                assert session.engine(name).run() == direct

    def test_repeated_runs_are_independent(self, graph):
        session = repro.open(graph).with_cluster(machines=3)
        session.engine("rads").query("q2")
        assert session.run() == session.run()

    def test_collect_and_limit(self, graph):
        session = repro.open(graph).with_cluster(machines=3)
        session.engine("single").query("triangle")
        full = session.run(collect=True)
        assert full.embeddings
        capped = session.configure(collect=True, limit=2).run()
        assert len(capped.embeddings) == 2
        # Stats are unaffected by truncation.
        assert capped.embedding_count == full.embedding_count

    def test_unknown_engine_and_query(self, graph):
        session = repro.open(graph)
        with pytest.raises(UnknownEngineError):
            session.engine("nope")
        with pytest.raises(UnknownQueryError) as excinfo:
            session.query("nope")
        assert "q4" in str(excinfo.value)

    def test_run_without_selection_fails(self, graph):
        with pytest.raises(RuntimeError, match="engine"):
            repro.open(graph).query("q2").run()
        with pytest.raises(RuntimeError, match="query"):
            repro.open(graph).engine("rads").run()

    def test_reconfigure_invalidates_cluster(self, graph):
        session = repro.open(graph).with_cluster(machines=2)
        assert session.cluster().num_machines == 2
        session.with_cluster(machines=4)
        assert session.cluster().num_machines == 4

    def test_engine_kwargs_flow_to_factory(self, graph):
        session = repro.open(graph).with_cluster(machines=2)
        engine = session.engine("crystal", index=True).build_engine()
        assert engine._index is not None

    def test_engine_instance_reused_across_runs(self, graph):
        """Factory work (e.g. Crystal's index) is paid once per selection."""
        session = repro.open(graph).with_cluster(machines=2)
        session.engine("crystal", index=True)
        first = session.build_engine()
        assert session.build_engine() is first
        session.query("q2").run()
        assert session.build_engine() is first
        session.engine("crystal", index=True)
        assert session.build_engine() is not first

    def test_run_grid_honours_collect_and_limit(self, graph):
        grid = (
            repro.open(graph).with_cluster(machines=2)
            .configure(collect=True, limit=2)
            .run_grid(engines=["single"], queries=["triangle"])
        )
        result = grid.get("Single", "triangle")
        assert result.embeddings is not None
        assert len(result.embeddings) == 2
        assert result.embedding_count > 2  # stats unaffected by the limit

    def test_run_grid_reuses_cached_partition(self, graph):
        session = repro.open(graph).with_cluster(machines=2)
        session.engine("single").query("q2").run()
        partition = session._partition
        assert partition is not None
        session.run_grid(engines=["single"], queries=["q2"])
        assert session._partition is partition

    def test_run_grid_matches_harness(self, graph):
        grid = (
            repro.open(graph)
            .with_cluster(machines=3)
            .run_grid(
                engines=["rads", "psgl"],
                queries=["q2", "triangle"],
                dataset_name="t",
            )
        )
        assert grid.engines() == ["RADS", "PSgL"]
        assert grid.queries() == ["q2", "triangle"]
        reference = run_query_grid(
            graph, "t", ["q2", "triangle"],
            engines=default_registry().create_all(["RADS", "PSgL"]),
            config=RunConfig(machines=3),
        )
        assert grid.results == reference.results

    def test_run_grid_defaults_to_selected_query(self, graph):
        grid = (
            repro.open(graph).with_cluster(machines=2)
            .query("Triangle").run_grid(engines=["single"])
        )
        assert grid.queries() == ["triangle"]

    def test_run_grid_keys_are_canonical_lowercase(self, graph):
        grid = (
            repro.open(graph).with_cluster(machines=2)
            .run_grid(engines=["single"], queries=["Q2"])
        )
        assert grid.queries() == ["q2"]
        assert grid.get("Single", "q2") is not None

    def test_run_grid_rejects_kwargs_with_ready_engines(self, graph):
        from repro.engines.single import SingleMachineEngine

        with pytest.raises(ValueError, match="ready engines mapping"):
            repro.open(graph).with_cluster(machines=2).run_grid(
                engines={"Single": SingleMachineEngine()},
                queries=["q2"],
                engine_kwargs={"Single": {}},
            )

    def test_run_grid_with_pattern_object(self, graph):
        """Patterns (even unregistered names) work end to end in grids."""
        pattern = paper_query("q4")  # .name == "house", not a lookup key
        grid = (
            repro.open(graph).with_cluster(machines=2)
            .query(pattern).run_grid(engines=["single"])
        )
        assert grid.queries() == ["house"]
        assert not grid.get("Single", "house").failed

    def test_reconfigure_keeps_partition_for_sweep_fields(self, graph):
        """Memory-cap/straggler/result-mode sweeps must not repartition."""
        session = repro.open(graph).with_cluster(machines=2)
        session.cluster()
        partition = session._partition
        assert partition is not None
        session.configure(collect=True, limit=3, workers=0)
        session.with_cluster(memory_mb=64, stragglers={0: 2.0})
        assert session._partition is partition
        cluster = session.cluster()
        assert cluster.memory_capacity == 64 * 1024 * 1024
        assert cluster.machines[0].speed_factor == 0.5
        session.configure(machines=3)
        assert session._partition is None


# ----------------------------------------------------------------------
# RunResult serialization
# ----------------------------------------------------------------------
class TestResultSerialization:
    def _result(self, graph, collect=True):
        return (
            repro.open(graph).with_cluster(machines=3)
            .engine("rads").query("q2").run(collect=collect)
        )

    def test_dict_round_trip(self, graph):
        result = self._result(graph)
        rebuilt = RunResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt == result
        assert rebuilt.embeddings == result.embeddings
        assert rebuilt.counters == result.counters

    def test_json_round_trip(self, graph):
        result = self._result(graph, collect=False)
        assert result_from_json(result_to_json(result)) == result

    def test_jsonl_round_trip(self, graph, tmp_path):
        results = [
            self._result(graph, collect=False),
            self._result(graph, collect=True),
        ]
        path = tmp_path / "runs.jsonl"
        assert write_results_jsonl(results, path) == 2
        assert read_results_jsonl(path) == results

    def test_failed_run_round_trips_and_keeps_counters(self):
        """Satellite: simulated-OOM results still carry machine counters."""
        dense = erdos_renyi(120, 0.25, seed=19)
        result = (
            repro.open(dense)
            .with_cluster(machines=3, memory_mb=1)
            .engine("tt").query("q5").run()
        )
        assert result.failed
        assert result.counters, "failure path must keep per-machine stats"
        assert RunResult.from_dict(result.to_dict()) == result


class TestRecordLog:
    """Satellite: append-mode JSONL + mixed RunResult/explanation replay."""

    def _result(self, graph):
        return (
            repro.open(graph).with_cluster(machines=3)
            .engine("rads").query("q2").run()
        )

    def test_append_mode_extends_an_existing_log(self, graph, tmp_path):
        from repro.api import write_results_jsonl

        path = tmp_path / "log.jsonl"
        first, second = self._result(graph), self._result(graph)
        assert write_results_jsonl([first], path) == 1
        assert write_results_jsonl([second], path, append=True) == 1
        assert read_results_jsonl(path) == [first, second]
        # Without append, the file is truncated (the historic behaviour).
        assert write_results_jsonl([first], path) == 1
        assert read_results_jsonl(path) == [first]

    def test_append_record_accepts_explanations_and_dicts(
        self, graph, tmp_path
    ):
        from repro.api import append_record_jsonl, read_records_jsonl

        path = tmp_path / "mixed.jsonl"
        result = self._result(graph)
        explanation = (
            repro.open(graph).engine("rads").query("q4").explain()
        )
        append_record_jsonl(result, path)           # a live RunResult
        append_record_jsonl(explanation, path)      # a live explanation
        append_record_jsonl(explanation.to_dict(), path)  # a ready dict
        replayed = read_records_jsonl(path)
        assert [type(r).__name__ for r in replayed] == [
            "RunResult", "QueryExplanation", "QueryExplanation"
        ]
        assert replayed[0] == result
        assert replayed[1].to_dict() == explanation.to_dict()

    def test_unrecognised_record_schema_raises(self, tmp_path):
        from repro.api import read_records_jsonl

        path = tmp_path / "bad.jsonl"
        path.write_text('{"what": "is this"}\n')
        with pytest.raises(ValueError, match="unrecognised record"):
            read_records_jsonl(path)


class TestThreadSafety:
    """Satellite: registry resolution + session selection under threads."""

    def test_registry_concurrent_register_and_resolve(self):
        registry = EngineRegistry()
        from repro.engines.single import SingleMachineEngine

        errors = []

        def register_engines(base):
            try:
                for i in range(20):
                    registry.register(EngineSpec(
                        name=f"eng{base}-{i}",
                        engine_cls=SingleMachineEngine,
                        aliases=(f"alias{base}-{i}",),
                    ))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def resolve_engines():
            try:
                for _ in range(200):
                    registry.names()
                    registry.known_names()
                    len(registry)
                    list(registry)
                    for spec in registry.specs():
                        registry.resolve(spec.name)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=register_engines, args=(base,))
            for base in range(4)
        ] + [threading.Thread(target=resolve_engines) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert len(registry) == 80
        for base in range(4):
            assert registry.resolve(f"ALIAS{base}-7").name == f"eng{base}-7"

    def test_session_query_hammered_from_threads(self, graph):
        """Concurrent .query()/.run() never tears the (engine, query) pair."""
        session = repro.open(graph).with_cluster(machines=2)
        session.engine("single")
        expected = {}
        for name in ("triangle", "q2"):
            reference = (
                repro.open(graph).with_cluster(machines=2)
                .engine("single").query(name).run()
            )
            expected[reference.pattern_name] = reference.embedding_count
        errors = []

        def hammer(name):
            try:
                for _ in range(8):
                    session.query(name)
                    result = session.run()
                    # Another thread may have swapped the query between
                    # our two calls, but the run must be internally
                    # consistent: a real (name, count) pair.
                    assert result.pattern_name in expected
                    assert (
                        result.embedding_count
                        == expected[result.pattern_name]
                    )
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(name,))
            for name in ("triangle", "q2") * 3
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not errors

    def test_session_selection_hammered_without_runs(self, graph):
        """query()/engine()/configure() racing stays exception-free."""
        session = repro.open(graph)
        errors = []

        def spin(seed):
            try:
                for i in range(30):
                    session.query("triangle" if (seed + i) % 2 else "q2")
                    session.engine("single" if (seed + i) % 3 else "rads")
                    session.configure(collect=bool(i % 2))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=spin, args=(s,)) for s in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        # The surviving state is one coherent selection.
        assert session.run().pattern_name in ("triangle", "tailed_triangle")


# ----------------------------------------------------------------------
# The declarative query surface: DSL queries, labeled front door, errors
# ----------------------------------------------------------------------
class TestQuerySurface:
    def test_dsl_string_through_session(self, graph):
        direct = (
            repro.open(graph).with_cluster(machines=3)
            .engine("single").query("triangle").run()
        )
        via_dsl = (
            repro.open(graph).with_cluster(machines=3)
            .engine("single").query("a-b, b-c, c-a").run()
        )
        assert via_dsl.embedding_count == direct.embedding_count

    def test_pattern_object_and_alias_names(self, graph):
        from repro.query.patterns import house

        session = repro.open(graph).with_cluster(machines=3).engine("rads")
        by_alias = session.query("HOUSE").run()
        by_object = session.query(house()).run()
        assert by_alias == by_object

    def test_unknown_query_suggests_near_misses(self, graph):
        with pytest.raises(UnknownQueryError) as excinfo:
            repro.open(graph).query("q44")
        message = str(excinfo.value)
        assert "did you mean" in message and "'q4'" in message
        assert "a-b, b-c, c-a" in message  # the DSL hint

    def test_bad_dsl_reports_parse_error(self, graph):
        with pytest.raises(UnknownQueryError) as excinfo:
            repro.open(graph).query("a-b, c-d")
        assert "not connected" in str(excinfo.value)

    def test_unknown_engine_suggests_near_misses(self, graph):
        with pytest.raises(UnknownEngineError) as excinfo:
            repro.open(graph).engine("radss")
        assert "did you mean 'RADS'" in str(excinfo.value)


class TestLabeledSession:
    """Satellite: the labeled path end-to-end through the front door."""

    @pytest.fixture(scope="class")
    def labeled_graph(self, graph):
        from repro.graph.labeled import label_randomly

        return label_randomly(graph, 3, seed=0)

    @pytest.mark.parametrize("dsl,labels", [
        ("a:0-b:1, b-c:0, c-a", (0, 1, 0)),
        ("a:2-b:2, b-c:2, c-a", (2, 2, 2)),
        ("hub:0-x:1, hub-y:1, hub-z:2", (0, 1, 1, 2)),
    ])
    def test_counts_match_labeled_embeddings(
        self, labeled_graph, dsl, labels
    ):
        from repro.enumeration.labeled import (
            LabeledPattern,
            labeled_embeddings,
        )

        result = (
            repro.open(labeled_graph)
            .engine("single").query(dsl).run(collect=True)
        )
        resolved = repro.resolve_query(dsl)
        assert resolved.labels == labels
        reference = labeled_embeddings(
            labeled_graph, LabeledPattern(resolved.pattern, labels)
        )
        assert result.embedding_count == len(reference)
        assert sorted(result.embeddings) == sorted(reference)

    def test_labeled_pattern_object_through_session(self, labeled_graph):
        from repro.enumeration.labeled import (
            LabeledPattern,
            labeled_embeddings,
        )
        from repro.query.patterns import triangle

        query = LabeledPattern(triangle(), (0, 0, 1))
        result = repro.open(labeled_graph).engine("oracle").query(query).run()
        assert result.embedding_count == len(
            labeled_embeddings(labeled_graph, query)
        )

    def test_limit_caps_labeled_enumeration(self, labeled_graph):
        result = (
            repro.open(labeled_graph).engine("single")
            .query("a:0-b:0").run(collect=True, limit=2)
        )
        assert result.embedding_count == 2 and len(result.embeddings) == 2

    def test_capability_enforced_both_selection_orders(self, labeled_graph):
        from repro.api import CapabilityError

        with pytest.raises(CapabilityError, match="Single"):
            repro.open(labeled_graph).engine("rads").query("a:0-b:1")
        with pytest.raises(CapabilityError, match="labeled"):
            repro.open(labeled_graph).query("a:0-b:1").engine("rads")

    def test_labeled_query_needs_labeled_graph(self, graph):
        with pytest.raises(ValueError, match="LabeledGraph"):
            repro.open(graph).query("a:0-b:1")

    def test_labeled_graph_session_still_runs_unlabeled(self, labeled_graph):
        result = (
            repro.open(labeled_graph).with_cluster(machines=3)
            .engine("rads").query("q2").run()
        )
        assert not result.failed

    def test_labeled_queries_not_gridable(self, labeled_graph):
        session = repro.open(labeled_graph).engine("single").query("a:0-b:1")
        with pytest.raises(ValueError, match="grid"):
            session.run_grid()


class TestLoadGraphSuffix:
    """Satellite: extension dispatch is case-insensitive."""

    def test_uppercase_npz_round_trips(self, graph, tmp_path):
        from repro.api import load_graph
        from repro.graph.io import save_binary

        path = tmp_path / "ROAD.NPZ"
        save_binary(graph, str(path))
        assert load_graph(path) == graph
        assert repro.open(str(path)).graph == graph

    def test_mixed_case_edges(self, graph, tmp_path):
        from repro.api import load_graph
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.Edges"
        save_edge_list(graph, str(path))
        assert load_graph(path) == graph

    def test_unknown_suffix_names_offender(self, tmp_path):
        from repro.api import load_graph

        with pytest.raises(ValueError, match=r"\.graphml"):
            load_graph(tmp_path / "g.graphml")


class TestReviewRegressions:
    """Fixes from the PR-3 review: failure paths and selection atomicity."""

    def test_labeled_oom_returns_failed_result(self):
        from repro.graph.labeled import label_randomly

        dense = label_randomly(erdos_renyi(400, 0.2, seed=5), 2, seed=0)
        result = (
            repro.open(dense)
            .with_cluster(machines=2, memory_mb=0.001)
            .engine("single").query("a:0-b:0, b-c:0, c-a").run()
        )
        assert result.failed and "OOM" in result.failure
        assert result.embedding_count == 0
        assert RunResult.from_dict(result.to_dict()) == result

    def test_rejected_engine_keeps_previous_selection(self, graph):
        from repro.api import CapabilityError
        from repro.graph.labeled import label_randomly

        session = repro.open(label_randomly(graph, 2, seed=0))
        session.engine("single").query("a:0-b:1")
        before = session.run().embedding_count
        with pytest.raises(CapabilityError):
            session.engine("rads")
        # The session still runs as Single, and a fresh labeled query is
        # not spuriously rejected against the failed selection.
        session.query("a:1-b:0")
        result = session.run()
        assert result.engine == "Single"
        session.query("a:0-b:1")
        assert session.run().embedding_count == before

    def test_rejected_labeled_query_keeps_previous_selection(self, graph):
        from repro.api import CapabilityError
        from repro.graph.labeled import label_randomly

        session = repro.open(label_randomly(graph, 2, seed=0))
        session.with_cluster(machines=2).engine("rads").query("q2")
        with pytest.raises(CapabilityError):
            session.query("a:0-b:1")
        result = session.run()  # still the unlabeled q2 selection
        assert result.engine == "RADS"
        assert result.pattern_name == "tailed_triangle"

    def test_mixed_int_and_symbolic_labels_do_not_collide(self):
        lp = repro.pattern("a:0-b:person, b-c:0, c-a")
        assert lp.labels == (0, 1, 0)
        lp2 = repro.pattern("a:1-b:x, b-c:y")
        assert lp2.labels == (1, 0, 2)


class TestImportWeight:
    def test_a_serial_run_loads_no_service_store_or_shard_runtime(self):
        """``repro.distributed.errors`` is imported for its exception alone:
        the packages resolve their exports lazily, so a serial run never
        loads the coordinator, executors, worker, service or store."""
        script = (
            "import sys, repro\n"
            "from repro.graph import grid_road_network\n"
            "graph = grid_road_network(8, 8, 0.05, seed=1)\n"
            "result = repro.open(graph).with_cluster(machines=2)"
            ".engine('rads').query('q4').run()\n"
            "assert result.embedding_count >= 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout.split()
        assert "repro.core.rads" in loaded
        heavy = ("repro.service", "repro.store") + tuple(
            f"repro.distributed.{name}" for name in ("coordinator", "executor", "worker")
        )
        assert [m for m in loaded if m.startswith(heavy)] == []
