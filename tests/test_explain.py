"""First-class explain(): QueryExplanation content and serialization."""

import json
from dataclasses import asdict

import pytest

import repro
from repro.api import default_registry
from repro.enumeration.labeled import LabeledPattern
from repro.graph import erdos_renyi
from repro.graph.labeled import label_randomly
from repro.query.explain import QueryExplanation, explain_query
from repro.query.patterns import house, named_patterns, triangle
from repro.query.plan import best_execution_plan, random_star_plan, score_plan
from repro.query.symmetry import symmetry_breaking_constraints

PAPER_ENGINES = [spec.name for spec in default_registry().specs(paper=True)]


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.12, seed=17)


class TestExplainQuery:
    def test_matches_best_plan(self):
        pattern = house()
        plan = best_execution_plan(pattern)
        ex = explain_query(pattern)
        assert [r.pivot for r in ex.rounds] == [u.pivot for u in plan.units]
        assert ex.matching_order == plan.matching_order()
        assert ex.score == pytest.approx(score_plan(plan))
        assert ex.symmetry_conditions == symmetry_breaking_constraints(
            pattern
        )
        assert ex.automorphism_count == 2
        assert ex.start_vertex == plan.start_vertex

    def test_units_cover_all_edges_once(self):
        ex = explain_query(named_patterns()["q6"])
        seen = set()
        for unit in ex.rounds:
            for e in (*unit.star_edges, *unit.sibling_edges,
                      *unit.cross_edges):
                key = (min(e), max(e))
                assert key not in seen
                seen.add(key)
        assert seen == set(named_patterns()["q6"].edges())

    def test_estimates_only_with_graph(self, graph):
        bare = explain_query(house())
        assert all(r.estimated_results is None for r in bare.rounds)
        assert bare.graph_summary is None
        rich = explain_query(house(), graph=graph)
        assert all(r.estimated_results is not None for r in rich.rounds)
        assert rich.graph_summary["num_vertices"] == graph.num_vertices

    def test_alternatives_ranked_and_exclude_chosen(self):
        ex = explain_query(house())
        scores = [alt.score for alt in ex.alternatives]
        assert scores == sorted(scores, reverse=True)
        assert all(score <= ex.score for score in scores)
        assert ex.plan_space["num_plans"] >= len(ex.alternatives) + 1

    def test_custom_plan_reported(self):
        pattern = house()
        plan = random_star_plan(pattern, seed=3)
        ex = explain_query(pattern, plan=plan)
        assert [r.pivot for r in ex.rounds] == [u.pivot for u in plan.units]

    def test_labeled_query_carries_labels(self):
        lp = LabeledPattern(triangle(), (0, 1, 0))
        ex = explain_query(lp)
        assert ex.labels == (0, 1, 0)
        assert "labels: [0, 1, 0]" in str(ex)

    def test_str_is_readable(self, graph):
        text = str(explain_query(house(), engine="RADS", graph=graph))
        for fragment in ("plan:", "round 0", "matching order:",
                         "symmetry breaking:", "runner-up", "~"):
            assert fragment in text


class TestSerialization:
    @pytest.mark.parametrize("with_graph", [False, True])
    def test_json_round_trip(self, graph, with_graph):
        ex = explain_query(
            house(), engine="RADS", graph=graph if with_graph else None
        )
        payload = json.dumps(ex.to_dict(), sort_keys=True)
        rebuilt = QueryExplanation.from_dict(json.loads(payload))
        assert rebuilt.to_dict() == ex.to_dict()
        assert rebuilt.matching_order == ex.matching_order
        assert rebuilt.rounds == ex.rounds

    def test_dict_is_json_safe(self):
        lp = LabeledPattern(triangle(), (1, 2, 1))
        payload = explain_query(lp, engine="Single").to_dict()
        json.dumps(payload)  # must not raise
        assert payload["labels"] == [1, 2, 1]
        assert payload["symmetry_conditions"] == [
            list(c) for c in symmetry_breaking_constraints(triangle())
        ]


def asdict_reference(ex: QueryExplanation) -> dict:
    """The ``dataclasses.asdict`` spelling of ``to_dict`` (the reference
    the field-by-field one is held to)."""
    data = asdict(ex)
    data["rounds"] = [
        {
            **asdict(unit),
            "leaves": list(unit.leaves),
            "star_edges": [list(e) for e in unit.star_edges],
            "sibling_edges": [list(e) for e in unit.sibling_edges],
            "cross_edges": [list(e) for e in unit.cross_edges],
        }
        for unit in ex.rounds
    ]
    data["symmetry_conditions"] = [list(c) for c in ex.symmetry_conditions]
    data["alternatives"] = [
        {**asdict(alt), "pivots": list(alt.pivots)} for alt in ex.alternatives
    ]
    data["labels"] = None if ex.labels is None else list(ex.labels)
    return data


class TestToDictParity:
    @pytest.mark.parametrize("with_graph", [False, True])
    def test_every_engine_and_catalogue_query_matches_asdict(
        self, graph, with_graph
    ):
        registry = default_registry()
        patterns = {p.name: p for p in named_patterns().values()}
        for spec in registry.specs():
            engine = registry.create(spec.name, graph=graph)
            for pattern in patterns.values():
                ex = engine.explain(
                    pattern, graph=graph if with_graph else None
                )
                want = json.dumps(asdict_reference(ex), sort_keys=True)
                data = ex.to_dict()
                assert json.dumps(data, sort_keys=True) == want, (
                    spec.name, pattern.name
                )
                # The record is the caller's: mutating it (nested
                # containers included) leaves the explanation alone.
                data["plan_space"]["num_plans"] = -1
                data["extras"]["injected"] = True
                for value in data["extras"].values():
                    if isinstance(value, list):
                        value.append("injected")
                assert json.dumps(ex.to_dict(), sort_keys=True) == want


class TestEngineExplain:
    """Acceptance: a serializable plan for all five engines on q4."""

    @pytest.mark.parametrize("name", PAPER_ENGINES)
    def test_all_paper_engines_explain_q4(self, graph, name):
        session = repro.open(graph).with_cluster(machines=3)
        ex = session.engine(name).query("q4").explain()
        data = ex.to_dict()
        json.dumps(data)
        assert ex.engine == name
        assert ex.pattern_name == "house"
        assert data["rounds"] and data["matching_order"]
        assert data["symmetry_conditions"] == [[1, 2]]
        assert all(
            r["estimated_results"] is not None for r in data["rounds"]
        )
        assert QueryExplanation.from_dict(data).to_dict() == data

    def test_session_explain_without_estimates(self, graph):
        ex = (
            repro.open(graph).engine("rads").query("q4")
            .explain(with_estimates=False)
        )
        assert all(r.estimated_results is None for r in ex.rounds)

    def test_session_explain_requires_selection(self, graph):
        session = repro.open(graph).engine("rads")
        with pytest.raises(RuntimeError, match="no query selected"):
            session.explain()
        with pytest.raises(RuntimeError, match="no engine selected"):
            repro.open(graph).query("q4").explain()

    def test_rads_explain_follows_plan_provider(self, graph):
        plan = random_star_plan(house(), seed=5)
        session = repro.open(graph).engine(
            "rads", plan_provider=lambda pattern: plan
        ).query("q4")
        ex = session.explain()
        assert [r.pivot for r in ex.rounds] == [u.pivot for u in plan.units]
        assert ex.extras["grouping"] == "proximity"

    @pytest.mark.parametrize("engine", ["rads", "twintwig"])
    def test_one_explain_enumerates_the_plan_space_once(
        self, graph, engine, monkeypatch
    ):
        import repro.query.plan as planning

        seen = []
        enumerate_plans = planning.enumerate_execution_plans

        def counted(pattern, *args, **kwargs):
            seen.append(pattern)
            return enumerate_plans(pattern, *args, **kwargs)

        monkeypatch.setattr(planning, "enumerate_execution_plans", counted)
        monkeypatch.setattr("repro.query.explain.enumerate_execution_plans", counted)
        session = repro.open(graph).engine(engine).query("q4")
        explained = session.explain(with_estimates=False)
        assert len(seen) == 1
        assert explained == explain_query(house(), engine=explained.engine,
                                          extras=explained.extras, notes=explained.notes)
        assert len(seen) == 2

    def test_engine_specific_extras(self, graph):
        session = repro.open(graph).query("q4")
        assert "join_units" in session.engine("twintwig").explain().extras
        twigs = session.engine("tt").explain().extras["join_units"]
        assert all(len(u["vertices"]) <= 3 for u in twigs)
        assert "core" in session.engine("crystal").explain().extras
        assert "expansion_order" in session.engine("psgl").explain().extras
        assert "extension_order" in session.engine("wcoj").explain().extras
        notes = session.engine("oracle").explain().notes
        assert "oracle" in notes

    def test_labeled_explain_through_session(self, graph):
        data = label_randomly(graph, 3, seed=0)
        ex = (
            repro.open(data).engine("single").query("a:0-b:1, b-c:0, c-a")
            .explain()
        )
        assert ex.labels == (0, 1, 0)
        assert ex.pattern_name == "triangle"

    def test_direct_engine_explain_without_graph(self):
        from repro.engines.single import SingleMachineEngine

        ex = SingleMachineEngine().explain(triangle())
        assert ex.engine == "Single" and ex.num_rounds >= 1
