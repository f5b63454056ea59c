"""Tests for the command-line interface."""

import pytest

from repro.cli import load_graph, main, save_graph
from repro.graph import erdos_renyi


@pytest.fixture()
def graph_file(tmp_path):
    graph = erdos_renyi(60, 0.12, seed=17)
    path = tmp_path / "g.npz"
    save_graph(graph, str(path))
    return str(path), graph


class TestIO:
    @pytest.mark.parametrize("ext", ["npz", "edges", "adj"])
    def test_roundtrip_each_format(self, tmp_path, ext):
        graph = erdos_renyi(40, 0.15, seed=18)
        path = str(tmp_path / f"g.{ext}")
        save_graph(graph, path)
        assert load_graph(path) == graph

    def test_unknown_format(self, tmp_path):
        with pytest.raises(SystemExit):
            load_graph(str(tmp_path / "g.xyz"))


class TestCommands:
    def test_generate(self, tmp_path, capsys):
        out = str(tmp_path / "road.npz")
        assert main([
            "generate", "--dataset", "roadnet", "--scale", "0.1",
            "--out", out,
        ]) == 0
        assert "roadnet" in capsys.readouterr().out
        assert load_graph(out).num_vertices > 0

    def test_enumerate(self, graph_file, capsys):
        path, _ = graph_file
        assert main([
            "enumerate", "--graph", path, "--query", "q2",
            "--engine", "RADS", "--machines", "3", "--show", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "RADS" in out and "emb=" in out

    def test_enumerate_all_engines_agree(self, graph_file, capsys):
        path, _ = graph_file
        counts = set()
        for engine in ("RADS", "PSgL", "Single"):
            main([
                "enumerate", "--graph", path, "--query", "triangle",
                "--engine", engine, "--machines", "2",
            ])
            out = capsys.readouterr().out
            counts.add(out.split("emb=")[1].split()[0])
        assert len(counts) == 1

    def test_memory_mb_zero_means_unlimited(self, graph_file, capsys):
        path, _ = graph_file
        assert main([
            "enumerate", "--graph", path, "--query", "q2",
            "--engine", "rads", "--machines", "3", "--memory-mb", "0",
        ]) == 0
        assert "emb=" in capsys.readouterr().out

    def test_bad_config_is_clean_error(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit) as excinfo:
            main([
                "enumerate", "--graph", path, "--query", "q2",
                "--engine", "rads", "--machines", "0",
            ])
        assert "machines" in str(excinfo.value)

    def test_enumerate_oom_exit_code(self, tmp_path, capsys):
        dense = erdos_renyi(120, 0.25, seed=19)
        path = str(tmp_path / "dense.npz")
        save_graph(dense, path)
        code = main([
            "enumerate", "--graph", path, "--query", "q5",
            "--engine", "TwinTwig", "--machines", "3", "--memory-mb", "1",
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_bad_query(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit):
            main(["enumerate", "--graph", path, "--query", "nope"])

    def test_bad_engine(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit):
            main([
                "enumerate", "--graph", path, "--query", "q1",
                "--engine", "nope",
            ])

    def test_plan(self, capsys):
        assert main(["plan", "--query", "q5"]) == 0
        out = capsys.readouterr().out
        assert "matching order" in out
        assert "round 0" in out

    def test_plan_with_graph(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["plan", "--query", "q4", "--graph", path]) == 0
        assert "expansion" in capsys.readouterr().out

    def test_profile(self, graph_file, capsys):
        path, graph = graph_file
        assert main(["profile", "--graph", path]) == 0
        out = capsys.readouterr().out
        assert f"vertices: {graph.num_vertices}" in out
        assert "triangles:" in out

    def test_enumerate_extension_engines(self, graph_file, capsys):
        path, _ = graph_file
        counts = set()
        for engine in ("Multiway", "Replication", "BigJoin", "Single"):
            assert main([
                "enumerate", "--graph", path, "--query", "q2",
                "--engine", engine, "--machines", "3",
            ]) == 0
            out = capsys.readouterr().out
            counts.add(out.split("emb=")[1].split()[0])
        assert len(counts) == 1

    def test_enumerate_with_straggler(self, graph_file, capsys):
        path, _ = graph_file
        assert main([
            "enumerate", "--graph", path, "--query", "q2",
            "--engine", "RADS", "--machines", "3", "--straggler", "4",
        ]) == 0
        assert "emb=" in capsys.readouterr().out

    def test_labeled_command(self, graph_file, capsys):
        path, _ = graph_file
        assert main([
            "labeled", "--graph", path, "--query", "triangle",
            "--query-labels", "0,1,2", "--num-labels", "3",
            "--show", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "labeled embeddings" in out
        assert main([
            "labeled", "--graph", path, "--query", "path3",
            "--query-labels", "0,0,0", "--num-labels", "1", "--limit", "0",
        ]) == 0
        assert capsys.readouterr().out.startswith("0 labeled embeddings")

    def test_labeled_rejects_bad_label_count(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit):
            main([
                "labeled", "--graph", path, "--query", "triangle",
                "--query-labels", "0,1",
            ])

    def test_labeled_rejects_out_of_range_labels(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit):
            main([
                "labeled", "--graph", path, "--query", "triangle",
                "--query-labels", "0,1,9", "--num-labels", "3",
            ])

    def test_labeled_rejects_garbage_labels(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit):
            main([
                "labeled", "--graph", path, "--query", "triangle",
                "--query-labels", "a,b,c",
            ])


class TestRegistryResolution:
    """Engine/query lookups go through the repro.api registry."""

    def test_engine_name_case_insensitive(self, graph_file, capsys):
        path, _ = graph_file
        for spelling in ("rads", "RADS", "Rads"):
            assert main([
                "enumerate", "--graph", path, "--query", "q2",
                "--engine", spelling, "--machines", "3",
            ]) == 0
            assert "RADS" in capsys.readouterr().out

    def test_engine_alias(self, graph_file, capsys):
        path, _ = graph_file
        assert main([
            "enumerate", "--graph", path, "--query", "q2",
            "--engine", "oracle", "--machines", "2",
        ]) == 0
        assert "Single" in capsys.readouterr().out

    def test_query_name_case_insensitive(self, graph_file, capsys):
        path, _ = graph_file
        assert main([
            "enumerate", "--graph", path, "--query", "Q2",
            "--engine", "rads", "--machines", "3",
        ]) == 0
        assert "emb=" in capsys.readouterr().out
        assert main(["plan", "--query", "Q5"]) == 0
        assert "matching order" in capsys.readouterr().out

    def test_bad_engine_lists_canonical_names_and_aliases(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit) as excinfo:
            main([
                "enumerate", "--graph", path, "--query", "q1",
                "--engine", "nope",
            ])
        message = str(excinfo.value)
        assert "TwinTwig" in message
        assert "aliases: tt" in message
        assert "Single" in message

    def test_bad_query_lists_names(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit) as excinfo:
            main(["enumerate", "--graph", path, "--query", "nope"])
        message = str(excinfo.value)
        assert "q4" in message and "triangle" in message


class TestJsonOutput:
    def test_json_record(self, graph_file, capsys):
        import json

        path, _ = graph_file
        assert main([
            "enumerate", "--graph", path, "--query", "q2",
            "--engine", "rads", "--machines", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "RADS"
        assert payload["failed"] is False
        assert payload["embedding_count"] > 0
        assert payload["embeddings"] is None
        assert payload["config"]["machines"] == 3
        assert payload["counters"]

    def test_json_with_show_includes_embeddings(self, graph_file, capsys):
        import json

        path, _ = graph_file
        assert main([
            "enumerate", "--graph", path, "--query", "triangle",
            "--engine", "single", "--machines", "2",
            "--show", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["embeddings"]) == 2
        # The embedded config must describe how the run really executed.
        assert payload["config"]["collect"] is True

    def test_json_failed_run(self, tmp_path, capsys):
        import json

        from repro.graph import erdos_renyi as er

        dense = er(120, 0.25, seed=19)
        path = str(tmp_path / "dense.npz")
        save_graph(dense, path)
        assert main([
            "enumerate", "--graph", path, "--query", "q5",
            "--engine", "TwinTwig", "--machines", "3",
            "--memory-mb", "1", "--json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is True
        assert payload["failure"]
        assert payload["counters"], "OOM runs keep per-machine counters"


class TestExplainCommand:
    def test_explain_plain(self, capsys):
        assert main(["explain", "--query", "q4"]) == 0
        out = capsys.readouterr().out
        for fragment in ("house via RADS", "round 0", "matching order:",
                         "symmetry breaking:", "runner-up"):
            assert fragment in out

    def test_explain_json(self, capsys):
        import json

        assert main(["explain", "--query", "q4", "--engine", "crystal",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["engine"] == "Crystal"
        assert record["pattern_name"] == "house"
        assert record["rounds"] and record["matching_order"]
        assert record["symmetry_conditions"] == [[1, 2]]
        assert "core" in record["extras"]

    def test_explain_with_graph_estimates(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["explain", "--query", "q4", "--graph", path]) == 0
        assert "expansion" in capsys.readouterr().out

    def test_explain_dsl_query(self, capsys):
        assert main(["explain", "--query", "a-b, b-c, c-a"]) == 0
        assert "triangle" in capsys.readouterr().out

    def test_explain_bad_query_and_engine(self):
        with pytest.raises(SystemExit, match="did you mean"):
            main(["explain", "--query", "q44"])
        with pytest.raises(SystemExit, match="did you mean"):
            main(["explain", "--query", "q4", "--engine", "radss"])

    def test_enumerate_accepts_dsl(self, graph_file, capsys):
        path, _ = graph_file
        assert main([
            "enumerate", "--graph", path, "--query", "a-b-c-a",
            "--engine", "single", "--machines", "2",
        ]) == 0
        assert "triangle" in capsys.readouterr().out

    def test_labeled_accepts_dsl_labels(self, graph_file, capsys):
        path, _ = graph_file
        assert main([
            "labeled", "--graph", path,
            "--query", "a:0-b:1, b-c:0, c-a", "--num-labels", "3",
        ]) == 0
        assert "labels [0, 1, 0]" in capsys.readouterr().out

    def test_labeled_rejects_double_label_source(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit, match="already carries labels"):
            main([
                "labeled", "--graph", path, "--query", "a:0-b:1",
                "--query-labels", "0,1",
            ])

    def test_labeled_requires_some_labels(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit, match="query-labels is required"):
            main(["labeled", "--graph", path, "--query", "q2"])

    def test_uppercase_graph_suffix(self, tmp_path, capsys):
        out = str(tmp_path / "ROAD.NPZ")
        assert main([
            "generate", "--dataset", "roadnet", "--scale", "0.05",
            "--out", out,
        ]) == 0
        assert main([
            "enumerate", "--graph", out, "--query", "q2",
            "--engine", "rads", "--machines", "2",
        ]) == 0
        assert "RADS" in capsys.readouterr().out

    def test_enumerate_labeled_query_is_clean_error(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit, match="LabeledGraph"):
            main([
                "enumerate", "--graph", path,
                "--query", "a:0-b:1, b-c:0, c-a", "--engine", "single",
            ])


class TestInputChecks:
    """Bad paths and numbers end in one line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--query", "q4"],
        ["profile"],
        ["serve"],
        ["plan", "--query", "q4"],
        ["labeled", "--query", "q2", "--query-labels", "0,0,0"],
        ["explain", "--query", "q4"],
    ])
    def test_missing_graph_file_names_the_path(self, tmp_path, argv):
        missing = str(tmp_path / "missing.npz")
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--graph", missing])
        assert isinstance(excinfo.value.code, str)
        assert missing in excinfo.value.code

    @pytest.mark.parametrize("port", ["70000", "-1", "http"])
    @pytest.mark.parametrize("argv", [
        ["serve", "--graph", "g.npz"],
        ["worker"],
        ["submit", "--ping"],
        ["metrics"],
        ["events"],
        ["health"],
        ["page", "--query", "q4"],
        ["lookup", "--query", "q4", "--vertex", "0"],
        ["ingest", "--add", "0-1"],
        ["subscribe", "--query", "q4"],
    ])
    def test_out_of_range_port_is_a_usage_error(self, capsys, argv, port):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--port", port])
        assert excinfo.value.code == 2
        assert "--port" in capsys.readouterr().err

    def test_port_bounds_are_inclusive(self):
        from repro.cli import build_parser

        for port in ("0", "65535"):
            args = build_parser().parse_args(["submit", "--port", port])
            assert args.port == int(port)

    @pytest.fixture(scope="class")
    def live_port(self):
        """A running server, so a bad interval would reach the sleep."""
        from repro.api.config import RunConfig
        from repro.service.server import QueryServer

        server = QueryServer(erdos_renyi(20, 0.2, seed=3), RunConfig(machines=2))
        with server.start():
            yield str(server.address[1])

    @pytest.mark.parametrize("interval", ["-1", "nan", "inf", "soon"])
    @pytest.mark.parametrize("argv", [
        ["metrics", "--watch", "--count", "2"],
        ["events", "--follow"],
        ["health", "--watch"],
    ])
    def test_bad_interval_is_a_usage_error(
        self, capsys, live_port, argv, interval
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--port", live_port, "--interval", interval])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--interval" in err
        assert f"expected non-negative seconds, got {interval!r}" in err
