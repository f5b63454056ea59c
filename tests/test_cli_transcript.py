"""CLI goldens: every client subcommand's output, and every parser's flags.

``tests/data/cli_transcript.json`` pins what the CLI prints.  A fixed
script of ``repro`` invocations (every client subcommand, plain and
``--json``, the refusals, an unknown engine / query and a dead port) is
run through :func:`repro.cli.main` against an in-process
:class:`~repro.service.server.QueryServer` on a small graph with a store
dir.  For each call the stdout, stderr, exit code and ``SystemExit``
text must replay exactly once run-to-run noise is normalised: wall-clock
stamps, uptime, durations and the bound ports.

``tests/data/cli_parser.json`` pins the argument parser: for every
subcommand, each action's option strings, dest, default, type name,
choices, required flag and help, in order.  ``--help`` output is a
function of these, so this is a "help unchanged" check that does not
depend on how a given argparse version lays the text out.

Both files were captured from the CLI as it stood before its client
subcommands shared one address parser, one connect and one error exit.
The intended differences are listed in :data:`PARSER_FIXES`; the golden
files themselves stay that capture.

``python tests/test_cli_transcript.py`` rewrites both files from
whatever CLI is checked out; only do that from a commit whose output is
the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest

import repro.obs.events as events
from repro.api.config import RunConfig
from repro.cli import build_parser, main
from repro.graph import community_graph
from repro.graph.io import save_binary
from repro.service.client import connect
from repro.service.server import QueryServer
from test_protocol_transcript import VOLATILE_KEYS, normalise

TRANSCRIPT = Path(__file__).parent / "data" / "cli_transcript.json"
PARSER = Path(__file__).parent / "data" / "cli_parser.json"

#: (subcommand, dest) -> the type name that intentionally replaced the
#: captured one: every ``--port`` is range-checked (0-65535) and every
#: ``--interval`` refuses negative seconds at parse time.
PARSER_FIXES = {
    **{
        (command, "port"): "_port"
        for command in (
            "serve", "worker", "submit", "metrics", "events", "health",
            "page", "lookup", "ingest", "subscribe",
        )
    },
    **{
        (command, "interval"): "_seconds"
        for command in ("metrics", "events", "health")
    },
}

CLIENTS = (
    "submit", "metrics", "events", "health", "page", "lookup", "ingest",
    "subscribe",
)

#: (label, argv).  ``{server}`` expands to ``--host H --port P`` of the
#: live server, ``{dead}`` to a port nothing listens on, ``{graph}`` to
#: the server's graph saved as ``.npz``.  Order matters: queries fill
#: the cache and the store, reads follow, an ingest rebinds the graph,
#: the journal and health come last.
SCRIPT: list[tuple[str, str]] = [
    ("submit/ping", "submit {server} --ping"),
    ("submit/plain", "submit {server} --query triangle"),
    ("submit/json", "submit {server} --query triangle --json"),
    ("submit/show", "submit {server} --query q2 --show 3"),
    ("submit/show json", "submit {server} --query q2 --show 3 --json"),
    ("submit/store", "submit {server} --query triangle --store"),
    ("submit/store json", "submit {server} --query x-y,y-z,z-x --store --json"),
    ("submit/store and show", "submit {server} --query triangle --store --show 2"),
    ("submit/stats", "submit {server} --stats"),
    ("submit/metrics", "submit {server} --metrics"),
    ("submit/no query", "submit {server}"),
    ("page/plain", "page {server} --query triangle --limit 4"),
    ("page/json", "page {server} --query triangle --limit 4 --json"),
    ("page/rewrite offset", "page {server} --query x-y,y-z,z-x --offset 2"),
    ("page/limit 0", "page {server} --query triangle --limit 0"),
    ("page/nothing stored", "page {server} --query q2"),
    ("lookup/plain", "lookup {server} --query triangle --vertex 0"),
    ("lookup/json", "lookup {server} --query triangle --vertex 0 --json"),
    ("lookup/show", "lookup {server} --query triangle --vertex 0 --show 1"),
    ("metrics/json", "metrics {server}"),
    ("metrics/text", "metrics {server} --format text"),
    ("metrics/watch 2", "metrics {server} --watch --count 2 --interval 0.01"),
    ("metrics/watch 0", "metrics {server} --watch --count 0"),
    ("ingest/plain", "ingest {server} --add {absent0}"),
    ("ingest/json", "ingest {server} --add {absent1} --delete {absent0} --json"),
    ("ingest/nothing", "ingest {server}"),
    ("ingest/bad spec", "ingest {server} --add zap"),
    ("subscribe/count 1", "subscribe {server} --query triangle --count 1 --show 2"),
    ("subscribe/json", "subscribe {server} --query q2 --count 1 --json"),
    ("events/plain", "events {server}"),
    ("events/json", "events {server} --json"),
    ("events/since", "events {server} --since 2 --json"),
    ("events/limit", "events {server} --limit 2"),
    ("events/level", "events {server} --level info --component streaming"),
    ("health/plain", "health {server}"),
    ("health/json", "health {server} --json"),
    ("submit/unknown engine", "submit {server} --query triangle --engine nope"),
    ("submit/unknown query", "submit {server} --query q99"),
    ("page/unknown engine", "page {server} --query triangle --engine nope"),
    ("lookup/unknown query", "lookup {server} --query q99 --vertex 0"),
    ("explain/unknown engine", "explain --query q4 --engine nope"),
    ("explain/unknown query", "explain --query q99"),
    ("enumerate/unknown engine", "enumerate --graph {graph} --query q4 --engine nope"),
    ("enumerate/unknown query", "enumerate --graph {graph} --query q99"),
    ("plan/unknown query", "plan --query q99"),
    ("labeled/unknown query", "labeled --graph {graph} --query q99 --query-labels 0"),
    *[(f"{command}/dead port", f"{command} {{dead}}"
       + {"page": " --query q4", "lookup": " --query q4 --vertex 0",
          "ingest": " --add 0-1", "subscribe": " --query q4"}.get(command, ""))
      for command in CLIENTS],
]

_CLOCK = re.compile(r"\b\d\d:\d\d:\d\d\b")
_VOLATILE_PAIR = re.compile(
    r"\b(" + "|".join(sorted(VOLATILE_KEYS)) + r")=\S+"
)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _absent_edges(graph, count: int) -> list[tuple[int, int]]:
    """The first ``count`` vertex pairs that are not edges."""
    pairs = (
        (u, v)
        for u in range(graph.num_vertices)
        for v in range(u + 1, graph.num_vertices)
        if not graph.has_edge(u, v)
    )
    return [next(pairs) for _ in range(count)]


def _normalise_output(text: str, replace: dict[str, str]) -> list:
    """Stdout as a list of lines, JSON lines parsed and normalised."""
    for old, new in replace.items():
        text = text.replace(old, new)
    lines = []
    for line in text.splitlines():
        try:
            document = json.loads(line)
        except ValueError:
            document = None
        if isinstance(document, dict):
            lines.append(normalise(document))
        elif line.startswith("repro_"):
            lines.append(line.split()[0])  # exposition sample: name only
        else:
            lines.append(_VOLATILE_PAIR.sub(r"\1=<v>", _CLOCK.sub("<clock>", line)))
    return lines


def _invoke(argv: list[str]) -> dict:
    """Run one CLI call; its stdout, stderr, exit code and exit text."""
    out, err = io.StringIO(), io.StringIO()
    record: dict = {"code": None, "exit": None}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            record["code"] = main(argv)
        except SystemExit as exc:
            if isinstance(exc.code, str):
                record["code"], record["exit"] = 1, exc.code
            else:
                record["code"] = exc.code
    record["stdout"], record["stderr"] = out.getvalue(), err.getvalue()
    return record


def _ingest_when_watched(server, batch: dict) -> threading.Thread:
    """Apply one batch once a new watch is registered (a subscriber is up)."""
    known = len(server.streams.stats()["watches"])

    def run():
        deadline = time.monotonic() + 30
        while len(server.streams.stats()["watches"]) <= known:
            if time.monotonic() > deadline:
                return
            time.sleep(0.005)
        with connect(server.address, timeout=30) as client:
            client.ingest(**batch)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def run_transcript(script=SCRIPT) -> list[dict]:
    """Drive ``script`` through :func:`main` against a fresh server."""
    saved = events._DEFAULT
    events._DEFAULT = events.EventJournal()  # the journal is process-wide
    try:
        with tempfile.TemporaryDirectory() as tmp:
            graph = community_graph(3, 6, intra_prob=0.6, inter_edges=1, seed=3)
            graph_path = str(Path(tmp) / "graph.npz")
            save_binary(graph, graph_path)
            absent = _absent_edges(graph, 3)
            edge = (0, int(graph.neighbors(0)[0]))
            server = QueryServer(
                graph, RunConfig(machines=2), threads=1,
                store_dir=str(Path(tmp) / "store"),
            )
            with server.start():
                host, port = server.address
                dead = _free_port()
                fields = {
                    "server": f"--host {host} --port {port}",
                    "dead": f"--host {host} --port {dead}",
                    "graph": graph_path,
                    **{f"absent{i}": f"{u}-{v}" for i, (u, v) in enumerate(absent)},
                }
                replace = {
                    tmp: "<tmp>", f":{port}": ":<port>", f":{dead}": ":<dead>",
                }
                # One batch per subscribe call: a deletion, then an addition.
                feed = iter([{"deletions": [edge]}, {"additions": [absent[2]]}])
                records = []
                for label, template in script:
                    feeder = None
                    if template.startswith("subscribe {server}"):
                        feeder = _ingest_when_watched(server, next(feed))
                    argv = template.format(**fields).split()
                    record = _invoke(argv)
                    if feeder is not None:
                        feeder.join(timeout=30)
                        assert not feeder.is_alive(), label
                    records.append({
                        "label": label,
                        "argv": template,
                        "code": record["code"],
                        "exit": None if record["exit"] is None
                        else _normalise_output(record["exit"], replace),
                        "stdout": _normalise_output(record["stdout"], replace),
                        "stderr": _normalise_output(record["stderr"], replace),
                    })
    finally:
        events._DEFAULT = saved
    # Through JSON once, so tuples and int keys compare as stored.
    return json.loads(json.dumps(records))


def parser_record() -> dict:
    """Every subcommand's actions, in order, as plain JSON values."""

    def actions(parser: argparse.ArgumentParser) -> list[dict]:
        return [
            {
                "action": type(action).__name__,
                "options": list(action.option_strings),
                "dest": action.dest,
                "default": action.default
                if action.default is None
                or isinstance(action.default, (bool, int, float, str))
                else repr(action.default),
                "type": getattr(action.type, "__name__", None),
                "choices": None if action.choices is None
                or isinstance(action.choices, dict)
                else list(action.choices),
                "required": action.required,
                "help": action.help,
            }
            for action in parser._actions
            if not isinstance(action, argparse._SubParsersAction)
        ]

    root = build_parser()
    sub = next(
        action for action in root._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {
        "prog": root.prog,
        "description": root.description,
        "root": actions(root),
        "commands": {
            name: {
                "help": helps.get(name),
                "alias_of": next(
                    (other for other, parser in sub.choices.items()
                     if parser is command and other != name and other in helps),
                    None,
                ),
                "description": command.description,
                "actions": actions(command),
            }
            for name, command in sub.choices.items()
        },
    }


@pytest.fixture(scope="module")
def replayed() -> list[dict]:
    return run_transcript()


def test_script_matches_the_golden():
    golden = json.loads(TRANSCRIPT.read_text())
    assert [(r["label"], r["argv"]) for r in golden] == [
        (label, argv) for label, argv in SCRIPT
    ]


def test_every_call_replays(replayed):
    golden = json.loads(TRANSCRIPT.read_text())
    for was, now in zip(golden, replayed, strict=True):
        assert now == was, was["label"]


def test_parser_replays():
    golden = json.loads(PARSER.read_text())
    now = parser_record()
    assert {k: v for k, v in now.items() if k != "commands"} == {
        k: v for k, v in golden.items() if k != "commands"
    }
    assert list(now["commands"]) == list(golden["commands"])
    for name, was in golden["commands"].items():
        expected = dict(was, actions=[
            dict(action, type=PARSER_FIXES.get(
                (was["alias_of"] or name, action["dest"]), action["type"]
            ))
            for action in was["actions"]
        ])
        assert now["commands"][name] == expected, name


def _write_goldens() -> None:
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(
        "[\n"
        + ",\n".join(json.dumps(r, sort_keys=True) for r in run_transcript())
        + "\n]\n"
    )
    PARSER.write_text(json.dumps(parser_record(), indent=1) + "\n")


if __name__ == "__main__":
    _write_goldens()
    print(f"wrote {TRANSCRIPT} and {PARSER}")
