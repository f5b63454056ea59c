"""Protocol transcript golden: every op, valid and malformed, replayed.

``tests/data/protocol_transcript.json`` was captured from the commit
*before* the server's 16-arm ``if op ==`` chain and per-handler
validation preambles were replaced by the :data:`repro.service.protocol.OPS`
table, and is asserted line by line: a fixed script of request lines
(every op x {valid, each field malformed, each required field missing,
each optional field ``null``}) is driven through
``QueryServer._dispatch`` on a small fixed graph with a store dir and a
request log, and every response, pushed delta line and log record must
replay exactly (volatile values — timings, wall-clock stamps, pids,
trace ids — are normalised to type tags).

The only intended differences are the ``explain`` field fixes listed in
:data:`EXPLAIN_FIXES`; the golden file itself stays the parent's capture.

``python tests/test_protocol_transcript.py`` rewrites the file from
whatever server is checked out; only do that from a commit whose
responses are the reference.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

import repro.obs.events as events
from repro.api.config import RunConfig
from repro.graph import community_graph
from repro.service.server import QueryServer

GOLDEN = Path(__file__).parent / "data" / "protocol_transcript.json"

#: Values that differ run to run; replaced by a tag naming their type.
VOLATILE_KEYS = {
    "uptime_seconds", "ts", "stored_at", "pid", "trace_id", "duration",
    "seconds", "wall_seconds", "last_seen", "first_seen", "age",
    "sum", "mean", "min", "max", "p50", "p95", "p99", "p95_seconds",
    "age_seconds", "dir",
}
#: Per-request diagnostics: only their key set is pinned.
SHAPE_ONLY_KEYS = {"trace", "profile"}

#: The intended differences from the parent's capture: ``explain``
#: validates its fields through the same checkers as ``submit``.  A
#: string is the error the line now answers; ``"explain/valid"`` means
#: the line is now served exactly as the plain request is (the parent
#: answered ``unknown engine 'None'`` for a null engine, stringified a
#: non-string query or engine into an unknown-name error, and read a
#: null or non-bool ``estimates`` by truthiness).
EXPLAIN_FIXES = {
    "explain/bad query=7": "explain needs a 'query' (name or pattern DSL)",
    "explain/bad engine=5":
        "invalid 'engine' field: expected an engine name string, got 5",
    "explain/bad estimates='no'":
        "invalid 'estimates' field: expected a boolean, got 'no'",
    "explain/engine=null": "explain/valid",
    "explain/estimates=null": "explain/valid",
}

#: op -> (valid base request, optional fields with a valid value,
#: malformed values per field).  Required fields are the base's keys.
CASES: dict[str, tuple[dict, dict, dict]] = {
    "submit": (
        {"query": "triangle"},
        {"engine": "rads", "priority": 5, "timeout": 30, "collect": True,
         "limit": 3, "memory_mb": 64, "tenant": "acme", "trace": True,
         "profile": True},
        {"query": [7, ""], "engine": [7], "priority": ["high", True],
         "timeout": [-1, "soon"], "collect": ["yes", 1],
         "limit": [0, True, 2.5], "memory_mb": ["8", 0],
         "tenant": ["", 7], "trace": ["yes"], "profile": [1]},
    ),
    "explain": (
        {"query": "q4"},
        {"engine": "rads", "estimates": False},
        {"query": [7, ""], "engine": [5], "estimates": ["no"]},
    ),
    "page": (
        {"query": "triangle", "limit": 4},
        {"engine": "rads", "offset": 2},
        {"query": [7], "engine": [7], "limit": [0, True, "4"],
         "offset": [-1, 1.5]},
    ),
    "lookup": (
        {"query": "triangle", "vertex": 0},
        {"engine": "rads"},
        {"query": [""], "engine": [7], "vertex": [-1, True, "0"]},
    ),
    "aggregate": (
        {"query": "triangle"},
        {"engine": "rads", "group_by": "orbit"},
        {"query": [7], "engine": [7], "group_by": ["median", 3]},
    ),
    "metrics": ({}, {"format": "text"}, {"format": ["xml", 1]}),
    "events": (
        {},
        {"level": "info", "component": "registry", "since": 0, "limit": 2},
        {"level": ["loud", 3], "component": ["", 7],
         "since": [-1, 1.5, True], "limit": [0, True]},
    ),
    "announce": (
        {"address": "127.0.0.1:9410"},
        {"graphs": ["fp"], "workers": 2, "pid": 99},
        {"address": [7, "", "no-port-here:xx"], "graphs": ["fp", [1]]},
    ),
    "register": (
        {"query": "triangle"},
        {"tenant": "acme", "collect": False, "push": True},
        {"query": [7, ""], "tenant": ["", 7], "collect": ["yes"],
         "push": [1]},
    ),
    "poll": (
        {"watch": "w1"},
        {"wait": 0.01},
        {"watch": [7, "", "w99"], "wait": [-1, "x", True]},
    ),
    "ingest": (
        {},
        {},
        {"additions": ["x", [[1]], [[1, True]], [[1, 2, 3]], [[0, 0]]],
         "deletions": [7, [["a", "b"]]]},
    ),
    "unregister": ({"watch": "w1"}, {}, {"watch": [7, ""]}),
    "stats": ({}, {}, {}),
    "ping": ({}, {}, {}),
    "health": ({}, {}, {}),
}


def _op_lines(op: str) -> list[tuple[str, dict]]:
    """(label, request) lines for one op, from its :data:`CASES` entry."""
    base, optional, bad = CASES[op]
    lines = [(f"{op}/valid", dict(base))]
    for field, value in optional.items():
        lines.append((f"{op}/{field}={value!r}", {**base, field: value}))
    for field, values in bad.items():
        for value in values:
            lines.append(
                (f"{op}/bad {field}={value!r}", {**base, field: value})
            )
    for field in base:
        missing = {k: v for k, v in base.items() if k != field}
        lines.append((f"{op}/missing {field}", missing))
        lines.append((f"{op}/{field}=null", {**base, field: None}))
    for field in optional:
        lines.append((f"{op}/{field}=null", {**base, field: None}))
    return lines


def build_script() -> list[tuple[str, dict]]:
    """The fixed request script, in dispatch order.

    Queries first (filling the cache and the store), store reads over
    what they persisted, then the streaming ops (an ingest rebinds the
    graph and evicts both tiers), introspection last so its counters
    describe everything above, ``shutdown`` at the very end.
    """
    lines: list[tuple[str, dict]] = []
    lines += _op_lines("submit")
    lines += [
        ("submit/isomorphic rewrite", {"query": "x-y, y-z, z-x"}),
        ("submit/collect rewrite",
         {"query": "x-y, y-z, z-x", "collect": True, "limit": 2}),
        ("submit/store", {"query": "triangle", "collect": "store"}),
        ("submit/store again", {"query": "a-b, b-c, c-a", "collect": "store"}),
        ("submit/unknown engine", {"query": "triangle", "engine": "nope"}),
        ("submit/unknown query", {"query": "q99"}),
        ("submit/bad dsl", {"query": "a-b, b-"}),
        ("submit/labeled", {"query": "a:0-b:1, b-c:0, c-a"}),
        ("submit/traced miss", {"query": "q1", "trace": True}),
        ("submit/profiled miss", {"query": "q3", "profile": True}),
        ("submit/no id", {"query": "triangle"}),
    ]
    lines += _op_lines("explain")
    lines += [("explain/unknown engine", {"query": "q4", "engine": "nope"})]
    for op in ("page", "lookup", "aggregate"):
        lines += _op_lines(op)
        lines.append((f"{op}/rewrite", {**CASES[op][0], "query": "x-y, y-z, z-x"}))
        lines.append((f"{op}/nothing stored", {**CASES[op][0], "query": "q2"}))
        lines.append((f"{op}/unknown query", {**CASES[op][0], "query": "q99"}))
        lines.append((f"{op}/unknown engine", {**CASES[op][0], "engine": "nope"}))
    lines += _op_lines("announce")
    lines += [
        ("announce/again", {"address": "127.0.0.1:9410", "graphs": []}),
        ("announce/withdraw", {"address": "127.0.0.1:9410", "withdraw": True}),
        ("announce/withdraw unknown",
         {"address": "127.0.0.1:9410", "withdraw": True}),
        ("announce/withdraw=null",
         {"address": "127.0.0.1:9411", "withdraw": None}),
    ]
    lines += _op_lines("register")  # w1..w4 (valid, tenant, collect, push)
    lines += _op_lines("ingest")
    lines += [
        ("ingest/additions", {"additions": [[0, 7], [1, 13]]}),
        ("ingest/both", {"additions": [[2, 9]], "deletions": [[0, 7]]}),
        ("ingest/duplicate", {"additions": [[1, 13]]}),
        ("ingest/nulls", {"additions": None, "deletions": None}),
        ("ingest/additions=null", {"additions": None, "deletions": [[2, 9]]}),
    ]
    lines += _op_lines("poll")
    lines += _op_lines("unregister")
    lines += [("unregister/again", {"watch": "w1"})]
    lines += [("submit/after ingest", {"query": "triangle"})]
    for op in ("stats", "ping", "health", "metrics", "events"):
        lines += _op_lines(op)
    lines += [
        ("unknown op", {"op": "frobnicate"}),
        ("op=5", {"op": 5}),
        ("op=[]", {"op": ["submit"]}),
        ("missing op", {"op": None}),
        ("shutdown", {"op": "shutdown"}),
    ]
    script = []
    for number, (label, request) in enumerate(lines, 1):
        message = dict(request)
        message.setdefault("op", label.split("/")[0])
        if message["op"] is None:
            del message["op"]
        if label != "submit/no id":
            message["id"] = number
        script.append((label, message))
    return script


def normalise(value, key=None):
    """``value`` with run-to-run noise replaced by type tags."""
    if key in SHAPE_ONLY_KEYS and isinstance(value, dict):
        return {"<keys>": sorted(value)}
    if key in VOLATILE_KEYS and value is not None:
        return f"<{type(value).__name__}>"
    if key == "buckets":  # which bucket a timing lands in is noise too
        return f"<{len(value)} buckets>"
    if key == "slow_queries":  # ranked by duration
        return sorted(
            (normalise(entry) for entry in value),
            key=lambda entry: json.dumps(entry, sort_keys=True),
        )
    if isinstance(value, dict):
        return {k: normalise(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [normalise(v, key) for v in value]
    if isinstance(value, str) and key == "result" and "repro_" in value:
        # Prometheus-style exposition text: keep the sample names.
        return sorted({line.split()[0].split("{")[0]
                       for line in value.splitlines()
                       if line and not line.startswith("#")})
    return value


def run_transcript() -> dict:
    """Drive the script through a fresh server; normalised records."""
    saved = events._DEFAULT
    events._DEFAULT = events.EventJournal()  # the journal is process-wide
    try:
        with tempfile.TemporaryDirectory() as tmp:
            graph = community_graph(3, 6, intra_prob=0.6, inter_edges=1, seed=3)
            log = Path(tmp) / "requests.jsonl"
            server = QueryServer(
                graph, RunConfig(machines=2), threads=1,
                store_dir=str(Path(tmp) / "store"), log_path=str(log),
            )
            pushed: list = []
            attached: list = []
            lines = []
            try:
                for label, request in build_script():
                    response = server._dispatch(
                        request, push=pushed.append, attached=attached
                    )
                    lines.append({
                        "label": label,
                        "request": request,
                        "response": normalise(response),
                    })
            finally:
                server.close()
            logged = [
                normalise(json.loads(line))
                for line in log.read_text().splitlines()
            ]
    finally:
        events._DEFAULT = saved
    # Through JSON once, so tuples and int keys compare as the wire sees them.
    return json.loads(json.dumps(
        {"lines": lines, "pushed": normalise(pushed), "log": logged}
    ))


def _is_explanation(record: dict) -> bool:
    return "kind" not in record and "embedding_count" not in record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def replayed() -> dict:
    return run_transcript()


def test_script_matches_the_golden(golden):
    assert [
        (line["label"], line["request"]) for line in golden["lines"]
    ] == [
        (label, json.loads(json.dumps(request)))
        for label, request in build_script()
    ]


def test_every_response_replays(golden, replayed):
    plain = next(
        line["response"]["result"] for line in golden["lines"]
        if line["label"] == "explain/valid"
    )
    for was, now in zip(golden["lines"], replayed["lines"], strict=True):
        label, response = was["label"], now["response"]
        fix = EXPLAIN_FIXES.get(label)
        if fix is None:
            assert response == was["response"], label
        elif fix == "explain/valid":
            assert response["ok"] and response["result"] == plain, label
        else:
            assert response == {
                "id": was["request"]["id"], "ok": False, "error": fix,
            }, label
    assert set(EXPLAIN_FIXES) <= {line["label"] for line in golden["lines"]}


def test_pushed_lines_and_request_log_replay(golden, replayed):
    assert replayed["pushed"] == golden["pushed"]
    # Explanation records follow the explain fixes (one request that was
    # served is now refused and one the other way round); every other
    # record — results, store reads, deltas — is unchanged, in order.
    assert [
        record for record in replayed["log"] if not _is_explanation(record)
    ] == [record for record in golden["log"] if not _is_explanation(record)]
    served = [
        line["response"]["result"] for line in replayed["lines"]
        if line["label"].startswith("explain/") and line["response"]["ok"]
    ]
    logged = [
        {key: value for key, value in record.items() if key != "ts"}
        for record in replayed["log"] if _is_explanation(record)
    ]
    assert logged == served


def _write_golden(record: dict) -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    body = ",\n".join(
        f'"{section}": [\n'
        + ",\n".join(json.dumps(item, sort_keys=True) for item in record[section])
        + "\n]"
        for section in ("lines", "pushed", "log")
    )
    GOLDEN.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    _write_golden(run_transcript())
    print(f"wrote {GOLDEN}")
