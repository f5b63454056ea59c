"""Tests generated from the protocol op table (:data:`protocol.OPS`).

One malformed-field test per (op, field, bad value), driven over a real
socket: the error names the field and the connection stays serviceable.
A checker the table uses without sample values below fails collection,
so a new kind of field cannot land untested.
"""

from __future__ import annotations

import socket
from pathlib import Path

import pytest

from repro.api import RunConfig
from repro.graph import erdos_renyi
from repro.service import QueryServer, protocol

DOCS = Path(__file__).parent.parent / "docs" / "protocol.md"

#: Checker name -> values it must refuse (``None`` is covered by the
#: missing-field cases: required fields read absent and null alike).
BAD = {
    "query": [7, ""],
    "engine": [7, 1.5],
    "name": ["", 7],
    "flag": ["yes", 1],
    "integer": ["high", True, 2.5],
    "positive_int": [0, -1, True, 2.5, "3"],
    "nonneg_int": [-1, 1.5, True, "0"],
    "positive_seconds": [-1, 0, "soon", "8", True, float("nan")],
    "collect_mode": ["yes", 1],
    "one_of": ["loud", 3],
    "edge_list": ["x", [[1]], [[1, True]], [[1, 2, 3]]],
    "string_list": ["fp", [1]],
    "address": [7, "", "no-port-here:xx"],
    "anything": [],
}
#: Checker name -> a value it accepts (to fill the other required fields).
VALID = {
    "query": "triangle",
    "name": "w1",
    "positive_int": 1,
    "nonneg_int": 0,
    "address": "127.0.0.1:9",
}


def _base(op: protocol.Op, without: str) -> dict:
    return {
        name: VALID[field.check.name]
        for name, field in op.fields.items()
        if field.required and name != without
    }


def _cases():
    for op_name, op in protocol.OPS.items():
        for name, field in op.fields.items():
            for value in BAD[field.check.name]:
                yield pytest.param(
                    op_name, name, {**_base(op, name), name: value},
                    id=f"{op_name}.{name}={value!r}",
                )
            if field.required:
                yield pytest.param(
                    op_name, name, _base(op, name),
                    id=f"{op_name}.{name} missing",
                )


@pytest.fixture(scope="module")
def server():
    graph = erdos_renyi(30, 0.2, seed=17)
    with QueryServer(graph, RunConfig(machines=2), threads=1) as server:
        yield server


@pytest.mark.parametrize("op,field,request_fields", _cases())
def test_bad_field_is_named(
    server, op, field, request_fields
):
    with socket.create_connection(server.address, timeout=10) as sock:
        stream = sock.makefile("rwb")
        assert protocol.read_message(stream)["kind"] == "hello"
        protocol.write_message(stream, {"op": op, "id": 1, **request_fields})
        response = protocol.read_message(stream)
        assert response["id"] == 1 and not response["ok"]
        assert repr(field) in response["error"]
        check = protocol.OPS[op].fields[field].check
        if field in request_fields and check.clean is None and (
            "{detail}" in check.problem
        ):
            assert repr(request_fields[field]) in response["error"]
        # The connection survives for the next request.
        protocol.write_message(stream, {"op": "ping", "id": 2})
        assert protocol.read_message(stream)["kind"] == "pong"


def test_every_op_has_a_handler_taking_exactly_its_fields(server):
    import inspect

    for op_name, op in protocol.OPS.items():
        handler = getattr(server, f"_op_{op_name}")
        parameters = inspect.signature(handler).parameters
        if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
            continue  # forwards its kwargs to the scheduler method
        injected = {"sink", "attached"} if op_name == "register" else set()
        assert set(parameters) - injected == set(op.fields), op_name


def test_docs_protocol_md_is_generated_from_the_table():
    assert DOCS.read_text() == protocol.render_docs(), (
        "docs/protocol.md is stale; regenerate it with "
        "`PYTHONPATH=src python -m repro.service.protocol > docs/protocol.md`"
    )
