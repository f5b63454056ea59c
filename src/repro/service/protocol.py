"""JSON-lines wire protocol shared by the query server and client.

One request or response per line, UTF-8 JSON.  A request names its ``op``
and may carry an ``id``; the response echoes the ``id`` and carries
``ok`` — with the op's ``kind`` and a ``result`` (the library's own
``to_dict()`` records, verbatim), or with an ``error`` line.  Every
field is checked before the op runs: the first malformed one is named in
the error and the connection stays serviceable.  An optional field that
is absent or ``null`` takes its default (the exceptions say "not null").
A line that is not a JSON object, or is longer than ``MAX_FRAME_BYTES``
(256 MiB), is answered with an error line and the connection closes.

The ops, their fields and their checks are declared once, in
:data:`OPS`; ``docs/protocol.md`` is this text plus that table
(``python -m repro.service.protocol`` prints it), and ``docs/api.md``
has the hello line, push lines and the request log.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Mapping

from repro.obs.events import LEVELS
from repro.store.columnar import AGGREGATE_MODES

#: Bumped on incompatible wire changes; checked in the client hello.
PROTOCOL_VERSION = 1

#: The longest line (and, on the shard protocol, the largest binary blob)
#: a peer may send.  Lengths are the peer's word: a reader refuses past
#: this before it allocates, answers with an error line and hangs up.
MAX_FRAME_BYTES = 1 << 28


class ProtocolError(RuntimeError):
    """A malformed line or request: the message is the whole answer."""


# ----------------------------------------------------------------------
# Field checkers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Checker:
    """One reusable field check: ``checker(value)`` returns the clean
    value or raises ``ValueError`` saying what was expected.

    ``problem`` is the error line's template (``{op}``, ``{field}``,
    ``{detail}``); ``clean`` may canonicalise an accepted value and may
    itself raise ``ValueError`` with its own detail.
    """

    name: str
    expected: str
    accepts: Callable[[Any], bool]
    clean: "Callable[[Any], Any] | None" = None
    problem: str = "invalid {field!r} field: {detail}"

    def __call__(self, value: Any) -> Any:
        if not self.accepts(value):
            raise ValueError(f"expected {self.expected}, got {value!r}")
        return value if self.clean is None else self.clean(value)

    def worded(self, expected: str) -> "Checker":
        """The same check under a field-specific description."""
        return dataclasses.replace(self, expected=expected)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_name(value: Any) -> bool:
    return isinstance(value, str) and bool(value)


def _is_list(value: Any) -> bool:
    return isinstance(value, (list, tuple))


def _edges(value: Any) -> Any:
    for edge in value:  # the error names the offending pair
        if not (_is_list(edge) and len(edge) == 2 and all(map(_is_int, edge))):
            raise ValueError(f"expected {edge_list.expected}, got {edge!r}")
    return value


def one_of(*choices: Any, expected: "str | None" = None) -> Checker:
    """A value from a closed vocabulary."""
    return Checker(
        "one_of",
        expected or f"one of {', '.join(map(str, choices))}",
        lambda value: any(value == choice for choice in choices),
    )


def _canonical_address(value: str) -> str:
    return format_address(*parse_address(value))


query = Checker(
    "query", "a query name or pattern DSL string", _is_name,
    problem="{op} needs a {field!r} (name or pattern DSL)",
)
#: An empty engine name has always meant the default engine.
engine = Checker(
    "engine", "an engine name string",
    lambda value: isinstance(value, str),
    clean=lambda value: value or "RADS",
)
name = Checker("name", "a non-empty string", _is_name)
tenant = name.worded("a non-empty tenant name string")
flag = Checker("flag", "a boolean", lambda value: isinstance(value, bool))
integer = Checker("integer", "an integer", _is_int)
positive_int = Checker(
    "positive_int", "a positive integer",
    lambda value: _is_int(value) and value >= 1,
)
nonneg_int = Checker(
    "nonneg_int", "a non-negative integer",
    lambda value: _is_int(value) and value >= 0,
)
positive_seconds = Checker(
    "positive_seconds", "a positive number of seconds",
    lambda value: _is_number(value) and value > 0,
)
positive_mib = positive_seconds.worded("a positive number of MiB")
collect_mode = Checker(
    "collect_mode", "a boolean or 'store'",
    lambda value: isinstance(value, bool) or value == "store",
)
edge_list = Checker(
    "edge_list", "a list of [u, v] vertex pairs", _is_list, clean=_edges
)
string_list = Checker(
    "string_list", "a list of strings",
    lambda value: _is_list(value)
    and all(isinstance(item, str) for item in value),
)
address = Checker(
    "address", "a 'host:port' worker address", _is_name,
    clean=_canonical_address,
)
#: Advisory values recorded verbatim (a worker's self-description).
anything = Checker("anything", "any JSON value", lambda value: True)


# ----------------------------------------------------------------------
# The op table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Field:
    """One request field: its check, and what absence means.

    ``required`` fields are checked even when absent (``null`` and
    absent read the same).  Optional fields take ``default`` when
    absent — and when ``null``, unless ``null_ok`` is off.
    """

    check: Checker
    default: Any = None
    doc: str = ""
    required: bool = False
    null_ok: bool = True


@dataclass(frozen=True)
class Op:
    """One protocol operation: response kind, fields, logged-or-not."""

    kind: str
    doc: str
    fields: Mapping[str, Field]
    #: Served records of this op are appended to the ``--log`` file.
    logged: bool = False


def _op(kind: str, doc: str, logged: bool = False, **fields: Field) -> Op:
    return Op(kind, doc, fields, logged)


_QUERY = Field(query, doc="registered name or edge-list DSL", required=True)
_ENGINE = Field(engine, "RADS", "registry name or alias")
_WATCH = Field(name.worded("a watch id string"), required=True)

OPS: dict[str, Op] = {
    "submit": _op(
        "result",
        "Enumerate a query, or answer it from the result cache, an "
        "in-flight duplicate or the embedding store.  The response adds "
        "`cache` (`hit`/`miss`/`dedup`) and `store` (`hit`/`stored`/null).",
        logged=True,
        query=_QUERY,
        engine=_ENGINE,
        priority=Field(integer, 0, "higher runs first"),
        timeout=Field(positive_seconds, doc="bounds waiting, not running"),
        collect=Field(
            collect_mode,
            doc="`true` returns embeddings, `\"store\"` persists them "
            "(needs `--store-dir`); default: the server config's",
        ),
        limit=Field(positive_int, doc="cap on returned embeddings"),
        memory_mb=Field(
            positive_mib,
            doc="overrides the admission estimate only; deliberately not "
            "in the cache key (the run, and so the result, is the same)",
        ),
        tenant=Field(tenant, doc="quota / fair-share attribution"),
        trace=Field(flag, False, "span tree as `result.trace` (runs only)"),
        profile=Field(flag, False, "resource profile as `result.profile`"),
    ),
    "explain": _op(
        "explanation",
        "The engine's plan for a query; nothing is enumerated.",
        logged=True,
        query=_QUERY,
        engine=_ENGINE,
        estimates=Field(flag, True, "cost estimates against the graph"),
    ),
    "stats": _op("stats", "Scheduler, cache, store and tenant counters."),
    "ping": _op("pong", "Liveness; answers the protocol version."),
    "shutdown": _op("bye", "Stop the server after this response."),
    "announce": _op(
        "announced",
        "Register (or refresh) a shard worker in the elastic roster; with "
        "`withdraw`, remove it (kind `withdrawn`).",
        address=Field(address, required=True),
        withdraw=Field(anything, doc="truthy: leave the roster"),
        graphs=Field(
            string_list.worded("a list of graph fingerprints"), (),
            "fingerprints the worker already holds",
        ),
        workers=Field(anything, doc="the worker's pool size"),
        pid=Field(anything),
    ),
    "metrics": _op(
        "metrics",
        "Queue, tenants, cache and store tiers, roster, histograms, "
        "slow-query log and journal summary in one snapshot.",
        format=Field(
            one_of("json", "text", expected="'json' or 'text'"),
            doc="`text`: one string of Prometheus-style `repro_*` samples",
        ),
    ),
    "events": _op(
        "events",
        "A slice of the event journal: `{events, last_seq, capacity}`.",
        level=Field(one_of(*LEVELS), doc="minimum severity"),
        component=Field(name.worded("a component name string")),
        since=Field(
            nonneg_int.worded("a non-negative sequence number"),
            doc="only events with a greater `seq` (polling cursor)",
        ),
        limit=Field(positive_int, doc="newest N of what survives"),
    ),
    "health": _op(
        "health", "The SLO verdict over the live metrics: `{status, firing, rules}`."
    ),
    "register": _op(
        "registered",
        "Install a continuous query; answers its watch id.",
        query=_QUERY,
        tenant=Field(tenant),
        collect=Field(flag, True, "deltas carry the embeddings"),
        push=Field(flag, False, "push each delta down this connection"),
    ),
    "unregister": _op(
        "unregistered", "Remove a watch (idempotent).", watch=_WATCH
    ),
    "ingest": _op(
        "ingested",
        "Apply one edge batch (no duplicates, no overlap; at least one "
        "list non-empty), advancing the graph version; every watch "
        "receives its delta.",
        additions=Field(edge_list, ()),
        deletions=Field(edge_list, ()),
    ),
    "poll": _op(
        "deltas",
        "Drain a watch's pending `DeltaRecord`s.",
        watch=_WATCH,
        wait=Field(positive_seconds, doc="block up to this long"),
    ),
    "page": _op(
        "page",
        "One contiguous slice of a stored set's sorted leaf order.  Store "
        "reads answer for isomorphic rewrites of the stored query and "
        "fail when nothing is stored for the key.",
        logged=True,
        query=_QUERY,
        engine=_ENGINE,
        limit=Field(positive_int, required=True),
        offset=Field(nonneg_int, 0, null_ok=False),
    ),
    "lookup": _op(
        "lookup",
        "Every stored embedding containing one data vertex.",
        logged=True,
        query=_QUERY,
        engine=_ENGINE,
        vertex=Field(
            nonneg_int.worded("a non-negative data vertex id"), required=True
        ),
    ),
    "aggregate": _op(
        "aggregate",
        "Group counts over a stored set (no leaf is decompressed).",
        logged=True,
        query=_QUERY,
        engine=_ENGINE,
        group_by=Field(one_of(*AGGREGATE_MODES), "root", null_ok=False),
    ),
}


def _clean(op: str, field_name: str, message: Mapping[str, Any]) -> Any:
    """``message[field_name]`` cleaned for ``op``, or its default."""
    field = OPS[op].fields[field_name]
    value = message.get(field_name)
    if value is None and not field.required and (
        field.null_ok or field_name not in message
    ):
        return field.default
    try:
        return field.check(value)
    except ValueError as exc:
        raise ValueError(field.check.problem.format(
            op=op, field=field_name, detail=exc
        )) from None


def validate(op: str, message: Mapping[str, Any]) -> "dict[str, Any] | str":
    """Clean keyword arguments for ``op`` from one request message.

    Returns the first malformed field's error line instead (a string),
    so a typed client bug gets an answer it can act on — naming the
    field — rather than a coercion traceback.
    """
    try:
        return {f: _clean(op, f, message) for f in OPS[op].fields}
    except ValueError as exc:
        return str(exc)


def check_fields(op: str, **values: Any) -> dict[str, Any]:
    """``values`` cleaned as :func:`validate` cleans them (``None`` reads
    as the default); ``ValueError`` for the first that ``op``'s table
    refuses — the library-side twin of :func:`validate`
    (:class:`QueryScheduler` methods take the same fields as keywords)."""
    return {f: _clean(op, f, values) for f in values}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode(message: dict[str, Any]) -> bytes:
    """One protocol message as a JSON line (UTF-8, trailing newline)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode(line: "bytes | str") -> dict[str, Any]:
    """Parse one line into a message dict (raises ProtocolError)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol messages are JSON objects, got {type(message).__name__}"
        )
    return message


def read_message(stream: BinaryIO) -> dict[str, Any] | None:
    """The next message from a socket file, or None at EOF."""
    line = stream.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"protocol line exceeds the {MAX_FRAME_BYTES}-byte frame limit"
        )
    if not line.strip():
        return {}
    return decode(line)


def write_message(stream: BinaryIO, message: dict[str, Any]) -> None:
    """Send one message and flush (JSON-lines framing)."""
    stream.write(encode(message))
    stream.flush()


def parse_address(address: "tuple[str, int] | str | int") -> tuple[str, int]:
    """Accept ``(host, port)``, ``"host:port"`` or a bare port number.

    The shared address vocabulary for every socket endpoint — service
    clients, shard rosters, ``RunConfig.shards`` — lives here with the
    rest of the wire-level helpers.
    """
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    if isinstance(address, int):
        return "127.0.0.1", address
    text = str(address)
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise ValueError(
            f"service address {address!r} is not (host, port), "
            f"'host:port' or a port number"
        )
    return host or "127.0.0.1", int(port)


def format_address(host: str, port: int) -> str:
    """``"host:port"``: the one spelling of an address, which
    :func:`parse_address` reads back."""
    return f"{host}:{port}"


def error_response(request_id: Any, message: str) -> dict[str, Any]:
    """A failure response echoing the request id."""
    return {"id": request_id, "ok": False, "error": str(message)}


def ok_response(
    request_id: Any, kind: str, result: Any, **extra: Any
) -> dict[str, Any]:
    """A success response echoing the request id."""
    response = {"id": request_id, "ok": True, "kind": kind, "result": result}
    response.update(extra)
    return response


# ----------------------------------------------------------------------
# docs/protocol.md
# ----------------------------------------------------------------------
def render_docs() -> str:
    """``docs/protocol.md``: the module text, then one section per op."""
    out = [
        "# Query service protocol",
        "",
        "<!-- generated by `python -m repro.service.protocol`; edit "
        "src/repro/service/protocol.py instead -->",
        "",
        __doc__.replace(":data:`OPS`", "`OPS`").strip(),
        "",
    ]
    for op_name, op in OPS.items():
        logged = "; logged to `--log`" if op.logged else ""
        out += [f"## `{op_name}` -> `{op.kind}`{logged}", "", op.doc, ""]
        if op.fields:
            out += ["| field | | expects | notes |", "|---|---|---|---|"]
        for field_name, field in op.fields.items():
            presence = "required" if field.required else (
                f"default `{json.dumps(field.default)}`"
                + ("" if field.null_ok else ", not null")
            )
            out.append(
                f"| `{field_name}` | {presence} | {field.check.expected} "
                f"| {field.doc} |"
            )
        if op.fields:
            out.append("")
    return "\n".join(out)


if __name__ == "__main__":
    print(render_docs(), end="")
