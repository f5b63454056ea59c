"""Coordinator <-> shard-worker wire protocol (version 3).

JSON lines, as on the query service (:mod:`repro.service.protocol`: one
UTF-8 JSON object per line, versioned hello on connect), so ``nc`` can
still say hello, ping and shut a worker down.  A message holding
``bytes`` fields — :func:`pack`-ed pickles of cluster snapshots, task
arguments, :class:`~repro.runtime.delta.ClusterDelta` records — goes out
as its JSON header line carrying ``"blobs": [[field, nbytes], ...]``
followed by the raw bytes; :func:`read_message` puts the fields back.
Header lines and declared blobs are capped at ``MAX_FRAME_BYTES``.

``docs/worker-protocol.md`` has the messages, the ordering rules and the
trust note (task payloads are pickles **executed on the worker**).
"""

from __future__ import annotations

import hmac
import pickle
from operator import index
from typing import Any, BinaryIO

from repro.service import protocol as _lines
from repro.service.protocol import (
    ProtocolError,
    encode,
    error_response,
    ok_response,
    parse_address,
)

__all__ = [
    "ProtocolError",
    "WORKER_OPS",
    "WORKER_PROTOCOL_VERSION",
    "WORKER_ROLE",
    "auth_digest",
    "encode",
    "error_response",
    "ok_response",
    "pack",
    "parse_address",
    "read_message",
    "unpack",
    "write_message",
]

#: Bumped on incompatible wire changes; echoed in the worker hello and
#: checked by the coordinator before any bind.
WORKER_PROTOCOL_VERSION = 4

#: Operations a shard worker dispatches on.
WORKER_OPS = ("bind", "task", "ping", "stats", "shutdown", "auth")

#: ``role`` advertised in the worker hello (distinguishes a shard worker
#: from a query server answering on the same port by mistake).
WORKER_ROLE = "shard-worker"


def auth_digest(authkey: bytes, challenge: str) -> str:
    """The ``auth`` op's proof of the key: HMAC-SHA256 of the challenge."""
    return hmac.new(authkey, challenge.encode(), "sha256").hexdigest()


def pack(obj: Any) -> bytes:
    """Pickle ``obj``: a ``bytes`` field for :func:`write_message`."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def unpack(data: bytes) -> Any:
    """Inverse of :func:`pack` (raises :class:`ProtocolError` on garbage)."""
    try:
        return pickle.loads(data)
    except Exception as exc:  # pickle raises a zoo of exception types
        raise ProtocolError(f"undecodable binary payload: {exc}") from exc


def write_message(stream: BinaryIO, message: dict[str, Any]) -> None:
    """Send one message — header line, then its ``bytes`` fields — and flush."""
    blobs = {k: v for k, v in message.items() if isinstance(v, bytes)}
    if blobs:
        message = {k: v for k, v in message.items() if k not in blobs}
        message["blobs"] = [[k, len(v)] for k, v in blobs.items()]
    stream.write(b"".join((encode(message), *blobs.values())))
    stream.flush()


def read_message(stream: BinaryIO) -> dict[str, Any] | None:
    """The next message with its blobs attached, or None at EOF.

    A declared length is checked against ``MAX_FRAME_BYTES`` before
    anything is allocated; EOF inside a frame is a :class:`ProtocolError`.
    """
    message = _lines.read_message(stream)
    if not message or "blobs" not in message:
        return message
    try:
        declared = [(str(f), index(n)) for f, n in message.pop("blobs")]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed 'blobs' declaration: {exc}") from exc
    for field, nbytes in declared:
        if not 0 <= nbytes <= _lines.MAX_FRAME_BYTES:
            raise ProtocolError(
                f"blob {field!r} declares {nbytes} bytes, outside the "
                f"{_lines.MAX_FRAME_BYTES}-byte frame limit"
            )
        data = stream.read(nbytes)
        if len(data) != nbytes:
            raise ProtocolError(
                f"connection closed inside blob {field!r} "
                f"({len(data)} of {nbytes} bytes)"
            )
        message[field] = data
    return message
