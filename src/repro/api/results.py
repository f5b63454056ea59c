"""Serializable run results: JSON/JSONL round-trips for result records.

The dict forms live on :meth:`repro.engines.base.RunResult.to_dict` /
``from_dict`` and :meth:`repro.query.explain.QueryExplanation.to_dict` /
``from_dict``; this module adds the file-level helpers used by the CLI's
``--json`` output, by provenance-style tooling that archives whole
experiment grids as one record per line, and by the query service's
request log (:mod:`repro.service.server`), which appends every served
record and replays through :func:`read_records_jsonl`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.engines.base import RunResult

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.query.explain import QueryExplanation
    from repro.streaming.records import DeltaRecord

    #: Records these helpers read and write (a real alias so checkers
    #: and get_type_hints can resolve the annotations below).
    Record = RunResult | QueryExplanation | DeltaRecord


def record_to_dict(record: "Record | dict[str, Any]") -> dict[str, Any]:
    """The dict form of a RunResult / QueryExplanation (dicts pass through)."""
    if isinstance(record, dict):
        return record
    return record.to_dict()


#: ``"kind"`` tags of embedding-store read records (the query server logs
#: one per served ``page``/``lookup``/``aggregate`` op).  They have no
#: richer type — each is already its own JSON-safe payload — so
#: :func:`record_from_dict` replays them as plain dicts.
STORE_READ_KINDS = ("page", "lookup", "aggregate")


def record_from_dict(data: dict[str, Any]) -> "Record | dict[str, Any]":
    """Rebuild a record from its dict form, dispatching on the schema.

    ``DeltaRecord`` dicts carry an explicit ``"kind": "delta"`` tag;
    embedding-store reads carry ``"kind": "page"``/``"lookup"``/
    ``"aggregate"`` and pass through as dicts (see
    :data:`STORE_READ_KINDS`); event-journal records
    (:mod:`repro.obs.events` sinks) are recognised by their
    ``seq``/``level``/``component`` core keys and pass through as
    dicts; ``QueryExplanation`` dicts are recognised
    by their ``rounds`` / ``matching_order`` keys, ``RunResult`` dicts by
    ``embedding_count``; anything else raises ``ValueError`` (a record
    log should only contain those).
    """
    if data.get("kind") == "delta":
        from repro.streaming.records import DeltaRecord

        return DeltaRecord.from_dict(data)
    if data.get("kind") in STORE_READ_KINDS:
        return data
    if "seq" in data and "level" in data and "component" in data:
        # An event-journal record (repro.obs.events JSONL sink): already
        # its own JSON-safe payload, replayed as a plain dict.
        return data
    if "rounds" in data and "matching_order" in data:
        from repro.query.explain import QueryExplanation

        return QueryExplanation.from_dict(data)
    if "embedding_count" in data:
        return RunResult.from_dict(data)
    raise ValueError(
        f"unrecognised record schema (keys: {sorted(data)[:8]}); expected "
        f"RunResult.to_dict(), QueryExplanation.to_dict(), "
        f"DeltaRecord.to_dict() or embedding-store read output"
    )


def write_results_jsonl(
    results: "Iterable[Record | dict[str, Any]]",
    path: str | Path,
    *,
    append: bool = False,
) -> int:
    """Write records to ``path`` as JSON Lines; returns the line count.

    Accepts :class:`RunResult`, :class:`QueryExplanation` or ready dicts
    (mixed freely).  ``append=True`` adds to an existing log instead of
    truncating — the mode the query server's request log uses, so a
    restarted server keeps extending one replayable file.
    """
    count = 0
    with open(path, "a" if append else "w", encoding="utf-8") as handle:
        for result in results:
            handle.write(
                json.dumps(record_to_dict(result), sort_keys=True)
            )
            handle.write("\n")
            count += 1
    return count


def append_record_jsonl(
    record: "Record | dict[str, Any]", path: str | Path
) -> None:
    """Append one record to a JSONL log (creating the file on first use)."""
    write_results_jsonl([record], path, append=True)


def read_results_jsonl(path: str | Path) -> list[RunResult]:
    """Read back a RunResult-only JSONL file (see :func:`read_records_jsonl`)."""
    return [
        RunResult.from_dict(data) for data in _read_dicts_jsonl(path)
    ]


def read_records_jsonl(path: str | Path) -> "list[Record | dict[str, Any]]":
    """Read back a mixed JSONL log of results, explanations and deltas.

    The inverse of :func:`write_results_jsonl` /
    :func:`append_record_jsonl`; each line comes back as the right type
    via :func:`record_from_dict` (embedding-store reads as plain dicts),
    so a server request log replays into live objects.
    """
    return [record_from_dict(data) for data in _read_dicts_jsonl(path)]


def _read_dicts_jsonl(path: str | Path) -> list[dict[str, Any]]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
