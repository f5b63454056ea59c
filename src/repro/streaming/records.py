"""The ``DeltaRecord`` JSONL kind for ingest/delta streams.

Run results and explanations already replay through
:func:`repro.api.results.read_records_jsonl`; delta streams get the same
treatment so a subscriber's log (or the server request log) is a durable,
replayable account of what fired when.  Records carry an explicit
``"kind": "delta"`` tag — the other two kinds are recognised by their
schema, but a delta's payload is open-ended enough that an explicit tag
is the honest discriminator.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DeltaRecord:
    """Delta embeddings one watch observed for one ingest batch.

    ``added``/``removed`` hold the embedding tuples when the watch was
    registered with ``collect=True``, else ``None`` (counts are always
    present).  ``pattern`` is the edge-list DSL text, so a replayed
    record can be resolved back to the exact pattern with
    :func:`repro.api.session.resolve_query`.
    """

    pattern_name: str
    pattern: str
    version: int
    graph_fingerprint: str
    added_count: int
    removed_count: int
    added: list[tuple[int, ...]] | None = None
    removed: list[tuple[int, ...]] | None = None
    batch: dict = field(default_factory=dict)
    watch: str | None = None
    tenant: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict (embeddings as lists; tagged ``kind: delta``)."""
        payload = {
            "kind": "delta",
            "pattern_name": self.pattern_name,
            "pattern": self.pattern,
            "version": self.version,
            "graph_fingerprint": self.graph_fingerprint,
            "added_count": self.added_count,
            "removed_count": self.removed_count,
            "batch": dict(self.batch),
        }
        if self.added is not None:
            payload["added"] = [list(emb) for emb in self.added]
        if self.removed is not None:
            payload["removed"] = [list(emb) for emb in self.removed]
        if self.watch is not None:
            payload["watch"] = self.watch
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "DeltaRecord":
        """Inverse of :meth:`to_dict` (embeddings back to tuples)."""
        if data.get("kind") != "delta":
            raise ValueError("not a delta record")
        added = data.get("added")
        removed = data.get("removed")
        return cls(
            pattern_name=data["pattern_name"],
            pattern=data["pattern"],
            version=int(data["version"]),
            graph_fingerprint=data["graph_fingerprint"],
            added_count=int(data["added_count"]),
            removed_count=int(data["removed_count"]),
            added=(
                None if added is None
                else [tuple(int(x) for x in emb) for emb in added]
            ),
            removed=(
                None if removed is None
                else [tuple(int(x) for x in emb) for emb in removed]
            ),
            batch=dict(data.get("batch") or {}),
            watch=data.get("watch"),
            tenant=data.get("tenant"),
        )
