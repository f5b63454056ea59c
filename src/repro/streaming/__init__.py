"""Streaming graph ingest and incremental continuous queries.

The rest of the repository treats a graph as frozen: one CSR snapshot,
one fingerprint, one-shot queries.  This package adds the live-traffic
vertical slice on top of that model without breaking it:

- :mod:`repro.streaming.version` — ``apply_batch`` produces a *new*
  immutable snapshot per batch; :class:`GraphVersion` handles let the
  service, cache, and shard workers key on ``(fingerprint, version)``
  while in-flight queries keep reading the snapshot they started on.
- :mod:`repro.streaming.incremental` — delta embeddings (new + vanished
  matches) per batch, enumerated only from the touched edges: one tagged
  seed block per watch through the backtracking kernel.
- :mod:`repro.streaming.records` — the ``DeltaRecord`` JSONL kind, so
  delta streams replay through :func:`repro.api.results.read_records_jsonl`.
- :mod:`repro.streaming.continuous` — ``ContinuousQueryManager`` ties it
  together: registered watches, batch ingest, per-watch delta fan-out
  (riding a :class:`~repro.service.scheduler.QueryScheduler` pool when
  one is attached, with tenant quotas applied per delta job).
"""

from repro.streaming.continuous import ContinuousQueryManager, Watch
from repro.streaming.incremental import (
    DeltaParityError,
    IncrementalMatcher,
    full_embeddings,
)
from repro.streaming.records import DeltaRecord
from repro.streaming.version import GraphVersion, VersionedGraph

__all__ = [
    "ContinuousQueryManager",
    "DeltaParityError",
    "DeltaRecord",
    "GraphVersion",
    "IncrementalMatcher",
    "VersionedGraph",
    "Watch",
    "full_embeddings",
]
