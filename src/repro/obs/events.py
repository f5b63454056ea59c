"""Structured event journal: the service's state-transition record.

Every fault and lifecycle path the service tier built — lost workers,
batch resubmits, quota rejections, cache evictions, disk-spill errors,
graph rebinds, watch drops — historically bumped a counter and vanished.
:class:`EventJournal` keeps the *record*: a bounded ring of leveled,
JSON-safe event dicts (``seq``, ``ts``, ``level``, ``component``,
``kind``, ``trace_id`` when a span is active, plus flat attributes), so
"what happened around 14:02" is one ``events`` protocol op instead of a
log-diving expedition.

Emission mirrors :mod:`logging`'s process-global model: components call
the module-level :func:`emit` against one shared default journal (no
constructor threading through coordinator/cache/streaming), and the
query server exposes it via the ``events`` op and ``repro events``.
Emitting is a lock, a dict build and a deque append — cheap enough for
fault paths, which are rare by construction.

An optional JSONL sink (:meth:`EventJournal.set_sink`) appends every
record as one JSON line, replayable with
:func:`repro.api.results.read_records_jsonl` (events come back as plain
dicts — they carry no ``record`` type tag).

Event ``kind`` strings are namespaced constants below; kinds that mirror
a ``RunResult``/service counter are pinned to the same source constants
by ``tests/test_counter_registry.py`` via :data:`MIRRORED_COUNTERS`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, TextIO

from repro.obs.trace import current_span

__all__ = [
    "EventJournal",
    "KNOWN_KINDS",
    "LEVELS",
    "MIRRORED_COUNTERS",
    "emit",
    "journal",
]

#: Severity ladder, least to most severe (filters are "at least this").
LEVELS: tuple[str, ...] = ("debug", "info", "warning", "error")
_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}

# ---------------------------------------------------------------------------
# Event kinds.  Spelled as module constants so emitting sites and tests
# share one source of truth (the counter-registry discipline).
# ---------------------------------------------------------------------------
WORKER_LOST = "worker.lost"
WORKER_JOINED = "worker.joined"
WORKER_LEFT = "worker.left"
WORKER_STALE = "worker.stale"
BATCH_RESUBMIT = "batch.resubmit"
BATCH_RETRY = "batch.retry"
QUOTA_REJECTED = "quota.rejected"
ADMISSION_REJECTED = "admission.rejected"
ADMISSION_TIMEOUT = "admission.timeout"
CACHE_EVICTED = "cache.evicted"
CACHE_DISK_ERROR = "cache.disk_error"
GRAPH_REBIND = "graph.rebind"
WATCH_DROPPED = "watch.dropped"
HEALTH_RULE_FIRED = "health.rule_fired"
HEALTH_RULE_CLEARED = "health.rule_cleared"

#: Every kind the system emits (journal accepts unknown kinds — the set
#: exists so tests can assert emitting sites and registry stay in sync).
KNOWN_KINDS: frozenset[str] = frozenset({
    WORKER_LOST,
    WORKER_JOINED,
    WORKER_LEFT,
    WORKER_STALE,
    BATCH_RESUBMIT,
    BATCH_RETRY,
    QUOTA_REJECTED,
    ADMISSION_REJECTED,
    ADMISSION_TIMEOUT,
    CACHE_EVICTED,
    CACHE_DISK_ERROR,
    GRAPH_REBIND,
    WATCH_DROPPED,
    HEALTH_RULE_FIRED,
    HEALTH_RULE_CLEARED,
})

#: Event kinds that mirror a counter namespace -> the counter they
#: mirror.  Values are spelled literally (importing the owning modules
#: here would create cycles); tests/test_counter_registry.py pins each
#: one to the source constant.
MIRRORED_COUNTERS: dict[str, str] = {
    WORKER_LOST: "distributed.lost_workers",
    BATCH_RESUBMIT: "distributed.resubmits",
}

#: Default ring capacity — enough to hold hours of fault-path history
#: for a healthy service, bounded for one that is melting down.
DEFAULT_CAPACITY = 512


class EventJournal:
    """Thread-safe bounded ring of leveled, JSON-safe event records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._sink: TextIO | None = None
        self._sink_path: str | None = None

    # ------------------------------------------------------------------
    def emit(
        self,
        level: str,
        component: str,
        kind: str,
        *,
        trace_id: str | None = None,
        **attrs: Any,
    ) -> dict[str, Any]:
        """Record one event; returns the (JSON-safe) record.

        ``trace_id`` defaults to the innermost active span's trace id on
        the emitting thread, so events fired inside a traced request
        correlate with its span tree; pass it explicitly when the event
        fires on a helper thread outside the request's context (the
        coordinator's drive threads do, from the batch's wire context).
        Attribute values must be JSON-safe scalars; core keys win over
        same-named attributes.
        """
        if level not in _LEVEL_RANK:
            raise ValueError(
                f"unknown level {level!r}; choose from {LEVELS}"
            )
        if trace_id is None:
            active = current_span()
            if active is not None:
                trace_id = active.tracer.trace_id
        record: dict[str, Any] = {
            "ts": time.time(),
            "level": level,
            "component": component,
            "kind": kind,
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
        for key, value in attrs.items():
            record.setdefault(key, value)
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            self._events.append(record)
            sink = self._sink
            if sink is not None:
                try:
                    sink.write(json.dumps(record, sort_keys=True) + "\n")
                    sink.flush()
                except (OSError, ValueError):
                    # A full disk or closed handle must never take the
                    # serving path down with it; drop the sink, keep
                    # the in-memory ring.
                    self._sink = None
        return record

    # ------------------------------------------------------------------
    def snapshot(
        self,
        *,
        level: str | None = None,
        component: str | None = None,
        since: int | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Retained events, oldest first, after the requested filters.

        ``level`` keeps events at least that severe; ``component``
        matches exactly; ``since`` keeps events with ``seq`` strictly
        greater (the ``--follow`` cursor); ``limit`` keeps the newest N
        of what survives.
        """
        if level is not None and level not in _LEVEL_RANK:
            raise ValueError(
                f"unknown level {level!r}; choose from {LEVELS}"
            )
        with self._lock:
            events = [dict(e) for e in self._events]
        if level is not None:
            floor = _LEVEL_RANK[level]
            events = [
                e for e in events if _LEVEL_RANK[e["level"]] >= floor
            ]
        if component is not None:
            events = [e for e in events if e["component"] == component]
        if since is not None:
            events = [e for e in events if e["seq"] > since]
        if limit is not None and limit >= 0:
            events = events[-limit:] if limit else []
        return events

    def last(self, kind: str) -> dict[str, Any] | None:
        """The newest retained event of ``kind`` (None when absent)."""
        with self._lock:
            for record in reversed(self._events):
                if record["kind"] == kind:
                    return dict(record)
        return None

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event ever emitted (0 = none)."""
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # ------------------------------------------------------------------
    def set_sink(self, path: str | None) -> None:
        """Append every future event to ``path`` as one JSON line.

        ``None`` closes the current sink.  The file is opened in append
        mode so restarts extend the history; replay it with
        :func:`repro.api.results.read_records_jsonl`.
        """
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:
                    pass
                self._sink = None
                self._sink_path = None
            if path is not None:
                self._sink = open(path, "a", encoding="utf-8")
                self._sink_path = str(path)

#: The process-global default journal every component emits into.
_DEFAULT = EventJournal()


def journal() -> EventJournal:
    """The process-global default journal (the ``logging`` root analogue)."""
    return _DEFAULT


def emit(
    level: str,
    component: str,
    kind: str,
    *,
    trace_id: str | None = None,
    **attrs: Any,
) -> dict[str, Any]:
    """Emit one event into the default journal (see :meth:`EventJournal.emit`)."""
    return _DEFAULT.emit(
        level, component, kind, trace_id=trace_id, **attrs
    )
