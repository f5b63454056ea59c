"""Continuous queries: registered watches fed by ingest batches.

:class:`ContinuousQueryManager` owns the linear version history of one
streamed graph and a set of :class:`Watch` registrations.  Every ingest
batch produces a new :class:`~repro.streaming.version.GraphVersion` and,
for each watch, a :class:`~repro.streaming.records.DeltaRecord` computed
by the incremental matcher from the touched edges only.

With a :class:`~repro.service.scheduler.QueryScheduler` attached, delta
computations ride the scheduler's worker pool as jobs — which is where
per-tenant quotas bite: each watch's per-batch delta is admitted against
its owner's token bucket, and a quota-rejected delta is *dropped* (the
watch's ``dropped`` counter and the poll response say so) rather than
computed for free.  Standalone (no scheduler — the ``Session.watch``
path), deltas are computed inline and no quotas apply.

Watches on equal patterns share an :class:`IncrementalMatcher`; register /
unregister fuse the distinct ones into a :class:`FusedMatcher`, so a batch
side is one kernel run for every watch.  The first job of a batch to run
computes it for every watch admitted so far, its own included: a dropped
delta is still never computed, and every interleaving gives the same records.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import deque
from typing import Callable, Iterable

import numpy as np

from repro.enumeration.backtracking import EnumerationStats
from repro.graph.graph import Graph, canonical_edge_array
from repro.query.pattern import Pattern
from repro.streaming.incremental import FusedMatcher, IncrementalMatcher
from repro.streaming.records import DeltaRecord
from repro.streaming.version import GraphVersion, VersionedGraph

#: Delta records a watch holds for :meth:`Watch.poll`; older ones drop.
PENDING_LIMIT = 256


class Watch:
    """One registered continuous query.

    Delta records accumulate in a bounded pending queue until
    :meth:`poll` drains them (oldest beyond ``PENDING_LIMIT`` are
    dropped and counted); an attached push sink (service push mode)
    additionally receives every record as it is published.
    """

    def __init__(
        self, watch_id: str, pattern: Pattern, matcher: IncrementalMatcher,
        *, tenant: str | None = None, collect: bool = True,
    ):
        self.id = watch_id
        self.pattern = pattern
        self.text = str(pattern)  # every record's ``pattern``, formatted once
        self.matcher = matcher
        self.tenant = tenant
        self.collect = collect
        self.delivered = 0
        #: Batches whose delta never reached this watch (tenant quota
        #: rejection or pending-queue overflow) — cumulative, reported by
        #: poll so a subscriber knows its stream is gappy and can resync.
        self.dropped = 0
        self._pending: deque[DeltaRecord] = deque()
        self._cond = threading.Condition()
        self._push: Callable[[DeltaRecord], None] | None = None

    def poll(self, *, wait: float | None = None) -> list[DeltaRecord]:
        """Drain pending records, optionally waiting up to ``wait`` s."""
        with self._cond:
            if wait is not None and not self._pending:
                self._cond.wait(timeout=wait)
            records = list(self._pending)
            self._pending.clear()
            return records

    # -- manager side ---------------------------------------------------
    def _publish(self, record: DeltaRecord) -> None:
        overflowed = 0
        with self._cond:
            self._pending.append(record)
            while len(self._pending) > PENDING_LIMIT:
                self._pending.popleft()
                self.dropped += 1
                overflowed += 1
            self.delivered += 1
            push = self._push
            self._cond.notify_all()
        if overflowed:
            from repro.obs import events as _events

            _events.emit("warning", "streaming", _events.WATCH_DROPPED, watch=self.id,
                         reason="overflow", dropped=overflowed, pending_limit=PENDING_LIMIT)
        if push is not None:
            try:
                push(record)
            except Exception:
                # A dead push sink (connection gone) must not poison
                # ingest; the records still land in the pending queue.
                with self._cond:
                    if self._push is push:
                        self._push = None

    def _note_dropped(self) -> None:
        with self._cond:
            self.dropped += 1

    def describe(self) -> dict:
        """JSON-friendly registration summary."""
        with self._cond:
            return {
                "watch": self.id,
                "pattern": self.pattern.name,
                "tenant": self.tenant,
                "collect": self.collect,
                "delivered": self.delivered,
                "dropped": self.dropped,
                "pending": len(self._pending),
                "push": self._push is not None,
            }


class _Deltas:
    """One batch's ``(added, removed)`` blocks per matcher, computed on first
    demand for every admitted matcher not yet done (module docstring)."""

    def __init__(self, fused: FusedMatcher | None, old: Graph, new: Graph, add: np.ndarray,
                 delete: np.ndarray):
        self.fused, self.old, self.new, self.add, self.delete = fused, old, new, add, delete
        self.admitted: list[IncrementalMatcher] = []  # appended under the lock: jobs read it
        self.done: dict[IncrementalMatcher, tuple[np.ndarray, np.ndarray]] = {}
        self.lock = threading.Lock()

    def get(self, matcher: IncrementalMatcher) -> tuple[np.ndarray, np.ndarray]:
        with self.lock:
            if matcher not in self.done:
                wanted = [m for m in self.fused.matchers if m is matcher or (
                    m in self.admitted and m not in self.done)]
                added = self.fused.blocks_using(self.new, self.add, wanted, EnumerationStats())
                removed = self.fused.blocks_using(self.old, self.delete, wanted, EnumerationStats())
                self.done.update((m, (added[m], removed[m])) for m in wanted)
            return self.done[matcher]


class ContinuousQueryManager:
    """Watches + versioned graph + per-batch delta fan-out.

    Parameters
    ----------
    graph:
        The initial snapshot (version 0).
    scheduler:
        Optional :class:`~repro.service.scheduler.QueryScheduler`; when
        given, per-watch delta computations run as jobs on its worker
        pool under the watch owner's tenant quota, and ``on_rebind`` is
        the hook the service uses to swap the scheduler/cache over to
        the new version.
    verify:
        Assert full-recount parity for every delta (test/CI mode).
    on_rebind:
        ``callable(old: GraphVersion, new: GraphVersion)`` invoked after
        each batch swap, before deltas are delivered.
    on_record:
        ``callable(DeltaRecord)`` invoked for every delivered record
        (the server appends them to its request log).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        scheduler=None,
        verify: bool = False,
        on_rebind: Callable[[GraphVersion, GraphVersion], None] | None = None,
        on_record: Callable[[DeltaRecord], None] | None = None,
    ):
        self._versions = VersionedGraph(graph)
        self._scheduler = scheduler
        self._verify = verify
        self._on_rebind = on_rebind
        self._on_record = on_record
        self._watches: dict[str, Watch] = {}
        # The distinct registered patterns, fused (see the module docstring).
        self._matchers: dict[Pattern, IncrementalMatcher] = {}
        self._fused: FusedMatcher | None = None
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._batches = 0
        self._delta_records = 0
        self._quota_dropped = 0

    # ------------------------------------------------------------------
    @property
    def current(self) -> GraphVersion:
        """The latest graph version handle."""
        return self._versions.current

    def register(
        self, query: "str | Pattern", *, tenant: str | None = None, collect: bool = True
    ) -> Watch:
        """Register a continuous query; returns its :class:`Watch`.

        ``query`` is anything :func:`repro.api.session.resolve_query`
        accepts except labeled patterns.  Rooting plans (one matching
        order per directed pattern edge) are precomputed here, so ingest
        batches pay only the neighbourhood enumeration.
        """
        from repro.api.session import resolve_query

        pattern = resolve_query(query)
        if not isinstance(pattern, Pattern):
            raise ValueError(
                "continuous queries support unlabeled patterns only"
            )
        with self._lock:
            if pattern not in self._matchers:
                self._matchers[pattern] = IncrementalMatcher(pattern)
                self._fuse()
            watch = Watch(f"w{next(self._ids)}", pattern, self._matchers[pattern],
                          tenant=tenant, collect=collect)
            self._watches[watch.id] = watch
            return watch

    def unregister(self, watch_id: str) -> bool:
        """Remove a watch; False when the id is unknown (idempotent)."""
        with self._lock:
            watch = self._watches.pop(watch_id, None)
            if watch is None:
                return False
            if all(other.pattern != watch.pattern for other in self._watches.values()):
                del self._matchers[watch.pattern]
                self._fuse()
            return True

    def _fuse(self) -> None:  # the fused matcher over the distinct patterns
        matchers = list(self._matchers.values())
        self._fused = FusedMatcher(matchers) if matchers else None

    def get(self, watch_id: str) -> Watch:
        """The live watch for ``watch_id`` (KeyError when unknown)."""
        with self._lock:
            return self._watches[watch_id]

    def attach_push(
        self, watch_id: str, sink: Callable[[DeltaRecord], None]
    ) -> None:
        """Route every future record of ``watch_id`` through ``sink``."""
        watch = self.get(watch_id)
        with watch._cond:
            watch._push = sink

    def detach_push(self, watch_id: str) -> None:
        """Drop the push sink (connection closed); pending queue remains."""
        with self._lock:
            watch = self._watches.get(watch_id)
        if watch is not None:
            with watch._cond:
                watch._push = None

    # ------------------------------------------------------------------
    def ingest(
        self, additions: Iterable[tuple[int, int]] = (), deletions: Iterable[tuple[int, int]] = ()
    ) -> dict:
        """Apply one batch and fan deltas out to every watch.

        Returns a JSON-friendly report: the new version handle plus a
        per-watch outcome (delta counts, or why the watch got nothing).
        Batches serialise — versions form a linear history.
        """
        with self._lock:
            # Canonical once: the arrays are the batch and every watch's seed block.
            n = self.current.graph.num_vertices
            add = canonical_edge_array(additions, n, field="additions")
            delete = canonical_edge_array(deletions, n, field="deletions")
            old, new = self._versions.apply_batch(add, delete)
            if self._on_rebind is not None:
                self._on_rebind(old, new)
            batch = {"additions": len(add), "deletions": len(delete)}
            watches = list(self._watches.values())
            report: dict = dict(new.describe())
            report["batch"] = batch
            report["watches"] = {}
            jobs: list[tuple[Watch, Callable[[], DeltaRecord]]] = []
            deltas = _Deltas(self._fused, old.graph, new.graph, add, delete)
            for watch in watches:
                compute = functools.partial(self._compute, watch, deltas, new, batch)
                if self._scheduler is not None:
                    from repro.service.tenancy import QuotaExceeded

                    try:
                        ticket = self._scheduler.submit_job(
                            compute, tenant=watch.tenant, description=f"delta:{watch.id}")
                    except QuotaExceeded as exc:
                        watch._note_dropped()
                        self._quota_dropped += 1
                        from repro.obs import events as _events

                        _events.emit("warning", "streaming", _events.WATCH_DROPPED,
                                     watch=watch.id, reason="quota", tenant=watch.tenant)
                        report["watches"][watch.id] = {"dropped": True, "error": str(exc)}
                        continue
                    compute = ticket.result
                with deltas.lock:
                    deltas.admitted.append(watch.matcher)
                jobs.append((watch, compute))
            for watch, job in jobs:
                try:
                    record = job()
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    report["watches"][watch.id] = {"failed": True, "error": error}
                    continue
                watch._publish(record)
                self._delta_records += 1
                if self._on_record is not None:
                    self._on_record(record)
                report["watches"][watch.id] = {
                    "added": record.added_count, "removed": record.removed_count}
            self._batches += 1
            return report

    def _compute(
        self, watch: Watch, deltas: _Deltas, new: GraphVersion, batch: dict
    ) -> DeltaRecord:
        added, removed = deltas.get(watch.matcher)
        record = DeltaRecord(
            pattern_name=watch.pattern.name, pattern=watch.text, version=new.version,
            graph_fingerprint=new.fingerprint, added_count=len(added),
            removed_count=len(removed), batch=batch, watch=watch.id, tenant=watch.tenant,
        )
        if watch.collect or self._verify:  # tuples only for who reads them
            lists = [list(map(tuple, rows.tolist())) for rows in (added, removed)]
            if self._verify:
                watch.matcher.verify_parity(deltas.old, deltas.new, *lists)
            if watch.collect:
                record.added, record.removed = lists
        return record

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe snapshot: version, watches, batch/drop counters."""
        with self._lock:
            watches = [watch.describe() for watch in self._watches.values()]
            return {
                **self.current.describe(),
                "watches": watches,
                "batches": self._batches,
                "delta_records": self._delta_records,
                "quota_dropped": self._quota_dropped,
            }
