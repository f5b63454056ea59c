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
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import deque
from typing import Callable, Iterable

import numpy as np

from repro.graph.graph import Graph, canonical_edge_array
from repro.query.pattern import Pattern
from repro.streaming.incremental import IncrementalMatcher
from repro.streaming.records import DeltaRecord
from repro.streaming.version import GraphVersion, VersionedGraph


class Watch:
    """One registered continuous query.

    Delta records accumulate in a bounded pending queue until
    :meth:`poll` drains them (oldest beyond ``pending_limit`` are
    dropped and counted); an attached push sink (service push mode)
    additionally receives every record as it is published.
    """

    def __init__(
        self,
        watch_id: str,
        pattern: Pattern,
        matcher: IncrementalMatcher,
        *,
        tenant: str | None = None,
        collect: bool = True,
        pending_limit: int = 256,
    ):
        self.id = watch_id
        self.pattern = pattern
        self.matcher = matcher
        self.tenant = tenant
        self.collect = collect
        self.delivered = 0
        #: Batches whose delta never reached this watch (tenant quota
        #: rejection or pending-queue overflow) — cumulative, reported by
        #: poll so a subscriber knows its stream is gappy and can resync.
        self.dropped = 0
        self._pending: deque[DeltaRecord] = deque()
        self._pending_limit = pending_limit
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
            while len(self._pending) > self._pending_limit:
                self._pending.popleft()
                self.dropped += 1
                overflowed += 1
            self.delivered += 1
            push = self._push
            self._cond.notify_all()
        if overflowed:
            from repro.obs import events as _events

            _events.emit(
                "warning",
                "streaming",
                _events.WATCH_DROPPED,
                watch=self.id,
                reason="overflow",
                dropped=overflowed,
                pending_limit=self._pending_limit,
            )
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
        self,
        query: "str | Pattern",
        *,
        tenant: str | None = None,
        collect: bool = True,
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
        matcher = IncrementalMatcher(pattern)
        with self._lock:
            watch = Watch(
                f"w{next(self._ids)}",
                pattern,
                matcher,
                tenant=tenant,
                collect=collect,
            )
            self._watches[watch.id] = watch
            return watch

    def unregister(self, watch_id: str) -> bool:
        """Remove a watch; False when the id is unknown (idempotent)."""
        with self._lock:
            return self._watches.pop(watch_id, None) is not None

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

    def poll(self, watch_id: str, *, wait: float | None = None) -> list[DeltaRecord]:
        """Drain one watch's pending records (KeyError when unknown)."""
        return self.get(watch_id).poll(wait=wait)

    # ------------------------------------------------------------------
    def ingest(
        self,
        additions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
        *,
        executor=None,
        timeout: float | None = None,
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
            old, new = self._versions.apply_batch(add, delete, executor=executor)
            if self._on_rebind is not None:
                self._on_rebind(old, new)
            batch = {"additions": len(add), "deletions": len(delete)}
            watches = list(self._watches.values())
            report: dict = dict(new.describe())
            report["batch"] = batch
            report["watches"] = {}
            jobs: list[tuple[Watch, Callable[[], DeltaRecord]]] = []
            for watch in watches:
                compute = functools.partial(
                    self._compute, watch, old, new, add, delete, batch
                )
                if self._scheduler is not None:
                    from repro.service.tenancy import QuotaExceeded

                    try:
                        ticket = self._scheduler.submit_job(
                            compute,
                            tenant=watch.tenant,
                            description=f"delta:{watch.id}",
                        )
                    except QuotaExceeded as exc:
                        watch._note_dropped()
                        self._quota_dropped += 1
                        from repro.obs import events as _events

                        _events.emit(
                            "warning",
                            "streaming",
                            _events.WATCH_DROPPED,
                            watch=watch.id,
                            reason="quota",
                            tenant=watch.tenant,
                        )
                        report["watches"][watch.id] = {
                            "dropped": True,
                            "error": str(exc),
                        }
                        continue
                    compute = functools.partial(ticket.result, timeout)
                jobs.append((watch, compute))
            for watch, job in jobs:
                try:
                    record = job()
                except Exception as exc:
                    report["watches"][watch.id] = {
                        "failed": True,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                    continue
                watch._publish(record)
                self._delta_records += 1
                if self._on_record is not None:
                    self._on_record(record)
                report["watches"][watch.id] = {
                    "added": record.added_count,
                    "removed": record.removed_count,
                }
            self._batches += 1
            return report

    def _compute(
        self,
        watch: Watch,
        old: GraphVersion,
        new: GraphVersion,
        add: np.ndarray,
        delete: np.ndarray,
        batch: dict,
    ) -> DeltaRecord:
        added = watch.matcher.block_using(new.graph, add)
        removed = watch.matcher.block_using(old.graph, delete)
        record = DeltaRecord(
            pattern_name=watch.pattern.name,
            pattern=str(watch.pattern),
            version=new.version,
            graph_fingerprint=new.fingerprint,
            added_count=len(added),
            removed_count=len(removed),
            batch=batch,
            watch=watch.id,
            tenant=watch.tenant,
        )
        if watch.collect or self._verify:  # tuples only for who reads them
            lists = [list(map(tuple, rows.tolist())) for rows in (added, removed)]
            if self._verify:
                watch.matcher.verify_parity(old.graph, new.graph, *lists)
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
