"""The socket-transport execution backend.

:class:`SocketExecutor` is a drop-in :class:`~repro.runtime.executor.Executor`
that runs each batch's tasks on remote
:class:`~repro.distributed.worker.ShardWorker` daemons instead of a local
process pool.  Everything engines rely on is preserved:

- deltas are applied in **task-submission order**, so counts and reported
  stats are bit-identical to the serial and process backends no matter
  how tasks were dealt across shards (or resubmitted after a fault);
- a failing task (simulated OOM) has its partial delta merged and its
  exception re-raised in task order, exactly like
  :class:`~repro.runtime.executor.ProcessExecutor`;
- fault-tolerance events are surfaced on the run's counters
  (``distributed.resubmits``, ``distributed.lost_workers``) whenever
  they advance — a healthy run carries neither key, keeping its
  counters byte-for-byte equal to a serial run's.

Select it with ``RunConfig(backend="socket", shards=[...])``,
``Session.backend("socket", shards=[...])`` or
``repro run --backend socket --shards host:port,...``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.cluster.cluster import Cluster
from repro.distributed.coordinator import (
    LOST_WORKERS,
    RESUBMITS,
    ShardCoordinator,
)
from repro.obs.profile import attach_worker_usage, profile_active
from repro.obs.trace import attach_spans, span as _obs_span, wire_context
from repro.runtime.executor import Executor, TaskFn, merge_in_order

__all__ = ["SocketExecutor"]


class SocketExecutor(Executor):
    """Executor dispatching batches to shard workers over TCP.

    Connects (and handshakes) eagerly so misconfigured rosters fail at
    construction, not mid-run.  ``workers`` reports the live roster size.
    See :class:`~repro.distributed.coordinator.ShardCoordinator` for the
    roster/fault-tolerance parameters forwarded via ``**coordinator_kwargs``
    (``window``, ``connect_timeout``, ``task_timeout``, ``ship_graph``,
    ``heartbeat_interval``, and — for an elastic roster that follows
    worker announcements — ``registry`` / ``rejoin_timeout``; with a
    registry, ``shards`` may be empty).
    """

    parallel = True

    def __init__(
        self,
        shards: Sequence["tuple[str, int] | str | int"],
        *,
        heartbeat_interval: float | None = 30.0,
        **coordinator_kwargs: Any,
    ):
        self._coordinator = ShardCoordinator(
            shards,
            heartbeat_interval=heartbeat_interval,
            **coordinator_kwargs,
        )
        self.workers = len(self._coordinator.live_shards())
        # Fault counters already surfaced on some earlier run's results;
        # each run reports only what happened since.  The baseline is
        # zero (not the post-connect snapshot) so shards that were
        # configured but unreachable at startup land on the first run's
        # counters instead of vanishing.
        self._counters_seen = {RESUBMITS: 0, LOST_WORKERS: 0}

    @property
    def coordinator(self) -> ShardCoordinator:
        """The underlying roster (live shards, counters, heartbeat)."""
        return self._coordinator

    # ------------------------------------------------------------------
    def run_tasks(
        self, cluster: Cluster, fn: TaskFn, tasks: Sequence[Any]
    ) -> list[Any]:
        if not tasks:
            return []
        with _obs_span(
            "executor.batch", backend="socket", tasks=len(tasks)
        ):
            # Traced runs ship the batch span as the parent for the
            # shard workers' leaf spans; the finished worker spans come
            # back with the batch and fold into the live tree here.
            # Profiled runs ride the same pipe: workers measure their
            # own rusage per task and the rows fold into the active
            # profiler.
            try:
                triples = self._coordinator.run_batch(
                    cluster, fn, tasks,
                    trace=wire_context(),
                    profile=profile_active(),
                )
            finally:
                self.workers = len(self._coordinator.live_shards())
                self._surface_counters(cluster)
                attach_spans(self._coordinator.take_worker_spans())
                attach_worker_usage(self._coordinator.take_worker_usage())
        return merge_in_order(cluster, triples)

    def _surface_counters(self, cluster: Cluster) -> None:
        """Attach fault-counter advances to the run's cluster counters.

        Only advanced counters are attached (a fault-free run reports
        nothing, so its stats stay bit-identical to serial); machine 0
        hosts them because :func:`repro.engines.base._cluster_counters`
        merges per-machine counters anyway.
        """
        current = self._coordinator.counters
        for key in (RESUBMITS, LOST_WORKERS):
            advance = current.get(key, 0) - self._counters_seen.get(key, 0)
            if advance > 0 and cluster.machines:
                cluster.machines[0].counters[key] += advance
        self._counters_seen = current

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Disconnect from the roster (idempotent; daemons keep running)."""
        self._coordinator.close()
