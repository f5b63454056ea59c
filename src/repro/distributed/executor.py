"""The socket-transport execution backends.

:class:`SocketExecutor` is a drop-in :class:`~repro.runtime.executor.Executor`
that runs each batch's tasks on :class:`~repro.distributed.worker.ShardWorker`
daemons.  :class:`ProcessExecutor` is the same backend over shard workers
it forks on this host.  Everything engines rely on is preserved:

- deltas are applied in **task-submission order**, so counts and reported
  stats are bit-identical to the serial backend no matter how tasks
  were dealt across shards (or resubmitted after a fault);
- a failing task (simulated OOM) has its partial delta merged and its
  exception re-raised in task order, exactly like the serial backend;
- fault-tolerance events are surfaced on the run's counters
  (``distributed.resubmits``, ``distributed.lost_workers``) whenever
  they advance — a healthy run carries neither key, keeping its
  counters byte-for-byte equal to a serial run's.

Select them with ``RunConfig(backend="socket", shards=[...])`` or
``RunConfig(backend="process", workers=N)``, the same arguments to
``Session.backend``, or ``repro run --backend socket --shards
host:port,...`` and ``repro run --workers N``.
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import sys
import threading
import time
from typing import Any, Sequence

from repro.cluster.cluster import Cluster
from repro.distributed.coordinator import (
    LOST_WORKERS,
    RESUBMITS,
    ShardCoordinator,
)
from repro.distributed.errors import DistributedError
from repro.distributed.worker import ShardWorker
from repro.obs.trace import attach_spans, span as _obs_span, wire_context
from repro.runtime.executor import Executor, TaskFn, merge_in_order

__all__ = ["ProcessExecutor", "SocketExecutor"]


class SocketExecutor(Executor):
    """Executor dispatching batches to shard workers over TCP.

    Connects (and handshakes) eagerly so misconfigured rosters fail at
    construction, not mid-run.  ``workers`` reports the live roster size.
    See :class:`~repro.distributed.coordinator.ShardCoordinator` for the
    roster/fault-tolerance parameters forwarded via ``**coordinator_kwargs``
    (``task_timeout``, ``heartbeat_interval``, and —
    for an elastic roster that follows worker announcements —
    ``registry``; with a registry, ``shards`` may be empty).
    """

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
            # back with the batch and fold into the live tree here (a
            # profile sums its worker rows from them).
            try:
                triples = self._coordinator.run_batch(
                    cluster, fn, tasks, trace=wire_context()
                )
            finally:
                self.workers = len(self._coordinator.live_shards())
                self._surface_counters(cluster)
                attach_spans(self._coordinator.take_worker_spans())
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


#: Seconds a forked worker has to report its bound address.
_START_TIMEOUT = 30.0


def _serve_local(report, graph: Any, authkey: bytes) -> None:
    """Forked child: bind a shard worker, report its address, serve until
    closed or orphaned (a parent killed outright stops nothing itself)."""
    worker, parent = ShardWorker(graph=graph, authkey=authkey), os.getppid()
    report.send(worker.address)
    report.close()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        worker.close()

    threading.Thread(target=watch, daemon=True).start()
    worker.serve_forever()


class ProcessExecutor(SocketExecutor):
    """The socket backend over ``workers`` shard workers forked locally.

    Each worker binds an ephemeral localhost port (``workers`` of 0 or
    None forks one per CPU) and answers only a peer proving a key made
    here, which it inherits at fork.  So does ``graph``, the data graph
    the runs will use, which is then never shipped.  A worker that dies
    is lost and its tasks resubmitted, like any shard; no task timeout
    applies, since a dead child is an EOF.  :meth:`close` disconnects,
    then stops the workers.
    """

    def __init__(self, workers: int | None = None, graph: Any = None):
        # Prefer fork on Linux (cheap, inherits the warm interpreter and
        # every task function the parent can name); elsewhere keep the
        # platform default — macOS switched its default to spawn because
        # forking a process that touched ObjC/CoreFoundation can crash
        # the child.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if sys.platform == "linux" and "fork" in methods else None
        )
        authkey = secrets.token_bytes(32)
        if graph is not None:
            graph.fingerprint()  # hashed once here, inherited by each child
        self._children: list[Any] = []
        addresses = []
        try:
            for _ in range(max(1, workers or os.cpu_count() or 1)):
                receive, report = context.Pipe(duplex=False)
                child = context.Process(
                    target=_serve_local,
                    args=(report, graph, authkey),
                    daemon=True,
                )
                child.start()
                self._children.append(child)
                report.close()
                with receive:
                    try:
                        address = (
                            receive.recv()
                            if receive.poll(_START_TIMEOUT) else None
                        )
                    except EOFError:  # the child died before reporting
                        address = None
                if address is None:
                    raise DistributedError(
                        f"local shard worker {child.pid} did not start"
                    )
                addresses.append(address)
            super().__init__(addresses, authkey=authkey, task_timeout=None)
        except BaseException:
            self._stop_children()
            raise

    def _stop_children(self) -> None:
        # SIGTERM: a local worker holds nothing that needs a goodbye.
        # (Closing a pipe the child waits on would not stop it, because
        # every later sibling inherits that pipe.)
        children, self._children = self._children, []
        for child in children:
            child.terminate()
        for child in children:
            child.join(timeout=5)
            if child.is_alive():
                child.kill()
                child.join()

    def close(self) -> None:
        """Disconnect from the workers, then stop them (idempotent)."""
        super().close()
        self._stop_children()
