"""Execution backends for the simulated cluster.

Engines decompose their work into *tasks* — top-level functions called as
``fn(cluster, args)`` that mutate cluster state (clocks, memory, network)
and return a picklable payload.  An :class:`Executor` runs a batch of such
tasks and guarantees the cluster ends up in a deterministic state:

- :class:`SerialExecutor` (the default) runs tasks inline, one after the
  other, against the real cluster — exactly the pre-existing behaviour.
- :class:`ProcessExecutor` fans tasks out over a ``ProcessPoolExecutor``.
  Workers rebuild the cluster around the CSR graph arrays published in
  shared memory (see :mod:`repro.runtime.shared_graph`), run the task
  against that replica, and ship back a :class:`~repro.runtime.delta.ClusterDelta`.
  Deltas are applied in task-submission order, so counts and reported
  stats are bit-identical no matter how many workers are configured.

Tasks in one batch must be independent: they may not rely on another
task's mutations, and at most one task per batch may touch a given
machine's main clock and memory (the single-writer discipline; additive
cross-machine effects such as daemon service time are fine).

A simulated out-of-memory inside a task is reported like the serial path:
the failing task's partial state is merged, later tasks are discarded, and
the :class:`~repro.cluster.machine.SimulatedMemoryError` is re-raised in
task order — :func:`merge_in_order`, the one merge rule the process and
socket backends share.  A worker process dying outright (segfault,
``os._exit``) surfaces as :class:`WorkerCrashError` instead of hanging the
batch.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import sys
import uuid
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.cluster.cluster import Cluster
from repro.obs.trace import span as _obs_span
from repro.partition.partition import GraphPartition
from repro.runtime.delta import (
    ClusterState,
    apply_delta,
    capture_state,
    compute_delta,
    restore_state,
)
from repro.runtime.shared_graph import (
    SharedArray,
    SharedArrayHandle,
    SharedGraph,
    SharedGraphHandle,
)

TaskFn = Callable[[Cluster, Any], Any]


class WorkerCrashError(RuntimeError):
    """A worker process died before returning its task result."""


class Executor(ABC):
    """Runs batches of independent cluster tasks (:meth:`run_tasks` is
    the whole contract)."""

    #: True when tasks may run concurrently (engines use this to pick
    #: schedule-free decompositions over inherently sequential ones).
    parallel: bool = False
    #: Number of OS processes executing tasks.
    workers: int = 1

    @abstractmethod
    def run_tasks(
        self, cluster: Cluster, fn: TaskFn, tasks: Sequence[Any]
    ) -> list[Any]:
        """Run ``fn(cluster, args)`` for each ``args``; payloads in order."""

    def close(self) -> None:
        """Release pools and shared memory (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """Inline execution against the real cluster (default backend)."""

    parallel = False
    workers = 1

    def run_tasks(
        self, cluster: Cluster, fn: TaskFn, tasks: Sequence[Any]
    ) -> list[Any]:
        with _obs_span("executor.batch", backend="serial", tasks=len(tasks)):
            return [fn(cluster, args) for args in tasks]


@dataclass(frozen=True)
class _ClusterSpec:
    """Everything a worker needs to replicate a cluster (small + picklable).

    The heavy, immutable data (graph CSR arrays + ownership map) is keyed
    by ``token`` so workers attach once per partition; the cheap
    per-cluster configuration rides alongside.
    """

    token: str
    graph: SharedGraphHandle
    owner: SharedArrayHandle
    cost_model: Any
    memory_capacity: int | None


class _SpecEntry:
    """Owner-side shared segments backing one partition's data."""

    def __init__(self, partition: GraphPartition):
        self.shared_graph = SharedGraph(partition.graph)
        self.shared_owner = SharedArray(partition.owner)
        self.token = uuid.uuid4().hex
        self.graph_handle = self.shared_graph.handle
        self.owner_handle = self.shared_owner.handle

    def close(self) -> None:
        self.shared_graph.close()
        self.shared_owner.close()


class ProcessExecutor(Executor):
    """Process-pool backend sharing the CSR graph via shared memory."""

    parallel = True

    def __init__(self, workers: int | None = None):
        self.workers = max(1, workers or os.cpu_count() or 1)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        # Segments are published once per *partition* (immutable data);
        # fresh_copy() clusters over the same partition reuse them.
        self._specs: "weakref.WeakKeyDictionary[GraphPartition, _SpecEntry]" = (
            weakref.WeakKeyDictionary()
        )
        # One finalizer per spec entry: unlinks its segments when the
        # cluster is garbage-collected, when close() runs, or (safety net)
        # when the executor itself is collected — whichever comes first.
        self._entry_finalizers: list[weakref.finalize] = []
        self._finalizer = weakref.finalize(
            self, ProcessExecutor._cleanup, self._entry_finalizers
        )

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            # Prefer fork on Linux (cheap, inherits the warm interpreter);
            # elsewhere keep the platform default — macOS switched its
            # default to spawn because forking a process that touched
            # ObjC/CoreFoundation can crash the child.
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork"
                if sys.platform == "linux" and "fork" in methods
                else None
            )
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._pool

    def _spec_for(self, cluster: Cluster) -> _ClusterSpec:
        partition = cluster.partition
        entry = self._specs.get(partition)
        if entry is None:
            entry = _SpecEntry(partition)
            self._specs[partition] = entry
            self._entry_finalizers.append(
                weakref.finalize(partition, entry.close)
            )
        return _ClusterSpec(
            token=entry.token,
            graph=entry.graph_handle,
            owner=entry.owner_handle,
            cost_model=cluster.cost_model,
            memory_capacity=cluster.memory_capacity,
        )

    # ------------------------------------------------------------------
    def run_tasks(
        self, cluster: Cluster, fn: TaskFn, tasks: Sequence[Any]
    ) -> list[Any]:
        if not tasks:
            return []
        with _obs_span(
            "executor.batch",
            backend="process",
            tasks=len(tasks),
            workers=self.workers,
        ):
            return self._run_tasks_pooled(cluster, fn, tasks)

    def _run_tasks_pooled(
        self, cluster: Cluster, fn: TaskFn, tasks: Sequence[Any]
    ) -> list[Any]:
        pool = self._ensure_pool()
        spec = self._spec_for(cluster)
        base = capture_state(cluster)
        futures = [
            pool.submit(_worker_run, spec, base, fn, args) for args in tasks
        ]
        triples = []
        for future in futures:  # drain every future, for pool hygiene
            try:
                triples.append(future.result())
            except concurrent.futures.process.BrokenProcessPool as exc:
                # The pool is unusable after a hard crash; drop it so the
                # next batch starts a fresh one.  The crash takes its own
                # position: an earlier task's error still wins.
                self._pool = None
                crash = WorkerCrashError(
                    "a cluster-task worker process died unexpectedly "
                    "(see stderr for the crashed task's output)"
                )
                crash.__cause__ = exc
                triples.append(("transport_error", crash, None))
            except Exception as exc:
                # Result transport failed (e.g. unpicklable payload).
                # KeyboardInterrupt/SystemExit propagate immediately — a
                # user interrupt must not wait for the batch to drain.
                triples.append(("transport_error", exc, None))
        return merge_in_order(cluster, triples)

    # ------------------------------------------------------------------
    @staticmethod
    def _cleanup(finalizers: list[weakref.finalize]) -> None:
        for finalizer in finalizers:
            finalizer()
        finalizers.clear()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._finalizer.detach()
        self._cleanup(self._entry_finalizers)
        self._specs = weakref.WeakKeyDictionary()


def get_executor(workers: int | None) -> Executor:
    """Backend from a ``--workers`` style knob: 0/None = serial."""
    if not workers or workers <= 0:
        return SerialExecutor()
    return ProcessExecutor(workers)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: token -> (attached partition, shared-memory blocks kept alive for it).
#: Unbounded on purpose: evicting would unmap segments still referenced
#: by cached cluster replicas, and a session only ever sees a handful of
#: distinct partitions.
_WORKER_PARTITIONS: dict[str, tuple[GraphPartition, list]] = {}
#: (token, cost model, capacity) -> cluster replica over a cached partition.
_WORKER_CLUSTERS: dict[tuple, Cluster] = {}
#: Cluster replicas cached per worker process; evict beyond this many.
_WORKER_CACHE_LIMIT = 8


def _worker_cluster(spec: _ClusterSpec) -> Cluster:
    """The worker-local replica for a spec, built once per process."""
    key = (spec.token, spec.cost_model, spec.memory_capacity)
    cluster = _WORKER_CLUSTERS.get(key)
    if cluster is None:
        partition_entry = _WORKER_PARTITIONS.get(spec.token)
        if partition_entry is None:
            graph, blocks = spec.graph.attach()
            owner, owner_block = spec.owner.attach()
            partition_entry = (
                GraphPartition(graph, owner), blocks + [owner_block]
            )
            _WORKER_PARTITIONS[spec.token] = partition_entry
        cluster = Cluster(
            partition_entry[0], spec.cost_model, spec.memory_capacity
        )
        while len(_WORKER_CLUSTERS) >= _WORKER_CACHE_LIMIT:
            _WORKER_CLUSTERS.pop(next(iter(_WORKER_CLUSTERS)))
        _WORKER_CLUSTERS[key] = cluster
    return cluster


def execute_task(
    cluster: Cluster, base: ClusterState, fn: TaskFn, args: Any
) -> tuple[str, Any, Any]:
    """Run one task against a replica ``cluster``; ``(status, payload, delta)``.

    The shared core of every remote backend (the process pool below and
    the socket-transport shard workers in :mod:`repro.distributed`): reset
    the replica to the shipped ``base`` snapshot, run the task, and return
    its payload together with the replica's state delta.  Every task
    exception (simulated OOM or otherwise) is returned together with the
    partial delta: the serial backend leaves a failing task's mutations on
    the real cluster, so remote backends must merge them too before
    re-raising.
    """
    restore_state(cluster, base)
    try:
        payload = fn(cluster, args)
        status = "ok"
    except Exception as exc:
        payload = exc
        status = "error"
    return status, payload, compute_delta(cluster, base)


def merge_in_order(
    cluster: Cluster, triples: Sequence[tuple[str, Any, Any]]
) -> list[Any]:
    """Apply remote ``(status, payload, delta)`` triples in task order.

    The one merge rule of every remote backend, so the real ``cluster``
    ends as the serial backend would leave it: deltas merge in task
    order and ``ok`` payloads are returned.  A task's error is raised
    after its partial delta is merged; a ``transport_error`` (the task's
    result never arrived) merges nothing and is raised.  Triples after
    the first error are discarded — serial execution never ran them.
    """
    payloads: list[Any] = []
    for status, payload, delta in triples:
        if status == "transport_error":
            raise payload
        apply_delta(cluster, delta)
        if status == "error":
            raise payload
        payloads.append(payload)
    return payloads


def _worker_run(
    spec: _ClusterSpec, base: ClusterState, fn: TaskFn, args: Any
) -> tuple[str, Any, Any]:
    """Run one task against the pool worker's cached replica."""
    return execute_task(_worker_cluster(spec), base, fn, args)
