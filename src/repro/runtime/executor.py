"""Execution backends for the simulated cluster.

Engines decompose their work into *tasks* — top-level functions called as
``fn(cluster, args)`` that mutate cluster state (clocks, memory, network)
and return a picklable payload.  An :class:`Executor` runs a batch of such
tasks and guarantees the cluster ends up in a deterministic state:

- :class:`SerialExecutor` (the default) runs tasks inline, one after the
  other, against the real cluster — exactly the pre-existing behaviour.
- The remote backends in :mod:`repro.distributed` ship each task to a
  shard worker that runs it against a replica cluster
  (:func:`execute_task`) and sends back a
  :class:`~repro.runtime.delta.ClusterDelta`.  Deltas are applied in
  task-submission order (:func:`merge_in_order`), so counts and reported
  stats are bit-identical no matter how many workers are configured.

Tasks in one batch must be independent: they may not rely on another
task's mutations, and at most one task per batch may touch a given
machine's main clock and memory (the single-writer discipline; additive
cross-machine effects such as daemon service time are fine).

A simulated out-of-memory inside a task is reported like the serial path:
the failing task's partial state is merged, later tasks are discarded, and
the :class:`~repro.cluster.machine.SimulatedMemoryError` is re-raised in
task order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

from repro.cluster.cluster import Cluster
from repro.obs.trace import span as _obs_span
from repro.runtime.delta import (
    ClusterState,
    apply_delta,
    compute_delta,
    restore_state,
)

TaskFn = Callable[[Cluster, Any], Any]


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
        """Release connections and worker processes (idempotent)."""

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


def execute_task(
    cluster: Cluster, base: ClusterState, fn: TaskFn, args: Any
) -> tuple[str, Any, Any]:
    """Run one task against a replica ``cluster``; ``(status, payload, delta)``.

    The core of the shard workers in :mod:`repro.distributed`: reset
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

