"""Distributed shard runtime: run the simulated cluster across hosts.

This package holds the parallel backends of :mod:`repro.runtime`'s
executor abstraction, built on :mod:`repro.service`'s JSON-lines wire
format:

- :class:`~repro.distributed.worker.ShardWorker` — a long-lived daemon
  (``repro worker --port P``, one per core) holding the CSR graph +
  ownership map locally and executing cluster tasks inline.
- :class:`~repro.distributed.coordinator.ShardCoordinator` — roster
  management: versioned handshakes, graph shipping cached by
  ``Graph.fingerprint()``, heartbeats, per-shard in-flight windows, and
  resubmission of a dead or hung shard's outstanding tasks.
- :class:`~repro.distributed.executor.SocketExecutor` — the
  :class:`~repro.runtime.executor.Executor` backend engines actually
  see; deltas merge in task order so results are bit-identical to the
  serial backend.
- :class:`~repro.distributed.executor.ProcessExecutor` — the same
  backend over shard workers it forks on this host (the ``"process"``
  backend): one wire, one merge and one fault model for a machine's
  cores and for many machines.

Select the backend with ``RunConfig(backend="socket", shards=[...])``,
``Session.backend("socket", shards=[...])``, or
``repro run --backend socket --shards host:port,...``; local workers with
``RunConfig(workers=N)`` or ``repro run --workers N``.  See the
"Distributed shards" section of docs/api.md for the wire schema, failure
semantics and shard lifecycle.
"""

from __future__ import annotations

from repro import _lazy

#: Exports resolved on first access: importing ``repro.distributed.errors``
#: loads neither the coordinator, the executors, the worker nor the service.
_EXPORTS = {name: (f"{__name__}.{module}", name) for module, names in {
    "coordinator": ("ShardCoordinator",),
    "errors": ("DistributedError",),
    "executor": ("ProcessExecutor", "SocketExecutor"),
    "protocol": ("WORKER_PROTOCOL_VERSION",),
    "registry": ("ShardRegistry",),
    "worker": ("ShardWorker", "stop_worker"),
}.items() for name in names}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
