"""Distributed shard runtime: run the simulated cluster across hosts.

This package is the socket-transport counterpart of :mod:`repro.runtime`
(PR 1's executor abstraction) built on :mod:`repro.service`'s JSON-lines
wire format (PR 4):

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
  serial and process backends.

Select the backend with ``RunConfig(backend="socket", shards=[...])``,
``Session.backend("socket", shards=[...])``, or
``repro run --backend socket --shards host:port,...``.  See the
"Distributed shards" section of docs/api.md for the wire schema, failure
semantics and shard lifecycle.
"""

from repro.distributed.coordinator import DistributedError, ShardCoordinator
from repro.distributed.executor import SocketExecutor
from repro.distributed.protocol import WORKER_PROTOCOL_VERSION
from repro.distributed.registry import ShardRegistry
from repro.distributed.worker import ShardWorker, stop_worker

__all__ = [
    "DistributedError",
    "ShardCoordinator",
    "ShardRegistry",
    "ShardWorker",
    "SocketExecutor",
    "WORKER_PROTOCOL_VERSION",
    "stop_worker",
]
