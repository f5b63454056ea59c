"""Execution backends: the serial executor and the task/delta core.

:class:`SerialExecutor` is the default.  The parallel backends — shard
workers forked on this host (``ProcessExecutor``) or running elsewhere
(``SocketExecutor``) — live in :mod:`repro.distributed`.  Pick one with
:meth:`repro.api.RunConfig.make_executor` and pass it to
:meth:`repro.engines.base.EnumerationEngine.run`, to
:func:`repro.bench.harness.run_query_grid`, or on the command line via
``python -m repro enumerate --workers N``.
"""

from repro.runtime.delta import (
    ClusterDelta,
    ClusterState,
    MachineState,
    apply_delta,
    capture_state,
    compute_delta,
    restore_state,
)
from repro.runtime.executor import Executor, SerialExecutor, execute_task

__all__ = [
    "ClusterDelta",
    "ClusterState",
    "Executor",
    "MachineState",
    "SerialExecutor",
    "apply_delta",
    "capture_state",
    "compute_delta",
    "execute_task",
    "restore_state",
]
