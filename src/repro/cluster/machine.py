"""Simulated machine: virtual clock, operation counters, memory accounting."""

from __future__ import annotations

from collections import Counter

from repro.cluster.costmodel import CostModel


class SimulatedMemoryError(RuntimeError):
    """Raised when an engine exceeds a machine's simulated memory capacity.

    Mirrors the paper's out-of-memory failures (empty bars in Figs. 8-11).
    """

    def __init__(self, machine_id: int, requested: int, used: int, capacity: int):
        super().__init__(
            f"machine {machine_id}: OOM allocating {requested} B "
            f"(used {used} of {capacity} B)"
        )
        self.machine_id = machine_id
        self.requested = requested
        self.used = used
        self.capacity = capacity

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the message) into
        # ``__init__``, which expects the four fields; rebuild explicitly so
        # the error crosses process boundaries intact.
        return (
            SimulatedMemoryError,
            (self.machine_id, self.requested, self.used, self.capacity),
        )


class Machine:
    """One simulated cluster node.

    ``clock`` is the main enumeration thread; ``daemon_clock`` tracks the
    daemon thread that serves remote `fetchV`/`verifyE` requests (RADS
    overlaps daemon service with local work, so the two are separate).

    ``speed_factor`` (1 here; :meth:`Cluster.set_speed_factor` changes
    it) scales the CPU rate of this machine relative to the cost model's
    baseline; values below 1 make it a *straggler*.  The
    paper motivates asynchrony with exactly this: in synchronous systems
    "the machines must wait for each other [...], making the overall
    performance equivalent to that of the slowest machine".
    """

    def __init__(
        self,
        machine_id: int,
        cost_model: CostModel,
        memory_capacity: int | None = None,
    ):
        self.machine_id = machine_id
        self.cost_model = cost_model
        self.memory_capacity = memory_capacity
        self.speed_factor = 1.0
        self.clock = 0.0
        self.daemon_clock = 0.0
        self.memory_used = 0
        self.peak_memory = 0
        self.counters: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def charge_ops(self, ops: float, counter: str = "ops") -> None:
        """Advance the main clock by ``ops`` units of compute."""
        self.clock += self.cost_model.compute_time(ops) / self.speed_factor
        self.counters[counter] += int(ops)

    def charge_daemon_ops(self, ops: float) -> None:
        """Advance the daemon clock (overlapped with the main thread)."""
        self.daemon_clock += (
            self.cost_model.compute_time(ops) / self.speed_factor
        )
        self.counters["daemon_ops"] += int(ops)

    def advance(self, seconds: float) -> None:
        """Advance the main clock by wall time (waits, transfers)."""
        self.clock += seconds

    @property
    def finish_time(self) -> float:
        """Completion time: main and daemon threads both must finish."""
        return max(self.clock, self.daemon_clock)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int, counter: str = "alloc_bytes") -> None:
        """Claim simulated memory; raises SimulatedMemoryError over capacity."""
        if nbytes < 0:
            raise ValueError("allocation must be non-negative")
        if (
            self.memory_capacity is not None
            and self.memory_used + nbytes > self.memory_capacity
        ):
            raise SimulatedMemoryError(
                self.machine_id, nbytes, self.memory_used, self.memory_capacity
            )
        self.memory_used += nbytes
        self.peak_memory = max(self.peak_memory, self.memory_used)
        self.counters[counter] += nbytes

    def free(self, nbytes: int) -> None:
        """Release simulated memory."""
        self.memory_used = max(0, self.memory_used - nbytes)
