"""Cluster assembly: data graph + partition + machines + network."""

from __future__ import annotations

from repro.cluster.costmodel import CostModel
from repro.cluster.machine import Machine
from repro.cluster.network import Network
from repro.graph.graph import Graph
from repro.partition.partition import GraphPartition
from repro.partition.partitioner import Partitioner
from repro.partition.metis_like import MetisLikePartitioner


class Cluster:
    """A simulated cluster holding a partitioned data graph.

    Build one with :meth:`create`, hand it to any engine in
    :mod:`repro.engines` or :mod:`repro.core`, and read the stats back from
    ``machines`` / ``network`` afterwards.
    """

    def __init__(
        self,
        partition: GraphPartition,
        cost_model: CostModel,
        memory_capacity: int | None = None,
    ):
        self.partition = partition
        self.cost_model = cost_model
        self.memory_capacity = memory_capacity
        self.machines = [
            Machine(t, cost_model, memory_capacity)
            for t in range(partition.num_machines)
        ]
        self.network = Network(partition.num_machines, cost_model)

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        graph: Graph,
        num_machines: int,
        partitioner: Partitioner | None = None,
        memory_capacity: int | None = None,
    ) -> "Cluster":
        """Partition ``graph`` over ``num_machines`` and build the cluster
        (default cost model)."""
        partitioner = partitioner or MetisLikePartitioner()
        owner = partitioner.assign(graph, num_machines)
        partition = GraphPartition(graph, owner, num_machines)
        return cls(partition, CostModel(), memory_capacity)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The data graph."""
        return self.partition.graph

    @property
    def num_machines(self) -> int:
        """Cluster size."""
        return len(self.machines)

    def machine(self, t: int) -> Machine:
        """Machine ``t``."""
        return self.machines[t]

    def barrier(self) -> None:
        """Synchronise all main clocks to the slowest machine."""
        latest = max(m.clock for m in self.machines)
        for machine in self.machines:
            machine.clock = latest

    def makespan(self) -> float:
        """Completion time of the whole job."""
        return max(m.finish_time for m in self.machines) if self.machines else 0.0

    def total_comm_bytes(self) -> int:
        """All bytes exchanged so far."""
        return self.network.total_bytes

    def peak_memory(self) -> int:
        """Largest per-machine peak memory."""
        return max((m.peak_memory for m in self.machines), default=0)

    def set_speed_factor(self, machine_id: int, factor: float) -> None:
        """Scale one machine's CPU rate (below 1 makes it a straggler)."""
        if factor <= 0:
            raise ValueError("speed factor must be positive")
        self.machines[machine_id].speed_factor = factor

    def fresh_copy(self) -> "Cluster":
        """A new cluster over the same partition with zeroed stats.

        Speed factors are hardware configuration, not run state, so they
        carry over to the copy.
        """
        copy = Cluster(self.partition, self.cost_model, self.memory_capacity)
        for mine, theirs in zip(self.machines, copy.machines):
            theirs.speed_factor = mine.speed_factor
        return copy
