"""Partitioned data-graph views: ownership, border vertices, border distance.

Storage model follows the paper exactly (Sec. 2): each machine stores the
adjacency lists of the vertices it *owns* plus a full ownership map
(one byte per vertex, built offline).  An edge resides on a machine iff at
least one endpoint is owned there, so an edge can reside on two machines.
A *border vertex* is an owned vertex with at least one foreign neighbour.
"""

from __future__ import annotations

import numpy as np

import repro.enumeration.block as kernel
from repro.graph.graph import Graph


class MachinePartition:
    """The slice of the data graph owned by one machine ``M_t``."""

    def __init__(self, graph: Graph, owner: np.ndarray, machine_id: int):
        self._graph = graph
        self._owner = owner
        self._machine_id = machine_id
        self._owned_mask = owner == machine_id
        self._owned_mask.flags.writeable = False
        self._owned = np.flatnonzero(self._owned_mask).astype(np.int64)
        self._border: np.ndarray | None = None
        self._border_distances: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def machine_id(self) -> int:
        """Index of this machine."""
        return self._machine_id

    @property
    def graph(self) -> Graph:
        """The full data graph (used only through owned adjacency)."""
        return self._graph

    @property
    def owned_vertices(self) -> np.ndarray:
        """Sorted array of vertices owned here."""
        return self._owned

    @property
    def owned_mask(self) -> np.ndarray:
        """Boolean ownership mask over all vertices (read-only)."""
        return self._owned_mask

    @property
    def owned_degrees(self) -> np.ndarray:
        """Degree of each of :attr:`owned_vertices`."""
        indptr = self._graph.indptr
        return indptr[self._owned + 1] - indptr[self._owned]

    def is_owned(self, v: int) -> bool:
        """True iff ``v`` resides on this machine."""
        return int(self._owner[v]) == self._machine_id

    def owner_of(self, v: int) -> int:
        """Ownership map lookup (available on every machine, Sec. 3.2)."""
        return int(self._owner[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Adjacency list of an *owned* vertex."""
        if not self.is_owned(v):
            raise KeyError(
                f"vertex {v} is foreign to machine {self._machine_id}"
            )
        return self._graph.neighbors(v)

    def degree(self, v: int) -> int:
        """Degree of an owned vertex."""
        if not self.is_owned(v):
            raise KeyError(
                f"vertex {v} is foreign to machine {self._machine_id}"
            )
        return self._graph.degree(v)

    # ------------------------------------------------------------------
    @property
    def border_vertices(self) -> np.ndarray:
        """Owned vertices with at least one foreign neighbour (cached)."""
        if self._border is None:
            row, nbrs = kernel.neighbors(self._graph, self._owned)
            foreign = np.bincount(
                row[~self._owned_mask[nbrs]], minlength=len(self._owned)
            )
            self._border = self._owned[foreign > 0]
        return self._border

    @property
    def border_distances(self) -> np.ndarray:
        """Paper Def. 1 for each of :attr:`owned_vertices` (cached).

        The hop distance to the nearest border vertex, measured inside the
        local partition (only hops across owned vertices).  Vertices that
        reach no border (a fully interior component) get a large sentinel.
        """
        if self._border_distances is None:
            self._border_distances = self._compute_border_distances()
        return self._border_distances

    def _compute_border_distances(self) -> np.ndarray:
        """Level-synchronous BFS from the border across owned vertices."""
        dist = np.full(self._graph.num_vertices, _FAR, dtype=np.int64)
        frontier = self.border_vertices
        depth = 0
        while len(frontier):
            dist[frontier] = depth
            depth += 1
            _, nbrs = kernel.neighbors(self._graph, frontier)
            frontier = np.unique(
                nbrs[self._owned_mask[nbrs] & (dist[nbrs] == _FAR)]
            )
        return dist[self._owned]

    def adjacency_bytes(self) -> int:
        """Bytes of adjacency data stored here (8 bytes per neighbour entry)."""
        return int(self.owned_degrees.sum()) * 8


_FAR = 1 << 30


class GraphPartition:
    """A full partitioning ``{G_1 .. G_m}`` of a data graph; a part the
    partitioner left empty is still one of the ``num_machines`` machines."""

    def __init__(self, graph: Graph, owner: np.ndarray, num_machines: int):
        owner = np.asarray(owner, dtype=np.int64)
        if len(owner) != graph.num_vertices:
            raise ValueError("owner array length mismatch")
        if len(owner) and not 0 <= owner.min() <= owner.max() < num_machines:
            raise ValueError(f"owner ids outside [0, {num_machines})")
        self._graph = graph
        self._owner = owner
        self._num_machines = num_machines
        self._machines = [
            MachinePartition(graph, owner, t) for t in range(self._num_machines)
        ]

    @property
    def graph(self) -> Graph:
        """The underlying data graph."""
        return self._graph

    @property
    def num_machines(self) -> int:
        """Number of machines."""
        return self._num_machines

    @property
    def owner(self) -> np.ndarray:
        """The ownership map."""
        return self._owner

    def machine(self, t: int) -> MachinePartition:
        """The partition slice of machine ``t``."""
        return self._machines[t]

    def machines(self) -> list[MachinePartition]:
        """All machine slices."""
        return list(self._machines)

    def owner_of(self, v: int) -> int:
        """Machine owning vertex ``v``."""
        return int(self._owner[v])
