"""Replication-based parallelization baseline (Fan et al., SIGMOD 2017/18).

Covers the remaining approach from the paper's Sec. 8 related work: the
systems of [6] and [5] parallelize *serial* graph algorithms by giving
each machine enough of the data graph to work alone.  Before enumeration,
machine ``M_t`` copies from its peers every node and edge within distance
``d`` of its border vertices, where ``d`` is the query diameter; it then
runs a stock serial algorithm (VF2 here, as the paper suggests) over its
expanded fragment, with no further communication.

The paper's criticism is structural and reproduced faithfully: when the
query diameter is large or the data graph has a small diameter (social
networks), the d-hop ball around the border covers most of the neighbour
partitions, so the replication volume — charged to both the network and
the machines' memory — explodes.

Duplicate suppression: an embedding is counted by the machine owning the
data vertex matched to the *first* query vertex of the matching order.
With the d-hop ball replicated, every such embedding is fully visible on
that machine (any embedding vertex lies within ``span <= d`` of the start
vertex, along a path that crosses the border at a border vertex).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cluster.cluster import Cluster
from repro.engines.base import EnumerationEngine
from repro.engines.join_common import claim
from repro.runtime.executor import Executor
from repro.enumeration.backtracking import EnumerationStats
from repro.enumeration.vf2 import VF2Enumerator
from repro.query.pattern import Pattern


class ReplicationEngine(EnumerationEngine):
    """d-hop border replication + per-machine serial VF2."""

    name = "Replication"

    def __init__(self):
        self.last_replicated_vertices: int = 0
        self.last_replicated_bytes: int = 0

    # ------------------------------------------------------------------
    def _replicate(
        self, cluster: Cluster, machine_id: int, hops: int
    ) -> set[int]:
        """Fetch the d-hop ball around ``machine_id``'s border vertices.

        Returns the set of replicated foreign vertices.  The BFS runs over
        the *global* graph: each newly discovered foreign vertex's
        adjacency must be fetched before the frontier can grow through it,
        which is exactly the round-by-round neighbour expansion the
        original systems perform.
        """
        partition = cluster.partition
        local = partition.machine(machine_id)
        machine = cluster.machine(machine_id)
        graph = cluster.graph
        model = cluster.cost_model

        replicated: set[int] = set()
        dist: dict[int, int] = {}
        frontier: deque[int] = deque()
        for b in local.border_vertices:
            dist[int(b)] = 0
            frontier.append(int(b))
        ops = 0
        while frontier:
            v = frontier.popleft()
            dv = dist[v]
            if dv == hops:
                continue
            for w in graph.neighbors(v):
                w = int(w)
                ops += 1
                if w in dist:
                    continue
                dist[w] = dv + 1
                frontier.append(w)
                if not local.is_owned(w):
                    replicated.add(w)
        machine.charge_ops(ops, "replicate_bfs_ops")

        # Group fetches by owner: one bulk request per peer machine.
        by_owner: dict[int, list[int]] = {}
        for w in replicated:
            by_owner.setdefault(partition.owner_of(w), []).append(w)
        nbytes = 0
        for owner, vertices in sorted(by_owner.items()):
            response = sum(
                model.adjacency_bytes(graph.degree(w)) for w in vertices
            )
            cluster.network.rpc(
                requester=machine,
                responder=cluster.machine(owner),
                request_bytes=len(vertices) * model.bytes_per_vertex_id,
                response_bytes=response,
                service_ops=float(len(vertices)),
            )
            nbytes += response
        # The expanded fragment stays resident for the whole enumeration —
        # the memory burden the paper attributes to these systems.
        machine.allocate(nbytes, "replicated_bytes")
        self.last_replicated_vertices += len(replicated)
        self.last_replicated_bytes += nbytes
        return replicated

    # ------------------------------------------------------------------
    def _execute(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        collect: bool,
        executor: Executor,
    ) -> list[tuple[int, ...]]:
        # The query diameter: the radius correctness requires.
        hops = pattern.diameter()
        self.last_replicated_vertices = 0
        self.last_replicated_bytes = 0
        model = cluster.cost_model
        emb_bytes = model.embedding_bytes(pattern.num_vertices)
        results: list[tuple[int, ...]] = []
        count = 0
        empty = np.empty(0, dtype=np.int64)

        for t in range(cluster.num_machines):
            local = cluster.partition.machine(t)
            machine = cluster.machine(t)
            replicated = self._replicate(cluster, t, hops)
            visible = replicated  # owned vertices are always visible

            def adjacency(v: int) -> np.ndarray:
                if local.is_owned(v) or v in visible:
                    return cluster.graph.neighbors(v)
                return empty

            stats = EnumerationStats()
            enumerator = VF2Enumerator(
                pattern=pattern,
                adjacency=adjacency,
                constraints=constraints,
                allowed=lambda v: local.is_owned(v) or v in visible,
                stats=stats,
            )
            found = claimed = 0
            start_owned = (int(v) for v in local.owned_vertices)
            for embedding in enumerator.run(start_owned):
                found += 1
                if collect:
                    results.append(embedding)
                claimed = claim(machine, claimed, found, emb_bytes, "result_bytes")
            machine.allocate((found - claimed) * emb_bytes, "result_bytes")
            machine.charge_ops(stats.total_ops, "vf2_ops")
            count += found
        self._count = count
        return results
