"""BigJoin baseline (Ammar et al., PVLDB 2018) — extension beyond the
paper's evaluated set (discussed in its Sec. 8 related work).

BigJoin treats the query as a multiway join of binary edge relations and
extends partial embeddings one query vertex at a time, achieving
worst-case-optimal intermediate sizes: the candidate set for the next
vertex is the *intersection* of the adjacency of all matched pattern
neighbours.  Distribution follows the dataflow formulation: a prefix visits
the owner of each matched neighbour in turn, narrowing its candidate set
locally, so prefixes (plus their shrinking candidate sets) are shuffled at
every hop — like the paper says: "it still needs to shuffle and exchange
intermediate results, and therefore synchronization before that".

A machine's prefixes are an ``(n, q)`` int64 block and its in-flight set
is ``(prefixes, counts, candidates)``: row ``i``'s candidates, ascending,
are the next ``counts[i]`` entries of the flat ``candidates`` array (both
are ``None`` before the first hop).  Those arrays are what a task takes
and returns, so they are also what crosses a process or socket boundary.
The step on them — and the split by destination that routes them between
hop owners — is :mod:`repro.enumeration.block`'s; the byte accounting is
BigJoin's own.
"""

from __future__ import annotations

import numpy as np

import repro.enumeration.block as kernel
from repro.cluster.cluster import Cluster
from repro.engines.base import EnumerationEngine
from repro.enumeration.backtracking import compute_matching_order
from repro.query.pattern import Pattern
from repro.query.symmetry import bound_columns
from repro.runtime.executor import Executor


def _intersect_task(cluster: Cluster, args: tuple) -> tuple:
    """Narrow candidate sets at one hop owner (independent task)."""
    t, (prefixes, counts, cands), hop, prefix_width = args
    graph = cluster.graph
    machine = cluster.machine(t)
    prefix_bytes = cluster.cost_model.embedding_bytes(prefix_width)
    arrived = len(prefixes) * prefix_bytes
    anchors = prefixes[:, hop]
    if cands is None:  # first hop: the hop vertex's adjacency, unfiltered
        ops = 0
        row, cands = kernel.neighbors(graph, anchors)
    else:
        arrived += len(cands) * 8
        row = np.repeat(np.arange(len(prefixes)), counts)
        row, cands, cost = kernel.member(graph, anchors[:, None], row, cands)
        ops = int(cost.sum())
    counts = np.bincount(row, minlength=len(prefixes))
    alive = counts > 0
    prefixes, counts = prefixes[alive], counts[alive]
    machine.charge_ops(ops, "intersect_ops")
    machine.allocate(
        len(cands) * 8 + len(prefixes) * prefix_bytes, "prefix_bytes"
    )
    machine.free(arrived)
    return t, (prefixes, counts, cands)


def _extend_task(cluster: Cluster, args: tuple) -> tuple:
    """Materialise extensions at one machine (independent task)."""
    (
        t, (prefixes, counts, cands), q, min_degree,
        lower_positions, upper_positions,
    ) = args
    indptr = cluster.graph.indptr
    model = cluster.cost_model
    machine = cluster.machine(t)
    row = np.repeat(np.arange(len(prefixes)), counts)
    row, bounded = kernel.bounded(
        prefixes, row, cands, lower_positions, upper_positions
    )
    keep = kernel.injective(prefixes, row, bounded)
    keep &= indptr[bounded + 1] - indptr[bounded] >= min_degree
    extended = kernel.append(prefixes, row[keep], bounded[keep])
    machine.charge_ops(len(bounded), "extend_ops")
    machine.free(len(cands) * 8 + len(prefixes) * model.embedding_bytes(q))
    machine.allocate(
        len(extended) * model.embedding_bytes(q + 1), "prefix_bytes"
    )
    return t, extended


def _route(
    inflight: list[tuple], owner: np.ndarray, hop: int, prefix_bytes: int
) -> tuple[list[tuple], np.ndarray]:
    """Send every in-flight row to the owner of its ``hop`` vertex.

    Returns each destination's in-flight set — rows in source-machine,
    then row order — and the ``payload[src, dst]`` byte matrix of the
    shuffle that moves them.
    """
    num_machines = len(inflight)
    blocks, counts, cands = zip(*inflight)
    prefixes = np.concatenate(blocks)
    src = np.repeat(np.arange(num_machines), [len(b) for b in blocks])
    dst = owner[prefixes[:, hop]]
    nbytes = np.full(len(prefixes), prefix_bytes, dtype=np.int64)
    routed = [kernel.split(prefixes, dst, num_machines)]
    if counts[0] is None:
        routed += [[None] * num_machines] * 2
    else:
        counts = np.concatenate(counts)
        nbytes += counts * 8
        # A row's candidates travel with it: same destination, same order.
        routed += [
            kernel.split(counts, dst, num_machines),
            kernel.split(
                np.concatenate(cands), np.repeat(dst, counts), num_machines
            ),
        ]
    payload = np.zeros((num_machines, num_machines), dtype=np.int64)
    moved = src != dst
    np.add.at(payload, (src[moved], dst[moved]), nbytes[moved])
    return list(zip(*routed)), payload


class BigJoinEngine(EnumerationEngine):
    """Worst-case-optimal vertex-at-a-time distributed join."""

    name = "BigJoin"
    explain_note = (
        "worst-case-optimal join: one distributed extension round per "
        "query vertex in the extension order (extras), intersecting the "
        "matched neighbours' adjacency lists"
    )

    def _explain_extras(self, pattern: Pattern) -> dict:
        return {"extension_order": list(compute_matching_order(pattern))}

    def _execute(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        collect: bool,
        executor: Executor,
    ) -> list[tuple[int, ...]]:
        partition = cluster.partition
        model = cluster.cost_model
        num_machines = cluster.num_machines
        order = compute_matching_order(pattern)
        position = {u: q for q, u in enumerate(order)}
        lower, upper = bound_columns(constraints, order)

        # Seed prefixes at the owners of candidate first vertices.
        start_degree = pattern.degree(order[0])
        prefixes: list[np.ndarray] = []
        for t in range(num_machines):
            local = partition.machine(t)
            machine = cluster.machine(t)
            seeds = local.owned_vertices[local.owned_degrees >= start_degree]
            machine.charge_ops(len(local.owned_vertices), "seed_ops")
            machine.allocate(len(seeds) * 8, "prefix_bytes")
            prefixes.append(seeds[:, None])

        for q, u in enumerate(order[1:], start=1):
            inflight = [(block, None, None) for block in prefixes]
            for t in range(num_machines):
                cluster.machine(t).free(
                    len(prefixes[t]) * model.embedding_bytes(q)
                )
            for hop in sorted(position[w] for w in pattern.adj(u) if position[w] < q):
                routed, payload = _route(
                    inflight, partition.owner, hop, model.embedding_bytes(q)
                )
                cluster.network.shuffle(cluster.machines, payload)
                # Intersect locally at the owners of this hop's vertex —
                # one independent task per machine.
                for t, narrowed in executor.run_tasks(
                    cluster,
                    _intersect_task,
                    [(t, routed[t], hop, q) for t in range(num_machines)],
                ):
                    inflight[t] = narrowed
            # Materialise extensions, one independent task per machine.
            for t, extended in executor.run_tasks(
                cluster,
                _extend_task,
                [
                    (t, inflight[t], q, pattern.degree(u), lower[q], upper[q])
                    for t in range(num_machines)
                ],
            ):
                prefixes[t] = extended
            cluster.barrier()

        found = np.concatenate(prefixes)
        self._count = len(found)
        if not collect:
            return []
        # Columns are in extension order; the result is in pattern order.
        return list(map(tuple, found[:, np.argsort(order)].tolist()))
