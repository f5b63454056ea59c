"""PSgL baseline (Shao et al., SIGMOD 2014) — Pregel-style exploration.

The query vertices are matched one per superstep.  Every partial match is
*shuffled* to the machine owning the candidate data vertex, where the
backward edges are verified against that vertex's local adjacency; surviving
partials are routed onward to the machine owning the next expansion anchor.
Faithful to the paper's characterisation (Sec. 8): no joins, but partial
matches are shuffled at every step, results are stored uncompressed, and
there is no memory control.

Each superstep's expansion and verification are independent per-machine
tasks submitted through the execution backend; the shuffles between them
stay on the coordinating thread.

**Layout.**  A machine's partial matches are an ``(n, q)`` int64 block,
columns in expansion order; a candidate message is a row of the
``(m, q + 1)`` block whose last column is the proposed vertex.  A task
takes one block and returns one slice per destination machine
(:func:`repro.enumeration.block.split`) plus the bytes bound for each —
what crosses a process or socket boundary.  Tuples are built only by the
final gather, only under ``collect``.

**Ordering guarantee.**  A receiver's rows arrive in source-machine, then
source row order; expansion pairs each row with its anchor's neighbours
ascending, and every later stage is a stable filter — the list the
message-at-a-time loop produced.

**Accounting.**  ``expand_ops``: one per neighbour scanned, injective or
not.  ``verify_ops``: one per message, plus one per backward-edge check
*up to a message's first miss* (checks in column order; the degree filter
and the symmetry bounds are free and come first).  Expansion meters every
message's bytes, those staying on their machine included; verification
meters only the rows that move (the network charges neither diagonal).
Receivers allocate what arrives, in machine order, before the shuffle: a
capped run dies at the allocation the loop died at.
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


def _seed_task(cluster: Cluster, args: tuple) -> np.ndarray:
    """Superstep-0 seeding at one owner machine (independent task).

    Each seed routes to the owner of its own vertex — which is exactly
    where it is generated — so seeding is per-machine independent and
    runs on the active execution backend like the later supersteps.
    """
    t, start_degree = args
    local = cluster.partition.machine(t)
    machine = cluster.machine(t)
    seeds = local.owned_vertices[local.owned_degrees >= start_degree]
    machine.charge_ops(len(local.owned_vertices), "seed_ops")
    machine.allocate(len(seeds) * 8, "partials_bytes")
    return seeds[:, None]


def _routed(cluster: Cluster, block: np.ndarray, dst: np.ndarray) -> tuple:
    """``block`` as one slice per destination machine, and the bytes of
    the rows bound for each."""
    row_bytes = cluster.cost_model.embedding_bytes(block.shape[1])
    nbytes = np.bincount(dst, minlength=cluster.num_machines) * row_bytes
    return kernel.split(block, dst, cluster.num_machines), nbytes


def _expand_task(cluster: Cluster, args: tuple) -> tuple:
    """Superstep expansion at one anchor owner (independent task).

    No pruning at the source beyond injectivity: PSgL ships the raw
    candidate expansion and verifies at the owner of the candidate vertex
    (this lack of compression or early filtering is exactly what the paper
    blames for PSgL's traffic, Exp-2).
    """
    t, partials, anchor = args
    machine = cluster.machine(t)
    row, cand = kernel.neighbors(cluster.graph, partials[:, anchor])
    keep = kernel.injective(partials, row, cand)
    candidates = kernel.append(partials, row[keep], cand[keep])
    machine.charge_ops(len(cand), "expand_ops")
    machine.free(cluster.cost_model.embedding_bytes(partials.size))
    return _routed(cluster, candidates, cluster.partition.owner[cand[keep]])


def _verify_task(cluster: Cluster, args: tuple) -> tuple:
    """Superstep verification at one candidate owner (independent task).

    The last column of ``candidates`` is the proposed vertex, adjacent to
    its row's anchor by construction; ``check_backs`` are the other
    backward columns, tested in order, a row leaving at its first miss.
    """
    (
        t, candidates, min_degree, check_backs,
        lower_positions, upper_positions, anchor_next,
    ) = args
    graph = cluster.graph
    machine = cluster.machine(t)
    cand = candidates[:, -1]
    alive = np.flatnonzero(graph.indptr[cand + 1] - graph.indptr[cand] >= min_degree)
    alive, _ = kernel.bounded(
        candidates, alive, cand[alive], lower_positions, upper_positions
    )
    ops = len(candidates)
    for back in check_backs:
        ops += len(alive)
        alive = alive[graph.has_edges(cand[alive], candidates[alive, back])]
    extended = candidates[alive]
    machine.charge_ops(ops, "verify_ops")
    machine.free(cluster.cost_model.embedding_bytes(candidates.size))
    if anchor_next is None:  # complete: results stay where they were verified
        dst = np.full(len(extended), t)
    else:
        dst = cluster.partition.owner[extended[:, anchor_next]]
    parts, nbytes = _routed(cluster, extended, dst)
    nbytes[t] = 0
    return parts, nbytes


def _exchange(
    cluster: Cluster, executor: Executor, task, tasks: list[tuple]
) -> list[np.ndarray]:
    """Run one task per machine and deliver what they route: each receiver's
    rows in source-machine, then source row order.  Receivers hold the
    incoming volume before it moves (PSgL's memory Achilles heel)."""
    parts, nbytes = zip(*executor.run_tasks(cluster, task, tasks))
    arrived = [np.concatenate(slices) for slices in zip(*parts)]
    for t, block in enumerate(arrived):
        cluster.machine(t).allocate(
            cluster.cost_model.embedding_bytes(block.size), "partials_bytes"
        )
    cluster.network.shuffle(cluster.machines, np.stack(nbytes))
    return arrived


class PSgLEngine(EnumerationEngine):
    """Parallel subgraph listing via per-superstep partial-match shuffling."""

    name = "PSgL"
    explain_note = (
        "Pregel-style: one superstep per query vertex in the expansion "
        "order (extras), shuffling partial matches to each candidate's "
        "owner machine"
    )

    def _explain_extras(self, pattern: Pattern) -> dict:
        return {"expansion_order": list(compute_matching_order(pattern))}

    def _execute(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        collect: bool,
        executor: Executor,
    ) -> list[tuple[int, ...]]:
        num_machines = cluster.num_machines
        order = compute_matching_order(pattern)
        position = {u: q for q, u in enumerate(order)}
        lower, upper = bound_columns(constraints, order)
        n = pattern.num_vertices

        # Expansion anchor per position: the most recently matched pattern
        # neighbour (so the second routing hop is usually free).
        anchors = [0] * n
        backward: list[list[int]] = [[] for _ in range(n)]
        for q in range(1, n):
            u = order[q]
            backs = [position[w] for w in pattern.adj(u) if position[w] < q]
            backward[q] = sorted(backs)
            anchors[q] = max(backs)

        # Superstep 0: seed partials at the owners of candidate vertices —
        # one independent routing task per owner machine (the expansion of
        # position 1 happens at the anchor owner, which for seeds is the
        # seed vertex itself, so no bytes hit the wire here).
        partials = executor.run_tasks(
            cluster,
            _seed_task,
            [(t, pattern.degree(order[0])) for t in range(num_machines)],
        )

        for q in range(1, n):
            u = order[q]
            # Expansion at the anchor owners, then verification at the
            # candidate owners and routing onward.
            candidates = _exchange(
                cluster, executor, _expand_task,
                [(t, partials[t], anchors[q]) for t in range(num_machines)],
            )
            partials = _exchange(
                cluster, executor, _verify_task,
                [
                    (
                        t, candidates[t], pattern.degree(u),
                        [b for b in backward[q] if b != anchors[q]],
                        lower[q], upper[q],
                        anchors[q + 1] if q + 1 < n else None,
                    )
                    for t in range(num_machines)
                ],
            )

        found = np.concatenate(partials)
        self._count = len(found)
        if not collect:
            return []
        # Columns are in expansion order; the result is in pattern order.
        return list(map(tuple, found[:, np.argsort(order)].tolist()))
