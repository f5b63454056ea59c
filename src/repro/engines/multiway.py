"""Single-round multiway join baseline (Afrati & Ullman, ICDE 2013).

An extension beyond the paper's evaluated set, covering the remaining
approach from its Sec. 8 related work: the query pattern is treated as a
conjunctive query joining ``|E_P|`` binary edge relations, evaluated in a
*single* round of map and reduce over a hypercube ("Shares") reducer grid.

Every query vertex ``u`` is given a share ``b_u`` with ``prod(b_u) <= m``;
a reducer is a point of the grid ``[b_0] x ... x [b_{k-1}]``.  A data edge
``(v, w)`` standing in for the query edge ``(a, b)`` is replicated to every
reducer whose ``a``-coordinate is ``h(v) mod b_a`` and ``b``-coordinate is
``h(w) mod b_b`` — one copy per combination of the *other* coordinates.
This is the duplication the paper points at: "most edges have to be
duplicated over several machines in the map phase, hence there is a
scalability problem when the query pattern is complex".

Each potential embedding is assembled at exactly one reducer (the point
whose coordinates are the hashes of all its data vertices), so the global
result needs no deduplication.

**Relation layout.**  With ``c_u(v) = _mix(v) mod b_u`` the coordinate of
data vertex ``v`` on query vertex ``u``'s axis, the relation delivered to
point ``p`` for the query edge ``(a, b)`` is the directed data edges
``(x, y)`` with ``c_a(x) = p_a`` and ``c_b(y) = p_b``.  The map phase counts
those tuples as ``(edges, copies)`` arrays of point ids; a reducer reads
every relation into ``u`` as one CSR — the data graph's, restricted to
neighbours with ``c_u = p_u`` — so a vertex's row *is* its partner set.
Partial matches are ``(n, q)`` int64 blocks in matching order, a point's
taken level by level (a reducer holds its input and output whole, as the
loop did); a tuple is built only by the final gather, only under
``collect``.

**Ordering guarantee.**  Reducer points ascending; within a point
depth-first, candidates ascending (:mod:`repro.enumeration.block`: pairs
row by row, stable filters).  This order dates from PR 22: the loop it
replaced iterated a ``set[int]`` of candidates, so its list was in CPython's
set iteration order, and pinning that was worth nothing — every counter
below is order-free.  The goldens pin the sorted list.

**Accounting.**  ``map_ops``: one per adjacency entry scanned at the
owner (the ``w < v`` half-edges it skips included), one per tuple sent.
``relation_bytes``: ``tuple_bytes`` per tuple at the receiving machine,
allocated in machine order before the shuffle.  ``reduce_ops``: per point,
one per start candidate, then per partial match entering a position the
size of its *smallest* partner set — the pairs generated, what the loop
scanned — whether or not a candidate survives.  ``result_bytes`` is
claimed ``ALLOC_CHUNK`` embeddings at a time per point
(:func:`repro.engines.join_common.claim`), so a capped run dies at the
allocation the loop died at, before that point's ops are charged.  Only
points that received a tuple run.
"""

from __future__ import annotations

import itertools

import numpy as np

import repro.enumeration.block as kernel
from repro.cluster.cluster import Cluster
from repro.engines.base import EnumerationEngine
from repro.engines.join_common import claim
from repro.enumeration.backtracking import compute_matching_order
from repro.graph.graph import gather_ranges
from repro.query.pattern import Pattern
from repro.query.symmetry import bound_columns
from repro.runtime.executor import Executor

#: Mixing constant (Knuth multiplicative hashing) so vertex ids spread
#: evenly over the tiny share moduli.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = (1 << 32) - 1


def _mix(v):
    """Deterministic 32-bit hash of a vertex id, or of an int64 array of
    them (a wrapped product keeps its low 32 bits)."""
    return (v * _HASH_MULTIPLIER) & _HASH_MASK


def compute_shares(pattern: Pattern, num_reducers: int) -> tuple[int, ...]:
    """Optimal share vector for the hypercube reducer grid.

    Following Afrati & Ullman, the reducer count is a resource to use, not
    to economise: the grid is chosen to occupy as many of the available
    reducers as integer shares allow (fewer reducers would always shrink
    replication — by forfeiting parallelism).  Among the maximal grids, the
    vector minimising the number of edge copies
    ``sum over query edges (a,b) of prod of b_u for u not in {a, b}``
    wins.  Patterns are tiny, so exhaustive search over integer share
    vectors is exact and cheap.
    """
    if num_reducers < 1:
        raise ValueError("need at least one reducer")
    k = pattern.num_vertices
    edges = list(pattern.edges())
    best: tuple[int, ...] | None = None
    best_key: tuple[float, int] | None = None

    def replication(shares: tuple[int, ...]) -> int:
        total = int(np.prod(shares))
        return sum(total // (shares[a] * shares[b]) for a, b in edges)

    def descend(index: int, shares: list[int], product: int) -> None:
        nonlocal best, best_key
        if index == k:
            vec = tuple(shares)
            key = (-product, replication(vec))
            if best_key is None or key < best_key:
                best_key = key
                best = vec
            return
        limit = num_reducers // product
        for b in range(1, limit + 1):
            shares.append(b)
            descend(index + 1, shares, product * b)
            shares.pop()

    descend(0, [], 1)
    assert best is not None
    return best


class MultiwayJoinEngine(EnumerationEngine):
    """Afrati-Ullman single-round hypercube multiway join."""

    name = "Multiway"

    def __init__(self, shares: tuple[int, ...] | None = None):
        if shares is not None and min(shares) < 1:
            raise ValueError("share vector entries must be positive")
        self._fixed_shares = shares
        self.last_shares: tuple[int, ...] | None = None
        self.last_replicated_tuples: int = 0

    # ------------------------------------------------------------------
    def _execute(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        collect: bool,
        executor: Executor,
    ) -> list[tuple[int, ...]]:
        shares = self._fixed_shares or compute_shares(
            pattern, cluster.num_machines
        )
        if len(shares) != pattern.num_vertices:
            raise ValueError("share vector length must match pattern size")
        self.last_shares = shares
        # Per query vertex, every data vertex's coordinate on its axis.
        hashed = _mix(np.arange(cluster.graph.num_vertices))
        coords = [hashed % b for b in shares]
        delivered = self._map_phase(cluster, pattern, shares, coords)
        return self._reduce_phase(
            cluster, pattern, constraints, shares, coords, delivered, collect
        )

    # ------------------------------------------------------------------
    # Map phase
    # ------------------------------------------------------------------
    def _map_phase(
        self,
        cluster: Cluster,
        pattern: Pattern,
        shares: tuple[int, ...],
        coords: list[np.ndarray],
    ) -> np.ndarray:
        """Replicate data edges to reducer points; returns the tuples
        delivered per point.

        Reducer point ``p`` (row-major index over the share grid) runs on
        machine ``p % num_machines``.  Each undirected data edge is mapped
        exactly once, from the machine owning its smaller endpoint (an
        edge can reside on two machines), in both orientations.
        """
        graph = cluster.graph
        num_machines = cluster.num_machines
        k = pattern.num_vertices
        strides = [int(np.prod(shares[u + 1:])) for u in range(k)]
        # A tuple on the wire: the pair plus its relation tag.
        tuple_bytes = 2 * cluster.cost_model.bytes_per_vertex_id + 2
        v, w = kernel.neighbors(graph, np.arange(graph.num_vertices))
        owner = cluster.partition.owner
        ops = np.bincount(owner[v], minlength=num_machines)
        once = w >= v
        v, w = v[once], w[once]
        source = owner[v][:, None] * num_machines
        delivered = np.zeros(int(np.prod(shares)), dtype=np.int64)
        sent = np.zeros(num_machines * num_machines, dtype=np.int64)
        for a, b in pattern.edges():
            free = [u for u in range(k) if u not in (a, b)]
            # One copy per combination of the other coordinates.
            copies = np.array([
                sum(c * strides[u] for c, u in zip(rest, free))
                for rest in itertools.product(*(range(shares[u]) for u in free))
            ])
            for x, y in ((v, w), (w, v)):
                points = copies + (
                    coords[a][x] * strides[a] + coords[b][y] * strides[b]
                )[:, None]
                delivered += np.bincount(points.ravel(), minlength=len(delivered))
                route = source + points % num_machines
                sent += np.bincount(route.ravel(), minlength=len(sent))
        sent = sent.reshape(num_machines, num_machines)
        for t in range(num_machines):
            cluster.machine(t).charge_ops(int(ops[t] + sent[t].sum()), "map_ops")
        # Reducer inputs are materialised at their host machines; the
        # blow-up with complex patterns is exactly what OOMs here.
        for dst in range(num_machines):
            cluster.machine(dst).allocate(
                int(sent[:, dst].sum()) * tuple_bytes, "relation_bytes"
            )
        cluster.network.shuffle(cluster.machines, sent * tuple_bytes)
        self.last_replicated_tuples = int(sent.sum())
        return delivered

    # ------------------------------------------------------------------
    # Reduce phase
    # ------------------------------------------------------------------
    def _reduce_phase(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        shares: tuple[int, ...],
        coords: list[np.ndarray],
        delivered: np.ndarray,
        collect: bool,
    ) -> list[tuple[int, ...]]:
        """Enumerate embeddings inside each reducer's delivered relations."""
        graph = cluster.graph
        order = compute_matching_order(pattern)
        position = {u: q for q, u in enumerate(order)}
        n = pattern.num_vertices
        lower, upper = bound_columns(constraints, order)

        # Per query vertex u and coordinate c of its axis, the CSR of the
        # data graph restricted to neighbours at c — ``(starts, counts,
        # partners)``: the relation a point with ``p_u = c`` holds for every
        # query edge into u, a vertex's row its partner set.
        source = np.repeat(np.arange(graph.num_vertices), graph.degrees())

        def relation(u: int, c: int) -> tuple:
            here = coords[u][graph.indices] == c
            counts = np.bincount(source[here], minlength=graph.num_vertices)
            return np.cumsum(counts) - counts, counts, graph.indices[here]

        relations = [
            [relation(u, c) for c in range(b)] for u, b in enumerate(shares)
        ]
        start = order[0]
        start_partner = min(pattern.adj(start))
        emb_bytes = cluster.cost_model.embedding_bytes(n)
        found = [np.empty((0, n), dtype=np.int64)]
        count = 0
        for point in np.flatnonzero(delivered):
            at = np.unravel_index(point, shares)
            machine = cluster.machine(point % cluster.num_machines)
            block = np.flatnonzero(
                (coords[start] == at[start])
                & (relations[start_partner][at[start_partner]][1] > 0)
            )[:, None]
            ops = len(block)
            for q, u in enumerate(order[1:], start=1):
                starts, counts, partners = relations[u][at[u]]
                anchors = block[:, [position[w] for w in pattern.adj(u) if position[w] < q]]
                anchors = kernel.smallest_first(anchors, counts[anchors])
                row, flat = gather_ranges(
                    starts[anchors[:, 0]], counts[anchors[:, 0]]
                )
                ops += len(flat)
                row, cand, _ = kernel.member(
                    graph, anchors[:, 1:], row, partners[flat]
                )
                row, cand = kernel.bounded(
                    block, row, cand, lower[q], upper[q]
                )
                keep = kernel.injective(block, row, cand)
                block = kernel.append(block, row[keep], cand[keep])
            claimed = claim(machine, 0, len(block), emb_bytes, "result_bytes")
            machine.allocate((len(block) - claimed) * emb_bytes, "result_bytes")
            machine.charge_ops(ops, "reduce_ops")
            count += len(block)
            if collect:
                found.append(block)
        cluster.barrier()
        self._count = count
        # Columns are in matching order; the result is in pattern order.
        found = np.concatenate(found)[:, np.argsort(order)]
        return list(map(tuple, found.tolist()))
