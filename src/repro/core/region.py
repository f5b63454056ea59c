"""Region groups and memory estimation (paper Sec. 6, Algorithm 3).

The candidate vertices of ``dp0.piv`` on a machine are split into disjoint
*region groups*, each small enough that its intermediate results fit in the
available memory.  Groups grow greedily by neighbourhood proximity
(Eq. 5: the fraction of a vertex's neighbours adjacent to the group), so
candidates in a group share foreign fetches and edge verifications.

**Cost.**  One addition costs O(deg(best) x deg), never O(|remaining|): the
adjacency of the candidates and of their neighbours is gathered once per
call; Eq. 5's numerator is a count per vertex, raised when a neighbour
first enters N(group); the frontier update reads adj(best) alone.

**Set order is part of the output.**  The group lists depend on CPython
3.11's set layout in two places, and ``tests/test_region_goldens.py`` pins
them: every uniform draw (a group's seed, the ``random`` strategy, an
empty frontier) indexes ``remaining`` in iteration order, and a frontier
above ``MAX_PROBE`` is sampled from ``list(frontier & remaining)``.  So
both stay real sets, fed what the per-candidate loop fed them, in its
order.  Two invariants make that cheap: ``remaining`` only shrinks and a
discard never reorders a set, so a candidate's place in it is fixed at
construction; and ``frontier`` is always a subset of ``remaining``, so
testing or sizing it needs no intersection.
"""

from __future__ import annotations

import numpy as np

import repro.enumeration.block as kernel
from repro.core.embedding_trie import NODE_BYTES
from repro.graph.graph import Graph

#: Proximity is evaluated for at most this many frontier candidates per
#: step (a uniform sample beyond it), bounding the cost of one addition.
MAX_PROBE = 96


class MemoryEstimator:
    """Estimates the embedding-trie bytes a start vertex will generate.

    Calibrated from SM-E (Sec. 6): while enumerating the local embeddings
    the average trie-node count per processed start vertex is recorded; the
    distributed phase reuses that average.  Before calibration (or when SM-E
    processed nothing) a degree-based fallback is used.
    """

    def __init__(self, num_unit_leaves: int):
        self._num_unit_leaves = max(1, num_unit_leaves)
        self._calibrated: float | None = None

    def calibrate(self, trie_nodes: int, start_vertices: int) -> None:
        """Feed SM-E statistics (total trie nodes, candidates processed)."""
        if start_vertices > 0:
            self._calibrated = trie_nodes / start_vertices

    def estimate_bytes(self, degree: int) -> int:
        """Estimated trie bytes for results originating from one vertex."""
        if self._calibrated is not None:
            nodes = self._calibrated
        else:
            # Worst case for round 0: one node per leaf combination,
            # capped to keep the fallback sane on hubs.
            nodes = min(float(degree) ** self._num_unit_leaves, 1e6)
        return int(max(1.0, nodes) * NODE_BYTES)

    def estimate_many(self, degrees: np.ndarray) -> np.ndarray:
        """:meth:`estimate_bytes` per entry, exactly: one scalar call per distinct degree."""
        distinct, inverse = np.unique(degrees, return_inverse=True)
        table = [self.estimate_bytes(int(d)) for d in distinct]
        return np.array(table, dtype=np.int64)[inverse]


class RegionGrouper:
    """Algorithm 3: greedy proximity grouping under a memory budget."""

    def __init__(
        self,
        graph: Graph,
        estimator: MemoryEstimator,
        budget_bytes: float,
        seed: int = 0,
        strategy: str = "proximity",
    ):
        if strategy not in ("proximity", "random"):
            raise ValueError(f"unknown grouping strategy: {strategy!r}")
        if not isinstance(graph, Graph):
            raise TypeError(f"graph must be a Graph, got {graph!r}")
        self._graph = graph
        self._estimator = estimator
        self._budget = budget_bytes
        self._rng = np.random.default_rng(seed)
        # "random" reproduces the naive grouping the paper argues against
        # (Sec. 6, Fig. 6): same budget, no locality — used by ablations.
        self._strategy = strategy

    def _draw(self, remaining: set[int]) -> int:
        """A uniform draw from ``remaining``, indexed in set order
        (``rng.choice(array)`` is this draw; ``integers`` is the cheaper call)."""
        pool = np.fromiter(remaining, dtype=np.int64, count=len(remaining))
        return int(pool[self._rng.integers(len(pool))])

    def groups(self, candidates: list[int]) -> list[list[int]]:
        """Partition ``candidates`` into region groups.

        Each group's estimated memory stays below the budget (single-vertex
        groups are allowed to exceed it — they cannot be split further).
        """
        graph, degree = self._graph, self._graph.degrees()
        remaining = set(np.asarray(candidates, dtype=np.int64).tolist())
        order = np.fromiter(remaining, dtype=np.int64, count=len(remaining))
        rank = dict(zip(order.tolist(), range(len(order)))).__getitem__
        cost_of = self._estimator.estimate_many(degree[order]).tolist()
        # Gathered once: adj(c) per candidate c, and per neighbour w of c the
        # (w, x) pairs with x in adj(w) -- what the addition of c walks.
        _, nbr = kernel.neighbors(graph, order)
        pair, two = kernel.neighbors(graph, nbr)
        via = nbr[pair]
        ends = np.concatenate(([0], np.cumsum(degree[order])))
        pair_ends = np.concatenate(([0], np.cumsum(degree[nbr])))[ends].tolist()
        ends, adj_list = ends.tolist(), nbr.tolist()
        # Vertex-id arrays, allocated once per call and cleared per group by
        # the indices that were set (nothing is O(|V|) or O(|E|) per group):
        # `fresh` is 1 outside N(group) -- an int, it is what a pair adds --
        # and `shared[x]` is |adj(x) & N(group)|, Eq. 5's numerator.
        fresh = np.ones(graph.num_vertices, dtype=np.int64)
        shared = np.zeros(graph.num_vertices, dtype=np.int64)

        def join(v: int) -> None:
            """``v`` moves to the group: each w of adj(v) new to N(group)
            gives every x of adj(w) one more, and what remains of adj(v)
            enters the frontier, in `remaining`'s order."""
            remaining.discard(v)
            frontier.discard(v)
            i = rank(v)
            lo, hi = pair_ends[i], pair_ends[i + 1]
            np.add.at(shared, two[lo:hi], fresh[via[lo:hi]])
            touched.append(two[lo:hi])
            lo, hi = ends[i], ends[i + 1]
            fresh[nbr[lo:hi]] = 0
            touched.append(nbr[lo:hi])
            hits = [w for w in adj_list[lo:hi] if w in remaining]
            frontier.update(set(sorted(hits, key=rank)))

        result: list[list[int]] = []
        while remaining:
            seed_vertex = self._draw(remaining)
            group, cost = [seed_vertex], cost_of[rank(seed_vertex)]
            frontier, touched = set(), []
            join(seed_vertex)
            # Frontier: remaining candidates within distance 2 of the group,
            # through one of their first 32 neighbours -- which only a vertex
            # of higher degree outside N(group) can miss.
            close = np.unique(np.concatenate(touched))
            keep = np.ones(len(close), dtype=bool)
            slow = np.flatnonzero((degree[close] > 32) & (fresh[close] == 1))
            if len(slow):
                row, first = kernel.neighbors(graph, close[slow], np.full(len(slow), 32))
                keep[slow] = np.bincount(row, fresh[first] == 0, len(slow)) > 0
            hits = [w for w in close[keep].tolist() if w in remaining]
            frontier = set(sorted(hits, key=rank))
            while remaining and cost < self._budget:
                if self._strategy == "random" or not frontier:
                    best = self._draw(remaining)
                else:
                    if len(frontier) > MAX_PROBE:
                        probe = np.array(list(frontier & remaining))
                        probe = probe[self._rng.choice(len(probe), size=MAX_PROBE, replace=False)]
                    else:
                        probe = np.fromiter(frontier, dtype=np.int64, count=len(frontier))
                    probe.sort()  # argmax then takes the smallest id of a tie
                    best = int(probe[(shared[probe] / degree[probe]).argmax()])
                extra = cost_of[rank(best)]
                if cost + extra > self._budget:
                    break
                group.append(best)
                cost += extra
                join(best)
            touched = np.concatenate(touched)
            fresh[touched] = 1
            shared[touched] = 0
            result.append(sorted(group))
        return result
