"""Region groups and memory estimation (paper Sec. 6, Algorithm 3).

The candidate vertices of ``dp0.piv`` on a machine are split into disjoint
*region groups*, each small enough that its intermediate results fit in the
available memory.  Groups grow greedily by neighbourhood proximity
(Eq. 5: the fraction of a vertex's neighbours adjacent to the group), so
candidates in a group share foreign fetches and edge verifications.

**Cost.**  One addition costs O(deg(best) x deg), never O(|remaining|): the
adjacency of the candidates, and the candidates adjacent to each of their
neighbours, are gathered once per call (Eq. 5 is only read for candidates);
its numerator is a count per vertex, raised when a neighbour first enters
N(group); the frontier update reads adj(best) alone.  numpy runs once per
call (the gathers) and per group (the reset, and a seed's hub neighbours),
not per addition (bar a draw's or a sample's rng call): an addition and its
probe are int and list work, except a hub's addition -- more than
``BULK_PAIRS`` (w, x) pairs, one ``np.add.at``.

**Set order is part of the output.**  The group lists depend on CPython
3.11's set layout in two places, and ``tests/test_region_goldens.py`` pins
them: every uniform draw (a group's seed, the ``random`` strategy, an
empty frontier) indexes ``remaining`` in iteration order, and a frontier
above ``MAX_PROBE`` is sampled from ``list(frontier & remaining)``.  So
both stay real sets, fed what the per-candidate loop fed them, in its
order -- down to the argument's type: ``frontier.update`` takes a *set* of
the sorted hits, as updating from the list adds the same members but
resizes the table at other points, which reorders it and moves the
samples (57 goldens at ``MAX_PROBE`` 5 catch it).  Two invariants make
that cheap: ``remaining`` only shrinks and a discard never reorders a set,
so a candidate's place in it is fixed at construction; and ``frontier`` is
always a subset of ``remaining``, so testing or sizing it needs no
intersection.
"""

from __future__ import annotations

import numpy as np

import repro.enumeration.block as kernel
from repro.core.embedding_trie import NODE_BYTES
from repro.graph.graph import Graph, gather_ranges

#: Proximity is evaluated for at most this many frontier candidates per
#: step (a uniform sample beyond it), bounding the cost of one addition.
MAX_PROBE = 96

#: Beyond this many (w, x) pairs an addition is one ``np.add.at``: numpy's
#: overhead per call then costs less than ints.
BULK_PAIRS = 32


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
        return list(remaining)[self._rng.integers(len(remaining))]

    def groups(self, candidates: list[int], costs: np.ndarray | None = None) -> list[list[int]]:
        """Partition ``candidates`` into region groups.

        Each group's estimated memory stays below the budget (single-vertex
        groups are allowed to exceed it — they cannot be split further).
        ``costs``, parallel to ``candidates``: their estimated bytes (default: the estimator's).
        """
        graph, degree = self._graph, self._graph.degrees()
        ids = np.asarray(candidates, dtype=np.int64)
        if costs is None:
            costs = self._estimator.estimate_many(degree[ids])
        cost_of = dict(zip(ids.tolist(), costs.tolist())).__getitem__
        remaining = set(ids.tolist())
        order = np.fromiter(remaining, dtype=np.int64, count=len(remaining))
        rank = dict(zip(order.tolist(), range(len(order)))).__getitem__
        # Gathered once: adj(c) for c of rank i, `nbr[bounds[i]:bounds[i + 1]]`;
        # the candidates next to the distinct neighbour in `slot` j,
        # `far[starts[j]:starts[j + 1]]`; the (w, x) pairs of c, `via`/`two`.
        n, (_, nbr) = graph.num_vertices, kernel.neighbors(graph, order)
        mine, slot = np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
        mine[order], slot[nbr] = True, 1
        near, slot = np.flatnonzero(slot), (np.cumsum(slot) - 1)[nbr]
        row, far = kernel.neighbors(graph, near)
        row, far = row[mine[far]], far[mine[far]]
        starts = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=len(near)))))
        pair, flat = gather_ranges(starts[slot], np.diff(starts)[slot])
        two, via = far[flat], nbr[pair]
        ends = np.concatenate(([0], np.cumsum(degree[order])))
        bounds, pair_bounds = ends.tolist(), np.searchsorted(pair, ends).tolist()
        adj, far, starts, slot = nbr.tolist(), far.tolist(), starts.tolist(), slot.tolist()
        # Per vertex, allocated once per call and cleared per group by the
        # indices that were set (`touched`): `fresh` is 1 outside N(group) (an
        # int: what a pair adds), `shared[x]` is |adj(x) & N(group)|, Eq. 5's
        # numerator; as ints, `out` and `count`.
        fresh, shared = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        out, count, size = memoryview(fresh), memoryview(shared), memoryview(degree)

        def join(v: int) -> None:
            """``v`` moves to the group: each w of adj(v) new to N(group)
            gives every candidate x of adj(w) one more, and what remains of
            adj(v) enters the frontier, in `remaining`'s order."""
            remaining.discard(v)
            frontier.discard(v)
            i = rank(v)
            lo, hi = bounds[i], bounds[i + 1]
            a, b = pair_bounds[i], pair_bounds[i + 1]
            touched.append(two[a:b])
            touched.append(nbr[lo:hi])
            if b - a > BULK_PAIRS:
                np.add.at(shared, two[a:b], fresh[via[a:b]])
                fresh[nbr[lo:hi]] = 0
            else:
                for k in range(lo, hi):
                    w, j = adj[k], slot[k]
                    if out[w]:
                        out[w] = 0
                        for x in far[starts[j]:starts[j + 1]]:
                            count[x] += 1
            hits = [w for w in adj[lo:hi] if w in remaining]
            frontier.update(set(sorted(hits, key=rank)))

        result: list[list[int]] = []
        while remaining:
            seed_vertex = self._draw(remaining)
            group, cost = [seed_vertex], cost_of(seed_vertex)
            frontier, touched = set(), []
            join(seed_vertex)
            # Frontier: remaining candidates within distance 2 of the group,
            # through one of their first 32 neighbours -- which only a vertex
            # of higher degree outside N(group) can miss.
            i = rank(seed_vertex)
            lo, hi = bounds[i], bounds[i + 1]
            close = set(adj[lo:hi]).union(*(far[starts[j]:starts[j + 1]] for j in slot[lo:hi]))
            hits = [x for x in sorted(close) if x in remaining and (size[x] <= 32 or not out[x]
                    or not all(out[w] for w in graph.neighbors(x)[:32].tolist()))]
            frontier = set(sorted(hits, key=rank))
            while remaining and cost < self._budget:
                if self._strategy == "random" or not frontier:
                    best = self._draw(remaining)
                else:
                    probe = frontier
                    if len(frontier) > MAX_PROBE:
                        pool = list(frontier & remaining)
                        pick = self._rng.choice(len(pool), size=MAX_PROBE, replace=False)
                        probe = [pool[k] for k in pick.tolist()]
                    # Sorted, so a tie goes to the smallest id.
                    best = max(sorted(probe), key=lambda x: count[x] / size[x])
                extra = cost_of(best)
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
