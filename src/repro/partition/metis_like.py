"""Multilevel k-way partitioner (METIS substitute).

The paper partitions each data graph with METIS' multilevel k-way algorithm.
METIS is not available offline, so this module implements the same scheme
from scratch: **coarsening** by repeated heavy-edge matching until the graph
is small; **initial partitioning** by greedy BFS region growing over the
coarsest graph, balanced by (coarse) vertex weight; **uncoarsening** level by
level, where boundary vertices move greedily to the neighbouring part with
maximal gain subject to a balance constraint (a lightweight KL/FM pass).
The goal is the contract RADS depends on: balanced parts with strong
locality, so that most vertices sit far from partition borders.

Every level is a weighted CSR graph (:class:`_Level`).  Matching, region
growing and refinement are sequential loops over ``.tolist()`` copies of its
arrays; contraction is whole-array numpy.

**Neighbour order is part of the output**: matching takes the first heaviest
free neighbour and refinement the first best part, in row order.  A fine
edge ``{v, w}`` is seen once, from ``min(v, w)``, in CSR order, and a coarse
row lists its neighbours by the first such edge that joined the two coarse
vertices (the insertion order of the list-of-dicts levels this replaced).
:func:`_contract` keeps it with a stable ``np.unique`` (first occurrence)
and a ``lexsort`` by (row, first edge).  With the same rng calls
(``permutation`` per level, ``choice`` when seeds run short) and the same
float ``load`` / ``limit`` arithmetic, the owner array is that code's
bit for bit (``tests/data/partition_goldens.json``).

**Refinement visits only the boundary, and that is exact**: a vertex whose
neighbours all sit in its own part has no move with positive gain, so a
pass that skips it equals the full scan.  A pass pops, in increasing id
order from a min-heap, the vertices with a neighbour in another part; a
vertex that moves pushes its later neighbours, the only ones still ahead in
the pass that may just have become boundary.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import NamedTuple

import numpy as np

from repro.graph.graph import Graph
from repro.partition.partitioner import Partitioner

#: Coarsen until at most this many vertices (or 8 per machine) remain...
COARSEN_UNTIL = 200
#: ...or this many levels have been built.
MAX_LEVELS = 12
#: Boundary-refinement passes per level (fewer once a pass moves nothing).
REFINEMENT_PASSES = 4
#: A part may carry at most this times its even share of vertex weight.
MAX_IMBALANCE = 1.1


class _Level(NamedTuple):
    """One coarsening level as a weighted CSR graph (int64 arrays)."""

    indptr: np.ndarray
    indices: np.ndarray
    edge_weight: np.ndarray
    vertex_weight: np.ndarray

    def sources(self) -> np.ndarray:
        """The row of every CSR entry."""
        return np.repeat(np.arange(len(self.vertex_weight)), np.diff(self.indptr))


def _heavy_edge_matching(
    level: _Level, rng: np.random.Generator
) -> tuple[_Level, np.ndarray]:
    """One coarsening level; returns (coarser level, fine->coarse map)."""
    n = len(level.vertex_weight)
    ptr, nbr = level.indptr.tolist(), level.indices.tolist()
    weight = level.edge_weight.tolist()
    match = [-1] * n
    for v in rng.permutation(n).tolist():
        if match[v] != -1:
            continue
        best, best_weight = v, -1
        for j in range(ptr[v], ptr[v + 1]):
            w = nbr[j]
            if match[w] == -1 and weight[j] > best_weight:
                best, best_weight = w, weight[j]
        match[v] = best
        match[best] = v
    # Coarse ids follow the smaller fine id of each pair.
    _, coarse_id = np.unique(np.minimum(np.arange(n), match), return_inverse=True)
    return _contract(level, coarse_id), coarse_id


def _contract(level: _Level, coarse_id: np.ndarray) -> _Level:
    """The coarse level of ``coarse_id``, rows in first-edge order."""
    nc = int(coarse_id.max()) + 1
    src = level.sources()
    a, b = coarse_id[src], coarse_id[level.indices]
    # Each fine edge once, from its smaller end, in CSR order.
    keep = (src < level.indices) & (a != b)
    a, b = a[keep], b[keep]
    keys = np.column_stack([a * nc + b, b * nc + a]).ravel()
    keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    weight = np.bincount(inverse, weights=np.repeat(level.edge_weight[keep], 2))
    row, col = np.divmod(keys, nc)
    order = np.lexsort((first, row))
    indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=nc), out=indptr[1:])
    vertex_weight = np.bincount(coarse_id, weights=level.vertex_weight, minlength=nc)
    return _Level(
        indptr, col[order], weight[order].astype(np.int64), vertex_weight.astype(np.int64)
    )


def _initial_partition(
    level: _Level, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy BFS region growing, balanced by vertex weight."""
    n = len(level.vertex_weight)
    ptr, nbr = level.indptr.tolist(), level.indices.tolist()
    rows = [nbr[ptr[v]:ptr[v + 1]] for v in range(n)]
    vw = level.vertex_weight.tolist()
    target = sum(vw) / k
    part = [-1] * n
    # Seeds: by degree, descending, none adjacent to an earlier seed.
    seeds: list[int] = []
    blocked: set[int] = set()
    for v in np.argsort(-np.diff(level.indptr), kind="stable").tolist():
        if len(seeds) >= k:
            break
        if v not in blocked:
            seeds.append(v)
            blocked.update(rows[v])
    while len(seeds) < k:
        taken = set(seeds)
        candidates = [v for v in range(n) if v not in taken]
        if not candidates:
            break
        seeds.append(int(rng.choice(candidates)))
    load = [0.0] * k
    # Fewer seeds than parts (k exceeds the coarse vertex count): the
    # surplus parts stay empty.
    queues = [deque([s]) for s in seeds] + [deque() for _ in range(k - len(seeds))]
    for p, s in enumerate(seeds):
        part[s] = p
        load[p] += vw[s]
    active = True
    while active:
        active = False
        # Least-loaded part grows first to keep balance.
        for p in np.argsort(load).tolist():
            queue = queues[p]
            grew = False
            while queue and not grew:
                v = queue.popleft()
                for w in rows[v]:
                    if part[w] == -1:
                        part[w] = p
                        load[p] += vw[w]
                        queue.append(w)
                        grew = True
                        if load[p] > 1.15 * target:
                            break
                if grew:
                    queue.appendleft(v)
            active = active or grew
    # Unreached (disconnected) vertices go to the lightest part.
    for v in range(n):
        if part[v] == -1:
            p = load.index(min(load))
            part[v] = p
            load[p] += vw[v]
    return np.array(part, dtype=np.int64)


def _refine(level: _Level, part: np.ndarray, k: int) -> np.ndarray:
    """Greedy boundary refinement with a balance constraint."""
    src = level.sources()
    ptr, nbr = level.indptr.tolist(), level.indices.tolist()
    ew, vw = level.edge_weight.tolist(), level.vertex_weight.tolist()
    load = np.bincount(part, weights=level.vertex_weight, minlength=k).tolist()
    limit = MAX_IMBALANCE * int(level.vertex_weight.sum()) / k
    for _ in range(REFINEMENT_PASSES):
        # The boundary, sorted, so already a heap.
        heap = np.unique(src[part[src] != part[level.indices]]).tolist()
        owner = part.tolist()
        moved, last = 0, -1
        while heap:
            v = heapq.heappop(heap)
            if v == last:
                continue
            last, here = v, owner[v]
            weight_to: dict[int, int] = {}
            for j in range(ptr[v], ptr[v + 1]):
                pw = owner[nbr[j]]
                weight_to[pw] = weight_to[pw] + ew[j] if pw in weight_to else ew[j]
            internal = weight_to.get(here, 0)
            best_part, best_gain = here, 0
            for p, external in weight_to.items():
                gain = external - internal
                if p != here and gain > best_gain and load[p] + vw[v] <= limit:
                    best_part, best_gain = p, gain
            if best_part != here:
                load[here] -= vw[v]
                load[best_part] += vw[v]
                owner[v] = best_part
                moved += 1
                for w in nbr[ptr[v]:ptr[v + 1]]:
                    if w > v:
                        heapq.heappush(heap, w)
        part = np.array(owner, dtype=np.int64)
        if moved == 0:
            break
    return part


class MetisLikePartitioner(Partitioner):
    """Multilevel k-way partitioner (coarsen / partition / refine)."""

    def __init__(self, seed: int = 0):
        self._seed = seed

    def assign(self, graph: Graph, num_machines: int) -> np.ndarray:
        if num_machines <= 0:
            raise ValueError("need at least one machine")
        if num_machines == 1:
            return np.zeros(graph.num_vertices, dtype=np.int64)
        rng = np.random.default_rng(self._seed)
        levels: list[tuple[_Level, np.ndarray]] = []
        ones = np.ones(len(graph.indices), dtype=np.int64)
        level = _Level(graph.indptr, graph.indices, ones, np.ones(graph.num_vertices, dtype=np.int64))
        threshold = max(COARSEN_UNTIL, 8 * num_machines)
        while len(level.vertex_weight) > threshold and len(levels) < MAX_LEVELS:
            coarser, mapping = _heavy_edge_matching(level, rng)
            if len(coarser.vertex_weight) >= len(level.vertex_weight):
                break
            levels.append((level, mapping))
            level = coarser
        part = _refine(level, _initial_partition(level, num_machines, rng), num_machines)
        # Uncoarsen, refining at every level.
        for finer, mapping in reversed(levels):
            part = _refine(finer, part[mapping], num_machines)
        return part
