"""Multilevel k-way partitioner (METIS substitute).

The paper partitions each data graph with METIS' multilevel k-way algorithm.
METIS is not available offline, so this module implements the same scheme
from scratch:

1. **Coarsening** — repeated heavy-edge matching collapses the graph until
   it is small.
2. **Initial partitioning** — greedy BFS region growing over the coarsest
   graph, balanced by (coarse) vertex weight.
3. **Uncoarsening + refinement** — projected back level by level; boundary
   vertices are greedily moved to the neighbouring part with maximal gain
   subject to a balance constraint (a lightweight Kernighan-Lin/FM pass).

The goal is the contract RADS depends on: balanced parts with strong
locality, so that most vertices sit far from partition borders.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.graph import Graph
from repro.partition.partitioner import Partitioner


class _CoarseGraph:
    """Weighted graph used internally during coarsening."""

    def __init__(
        self,
        adjacency: list[dict[int, int]],
        vertex_weight: np.ndarray,
    ):
        self.adjacency = adjacency
        self.vertex_weight = vertex_weight

    @property
    def num_vertices(self) -> int:
        return len(self.adjacency)

    @classmethod
    def from_graph(cls, graph: Graph) -> "_CoarseGraph":
        adjacency = [
            {int(w): 1 for w in graph.neighbors(v)} for v in graph.vertices()
        ]
        return cls(adjacency, np.ones(graph.num_vertices, dtype=np.int64))


def _heavy_edge_matching(
    coarse: _CoarseGraph, rng: np.random.Generator
) -> tuple[_CoarseGraph, np.ndarray]:
    """One coarsening level; returns (coarser graph, fine->coarse map)."""
    n = coarse.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    visit_order = rng.permutation(n)
    for v in visit_order:
        v = int(v)
        if match[v] != -1:
            continue
        best, best_weight = -1, -1
        for w, weight in coarse.adjacency[v].items():
            if match[w] == -1 and weight > best_weight:
                best, best_weight = w, weight
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v
    coarse_id = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if coarse_id[v] != -1:
            continue
        coarse_id[v] = next_id
        partner = int(match[v])
        if partner != v:
            coarse_id[partner] = next_id
        next_id += 1
    adjacency: list[dict[int, int]] = [dict() for _ in range(next_id)]
    weight = np.zeros(next_id, dtype=np.int64)
    for v in range(n):
        cv = int(coarse_id[v])
        weight[cv] += coarse.vertex_weight[v]
    counted = np.zeros(n, dtype=bool)
    for v in range(n):
        cv = int(coarse_id[v])
        for w, ew in coarse.adjacency[v].items():
            if counted[w]:
                continue
            cw = int(coarse_id[w])
            if cv == cw:
                continue
            adjacency[cv][cw] = adjacency[cv].get(cw, 0) + ew
            adjacency[cw][cv] = adjacency[cw].get(cv, 0) + ew
        counted[v] = True
    # Halve double counting (each edge seen from both endpoints once overall
    # due to the `counted` mask, so no halving needed).
    return _CoarseGraph(adjacency, weight), coarse_id


def _initial_partition(
    coarse: _CoarseGraph, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy BFS region growing, balanced by vertex weight."""
    n = coarse.num_vertices
    total_weight = int(coarse.vertex_weight.sum())
    target = total_weight / k
    part = np.full(n, -1, dtype=np.int64)
    order = sorted(range(n), key=lambda v: -len(coarse.adjacency[v]))
    seeds: list[int] = []
    for v in order:
        if len(seeds) >= k:
            break
        if all(v not in coarse.adjacency[s] for s in seeds):
            seeds.append(v)
    while len(seeds) < k:
        candidates = [v for v in range(n) if v not in seeds]
        if not candidates:
            break
        seeds.append(int(rng.choice(candidates)))
    load = np.zeros(k, dtype=np.float64)
    # Fewer seeds than parts (k exceeds the coarse vertex count): the
    # surplus parts stay empty.
    queues: list[deque[int]] = [deque([s]) for s in seeds] + [
        deque() for _ in range(k - len(seeds))
    ]
    for p, s in enumerate(seeds):
        part[s] = p
        load[p] += coarse.vertex_weight[s]
    active = True
    while active:
        active = False
        # Least-loaded part grows first to keep balance.
        for p in np.argsort(load):
            p = int(p)
            queue = queues[p]
            grew = False
            while queue and not grew:
                v = queue.popleft()
                for w in coarse.adjacency[v]:
                    if part[w] == -1:
                        part[w] = p
                        load[p] += coarse.vertex_weight[w]
                        queue.append(w)
                        grew = True
                        active = True
                        if load[p] > 1.15 * target:
                            break
                if grew:
                    queue.appendleft(v)
        if not active:
            remaining = np.where(part == -1)[0]
            if len(remaining) == 0:
                break
            # Unreached (disconnected) vertices go to the lightest part.
            for v in remaining:
                p = int(np.argmin(load))
                part[v] = p
                load[p] += coarse.vertex_weight[v]
                queues[p].append(int(v))
            break
    return part


def _refine(
    coarse: _CoarseGraph,
    part: np.ndarray,
    k: int,
    max_imbalance: float,
    passes: int,
) -> np.ndarray:
    """Greedy boundary refinement with a balance constraint."""
    load = np.zeros(k, dtype=np.float64)
    for v in range(coarse.num_vertices):
        load[part[v]] += coarse.vertex_weight[v]
    limit = max_imbalance * coarse.vertex_weight.sum() / k
    for _ in range(passes):
        moved = 0
        for v in range(coarse.num_vertices):
            here = int(part[v])
            weight_to: dict[int, int] = {}
            for w, ew in coarse.adjacency[v].items():
                pw = int(part[w])
                weight_to[pw] = weight_to.get(pw, 0) + ew
            internal = weight_to.get(here, 0)
            best_part, best_gain = here, 0
            for p, external in weight_to.items():
                if p == here:
                    continue
                gain = external - internal
                vw = coarse.vertex_weight[v]
                if gain > best_gain and load[p] + vw <= limit:
                    best_part, best_gain = p, gain
            if best_part != here:
                vw = coarse.vertex_weight[v]
                load[here] -= vw
                load[best_part] += vw
                part[v] = best_part
                moved += 1
        if moved == 0:
            break
    return part


class MetisLikePartitioner(Partitioner):
    """Multilevel k-way partitioner (coarsen / partition / refine)."""

    def __init__(
        self,
        coarsen_until: int = 200,
        max_levels: int = 12,
        refinement_passes: int = 4,
        max_imbalance: float = 1.1,
        seed: int = 0,
    ):
        self._coarsen_until = coarsen_until
        self._max_levels = max_levels
        self._refinement_passes = refinement_passes
        self._max_imbalance = max_imbalance
        self._seed = seed

    def assign(self, graph: Graph, num_machines: int) -> np.ndarray:
        if num_machines <= 0:
            raise ValueError("need at least one machine")
        if num_machines == 1:
            return np.zeros(graph.num_vertices, dtype=np.int64)
        rng = np.random.default_rng(self._seed)
        levels: list[tuple[_CoarseGraph, np.ndarray]] = []
        coarse = _CoarseGraph.from_graph(graph)
        threshold = max(self._coarsen_until, 8 * num_machines)
        while (
            coarse.num_vertices > threshold
            and len(levels) < self._max_levels
        ):
            coarser, mapping = _heavy_edge_matching(coarse, rng)
            if coarser.num_vertices >= coarse.num_vertices:
                break
            levels.append((coarse, mapping))
            coarse = coarser
        part = _initial_partition(coarse, num_machines, rng)
        part = _refine(
            coarse, part, num_machines, self._max_imbalance,
            self._refinement_passes,
        )
        # Uncoarsen, refining at every level.
        for finer, mapping in reversed(levels):
            part = part[mapping]
            part = _refine(
                finer, part, num_machines, self._max_imbalance,
                self._refinement_passes,
            )
        return part.astype(np.int64)
