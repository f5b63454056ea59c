"""Classic graph algorithms used across the reproduction.

Everything here operates on :class:`repro.graph.Graph` and is implemented
from scratch (no networkx) because these algorithms are substrates the paper
depends on: BFS distances feed border-distance computation (Sec. 3.1),
triangle/clique listing feeds SEED decomposition units and the Crystal index,
and diameter estimation feeds the dataset-profile table (Table 1).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from repro.graph.graph import Graph

UNREACHED = -1


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Unweighted shortest-path distances from ``source``.

    Unreached vertices get :data:`UNREACHED`.
    """
    return multi_source_bfs(graph, [source])


def multi_source_bfs(graph: Graph, sources: Iterable[int]) -> np.ndarray:
    """Distances to the nearest vertex of ``sources`` (-1 if unreachable)."""
    dist = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    queue: deque[int] = deque()
    for s in sources:
        if dist[s] == UNREACHED:
            dist[s] = 0
            queue.append(int(s))
    while queue:
        v = queue.popleft()
        dv = dist[v] + 1
        for w in graph.neighbors(v):
            if dist[w] == UNREACHED:
                dist[w] = dv
                queue.append(int(w))
    return dist


def connected_components(graph: Graph) -> np.ndarray:
    """Component label per vertex (labels are 0-based, in discovery order)."""
    label = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    current = 0
    for root in graph.vertices():
        if label[root] != UNREACHED:
            continue
        label[root] = current
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if label[w] == UNREACHED:
                    label[w] = current
                    queue.append(int(w))
        current += 1
    return label


#: Sweeps :func:`diameter_lower_bound` makes (fewer once one finds nothing farther).
DIAMETER_SWEEPS = 4


def diameter_lower_bound(graph: Graph) -> int:
    """Double-sweep lower bound on the diameter.

    Exact diameters of the synthetic datasets are too expensive; the paper's
    Table 1 only needs the order of magnitude.  ``DIAMETER_SWEEPS`` repeated
    double sweeps from the farthest vertex found so far, starting from a
    seed-0 random vertex, give a tight lower bound in practice.
    """
    if graph.num_vertices == 0:
        return 0
    rng = np.random.default_rng(0)
    start = int(rng.integers(graph.num_vertices))
    best = 0
    for _ in range(DIAMETER_SWEEPS):
        dist = bfs_distances(graph, start)
        reached = np.where(dist != UNREACHED)[0]
        if len(reached) == 0:
            break
        far = int(reached[np.argmax(dist[reached])])
        best = max(best, int(dist[far]))
        if far == start:
            break
        start = far
    return best


def triangles(graph: Graph) -> list[tuple[int, int, int]]:
    """All triangles, each reported once as an ordered tuple ``a < b < c``."""
    result: list[tuple[int, int, int]] = []
    for a in graph.vertices():
        nbrs_a = graph.neighbors(a)
        higher = nbrs_a[nbrs_a > a]
        for b in higher:
            b = int(b)
            nbrs_b = graph.neighbors(b)
            common = np.intersect1d(
                higher[higher > b], nbrs_b[nbrs_b > b], assume_unique=True
            )
            result.extend((a, b, int(c)) for c in common)
    return result


def triangle_count(graph: Graph) -> int:
    """Number of triangles (degeneracy-ordered merge counting)."""
    count = 0
    for a in graph.vertices():
        nbrs_a = graph.neighbors(a)
        higher = nbrs_a[nbrs_a > a]
        for b in higher:
            b = int(b)
            nbrs_b = graph.neighbors(b)
            count += len(
                np.intersect1d(
                    higher[higher > b], nbrs_b[nbrs_b > b], assume_unique=True
                )
            )
    return count


def degeneracy_order(graph: Graph) -> list[int]:
    """Vertices in degeneracy (smallest-last) order.

    Used by clique enumeration; runs in O(V + E) with bucket queues.
    """
    n = graph.num_vertices
    degree = graph.degrees().copy()
    max_degree = int(degree.max()) if n else 0
    buckets: list[set[int]] = [set() for _ in range(max_degree + 1)]
    for v in graph.vertices():
        buckets[int(degree[v])].add(v)
    removed = np.zeros(n, dtype=bool)
    order: list[int] = []
    pointer = 0
    for _ in range(n):
        while pointer <= max_degree and not buckets[pointer]:
            pointer += 1
        if pointer > max_degree:
            break
        v = buckets[pointer].pop()
        removed[v] = True
        order.append(v)
        for w in graph.neighbors(v):
            w = int(w)
            if not removed[w]:
                buckets[int(degree[w])].discard(w)
                degree[w] -= 1
                buckets[int(degree[w])].add(w)
                pointer = min(pointer, int(degree[w]))
    return order
