"""Clique enumeration (Bron-Kerbosch with pivoting).

The Crystal baseline (Qiao et al., reimplemented in
:mod:`repro.engines.crystal`) pre-builds an index of all cliques of the data
graph; SEED uses local clique listing for its clique decomposition units.
"""

from __future__ import annotations

from itertools import combinations

from repro.graph.graph import Graph
from repro.graph.algorithms import degeneracy_order


def maximal_cliques(graph: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques via Bron-Kerbosch with degeneracy ordering."""
    adjacency = [set(int(w) for w in graph.neighbors(v)) for v in graph.vertices()]
    result: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            result.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: len(adjacency[v] & p))
        for v in sorted(p - adjacency[pivot]):
            expand(r + [v], p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    order = degeneracy_order(graph)
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        later = {w for w in adjacency[v] if position[w] > position[v]}
        earlier = {w for w in adjacency[v] if position[w] < position[v]}
        expand([v], later, earlier)
    return result


def enumerate_cliques(
    graph: Graph, min_size: int = 3, max_size: int = 5,
    max_count: int | None = None,
) -> list[tuple[int, ...]]:
    """All cliques (not only maximal) with ``min_size <= size <= max_size``.

    Derived from the maximal cliques by sub-selection, with global
    deduplication.  This is exactly what the Crystal index stores.
    """
    seen: set[tuple[int, ...]] = set()
    for clique in maximal_cliques(graph):
        k = len(clique)
        for size in range(min_size, min(max_size, k) + 1):
            for sub in combinations(clique, size):
                seen.add(sub)
                if max_count is not None and len(seen) >= max_count:
                    return sorted(seen)
    return sorted(seen)
