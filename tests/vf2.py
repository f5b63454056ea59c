"""VF2-style subgraph enumeration (Cordella et al., TPAMI 2004), kept
beside its tests as the independent oracle.

A vertex-at-a-time implementation of the same semantics as
:class:`repro.enumeration.backtracking.BacktrackingEnumerator`, sharing
none of its block machinery: ``test_vf2.py`` and the property-based
differentials of ``test_engine_equivalence.py`` cross-check the kernel
and the engines built on it against this module.  The package never
imports it.

The enumerator searches for *monomorphisms* (every pattern edge must map
to a data edge; non-edges are unconstrained), which is the subgraph
semantics of the paper.  Feasibility combines VF2's consistency rule
(matched pattern neighbours must map to data neighbours) with the
monomorphism-safe lookahead (a candidate needs at least as many unmatched
neighbours as the pattern vertex has unmatched neighbours).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.enumeration.backtracking import (
    EnumerationStats,
    compute_matching_order,
)
from repro.query.pattern import Pattern


@dataclass
class VF2Enumerator:
    """Serial VF2-style enumerator bound to a pattern and adjacency source.

    ``adjacency`` maps a data vertex to its sorted neighbour array,
    ``allowed`` is an optional predicate restricting matchable data
    vertices (the block kernel takes a ``Graph`` and a mask instead), and
    ``constraints`` are symmetry-breaking pairs ``(u, u')`` requiring
    ``f(u) < f(u')``.
    """

    pattern: Pattern
    adjacency: Callable[[int], np.ndarray]
    constraints: list[tuple[int, int]] = field(default_factory=list)
    order: list[int] | None = None
    allowed: Callable[[int], bool] | None = None
    stats: EnumerationStats = field(default_factory=EnumerationStats)

    def __post_init__(self) -> None:
        if self.order is None:
            self.order = compute_matching_order(self.pattern)
        if set(self.order) != set(self.pattern.vertices()):
            raise ValueError("order must cover all pattern vertices")
        position = {u: i for i, u in enumerate(self.order)}
        n = self.pattern.num_vertices
        # Pattern neighbours matched before / after each position.
        self._backward = [
            [w for w in self.pattern.adj(u) if position[w] < i]
            for i, u in enumerate(self.order)
        ]
        self._forward_count = [
            sum(1 for w in self.pattern.adj(u) if position[w] > i)
            for i, u in enumerate(self.order)
        ]
        # Per vertex, the vertices whose image must be greater / smaller.
        self._smaller = [[v for w, v in self.constraints if w == u] for u in range(n)]
        self._greater = [[w for w, v in self.constraints if v == u] for u in range(n)]

    # ------------------------------------------------------------------
    def _neighbor_set(self, v: int) -> set[int]:
        arr = self.adjacency(v)
        return {int(w) for w in arr}

    def _feasible(
        self,
        position: int,
        v: int,
        mapping: dict[int, int],
        used: set[int],
    ) -> bool:
        """VF2 feasibility of the candidate pair ``(order[position], v)``."""
        u = self.order[position]
        if v in used:
            return False
        if self.allowed is not None and not self.allowed(v):
            return False
        neighbors = self._neighbor_set(v)
        self.stats.candidates_scanned += 1
        # Consistency: every matched pattern neighbour maps into adj(v).
        for w in self._backward[position]:
            if mapping[w] not in neighbors:
                return False
        # Lookahead: enough unmatched data neighbours remain for the
        # pattern vertex's unmatched neighbours (monomorphism-safe >=).
        unmatched = sum(1 for x in neighbors if x not in used)
        if unmatched < self._forward_count[position]:
            return False
        # Symmetry-breaking bounds against already-matched partners.
        for w in self._greater[u]:
            if w in mapping and mapping[w] >= v:
                return False
        for w in self._smaller[u]:
            if w in mapping and mapping[w] <= v:
                return False
        return True

    # ------------------------------------------------------------------
    def run(self, start_candidates: Iterable[int]) -> Iterator[tuple[int, ...]]:
        """Yield embeddings as canonical tuples ``emb[u] = v``."""
        order = self.order
        n = self.pattern.num_vertices
        mapping: dict[int, int] = {}
        used: set[int] = set()

        def extend(position: int) -> Iterator[tuple[int, ...]]:
            self.stats.recursive_calls += 1
            u = order[position]
            # VF2 draws candidates from the data-side terminal set: the
            # neighbourhood of an already-matched pattern neighbour
            # (patterns are connected, so one always exists past position 0).
            anchor = self._backward[position][0]
            for v in self.adjacency(mapping[anchor]):
                v = int(v)
                if not self._feasible(position, v, mapping, used):
                    continue
                mapping[u] = v
                used.add(v)
                if position + 1 == n:
                    self.stats.embeddings += 1
                    yield tuple(mapping[w] for w in range(n))
                else:
                    yield from extend(position + 1)
                used.discard(v)
                del mapping[u]

        for v0 in start_candidates:
            v0 = int(v0)
            if not self._feasible(0, v0, mapping, used):
                continue
            mapping[order[0]] = v0
            used.add(v0)
            if n == 1:
                yield (v0,)
            else:
                yield from extend(1)
            used.discard(v0)
            del mapping[order[0]]


def vf2_embeddings(
    adjacency: Callable[[int], np.ndarray],
    vertices: Iterable[int],
    pattern: Pattern,
    constraints: list[tuple[int, int]] | None = None,
    order: list[int] | None = None,
    allowed: Callable[[int], bool] | None = None,
    stats: EnumerationStats | None = None,
) -> list[tuple[int, ...]]:
    """Convenience wrapper mirroring
    :func:`repro.enumeration.backtracking.enumerate_embeddings`."""
    enumerator = VF2Enumerator(
        pattern=pattern,
        adjacency=adjacency,
        constraints=constraints or [],
        order=order,
        allowed=allowed,
        stats=stats or EnumerationStats(),
    )
    return list(enumerator.run(vertices))
