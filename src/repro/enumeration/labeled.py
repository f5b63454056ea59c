"""Labeled subgraph enumeration with TurboIso-style filtering.

The unlabeled enumerators in this package treat every data vertex as a
candidate for every query vertex.  With labels, TurboIso's candidate
filters apply:

- **label filter** — ``f(u)`` must carry ``u``'s label;
- **degree filter** — ``deg(f(u)) >= deg(u)``;
- **NLF filter** — for every label ``l``, ``f(u)`` must have at least as
  many neighbours labeled ``l`` as ``u`` does (neighbourhood label
  frequency).

The matching order follows TurboIso's candidate-cardinality heuristic:
start from the query vertex with the fewest surviving candidates, then
grow connectivity-first, preferring small candidate sets.  Enumeration is
the unlabeled block kernel with the candidate sets as its per-position
``allowed`` mask.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

import repro.enumeration.block as kernel
from repro.enumeration.backtracking import EnumerationStats, MatchingTables
from repro.graph.labeled import LabeledGraph
from repro.query.pattern import Pattern


class LabeledPattern:
    """A query pattern whose vertices carry integer labels."""

    def __init__(self, pattern: Pattern, labels: Iterable[int]):
        label_tuple = tuple(int(x) for x in labels)
        if len(label_tuple) != pattern.num_vertices:
            raise ValueError(
                f"expected {pattern.num_vertices} labels, "
                f"got {len(label_tuple)}"
            )
        if any(x < 0 for x in label_tuple):
            raise ValueError("labels must be non-negative integers")
        self._pattern = pattern
        self._labels = label_tuple

    @property
    def pattern(self) -> Pattern:
        """The underlying unlabeled pattern."""
        return self._pattern

    @property
    def labels(self) -> tuple[int, ...]:
        """Label tuple indexed by query vertex id."""
        return self._labels

    @property
    def name(self) -> str:
        """The underlying pattern's name (labels shown by ``repr``)."""
        return self._pattern.name

    @property
    def num_vertices(self) -> int:
        """Number of query vertices."""
        return self._pattern.num_vertices

    def label(self, u: int) -> int:
        """Label of query vertex ``u``."""
        return self._labels[u]

    def neighborhood_label_frequency(self, u: int) -> Counter[int]:
        """NLF of query vertex ``u``."""
        return Counter(self._labels[w] for w in self._pattern.adj(u))

    def to_dsl(self) -> str:
        """Labeled DSL text (``repro.pattern`` inverts)."""
        from repro.query.dsl import format_pattern

        return format_pattern(self._pattern, self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledPattern):
            return NotImplemented
        return (
            self._pattern == other._pattern
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return hash((self._pattern, self._labels))

    def __str__(self) -> str:
        return self.to_dsl()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LabeledPattern({self._pattern.name}, labels={self._labels})"


def candidate_sets(
    data: LabeledGraph,
    query: LabeledPattern,
    use_nlf: bool = True,
    stats: EnumerationStats | None = None,
) -> dict[int, np.ndarray]:
    """Per-query-vertex candidate arrays after label/degree/NLF filtering."""
    pattern = query.pattern
    graph, labels = data.graph, data.labels
    degrees = graph.degrees()
    out: dict[int, np.ndarray] = {}
    for u in pattern.vertices():
        base = data.vertices_with_label(query.label(u))
        if stats is not None:
            stats.candidates_scanned += len(base)
        survivors = base[degrees[base] >= pattern.degree(u)]
        if use_nlf:
            row, nbrs = kernel.neighbors(graph, survivors)
            keep = np.ones(len(survivors), dtype=bool)
            for label, needed in query.neighborhood_label_frequency(u).items():
                have = np.bincount(row[labels[nbrs] == label], minlength=len(keep))
                keep &= have >= needed
            survivors = survivors[keep]
        out[u] = survivors
    return out


def labeled_matching_order(
    pattern: Pattern, candidates: dict[int, np.ndarray]
) -> list[int]:
    """Candidate-cardinality matching order (TurboIso heuristic)."""
    start = min(
        pattern.vertices(),
        key=lambda u: (len(candidates[u]), -pattern.degree(u), u),
    )
    order = [start]
    remaining = set(pattern.vertices()) - {start}
    while remaining:
        placed = set(order)
        connected = [u for u in remaining if pattern.adj(u) & placed]
        if not connected:
            raise ValueError("pattern is disconnected")
        nxt = min(
            connected,
            key=lambda u: (len(candidates[u]), -pattern.degree(u), u),
        )
        order.append(nxt)
        remaining.discard(nxt)
    return order


@dataclass
class LabeledEnumerator:
    """Block-kernel matcher over a labeled graph and labeled pattern."""

    data: LabeledGraph
    query: LabeledPattern
    use_nlf: bool = True
    stats: EnumerationStats = field(default_factory=EnumerationStats)

    def __post_init__(self) -> None:
        self._candidates = candidate_sets(
            self.data, self.query, self.use_nlf, self.stats
        )
        self._order = labeled_matching_order(
            self.query.pattern, self._candidates
        )
        self._masks = np.zeros((len(self._order), self.data.num_vertices), dtype=bool)
        for position, u in enumerate(self._order):
            self._masks[position, self._candidates[u]] = True
        self._tables = MatchingTables(self.query.pattern, [], [self._order])

    # ------------------------------------------------------------------
    def candidates(self, u: int) -> np.ndarray:
        """Filtered candidate array of query vertex ``u``."""
        return self._candidates[u]

    def run(self, limit: int | None = None) -> Iterator[tuple[int, ...]]:
        """Yield labeled embeddings as canonical tuples ``emb[u] = v``.

        The start vertex's candidates enter as seeds: `candidate_sets`
        has already charged them.
        """
        starts = self._candidates[self._order[0]][:, None]
        for _, rows in self._tables.emit(self.data.graph, self.stats, starts, self._masks, limit):
            yield from map(tuple, rows.tolist())


def labeled_embeddings(
    data: LabeledGraph,
    query: LabeledPattern,
    use_nlf: bool = True,
    limit: int | None = None,
    stats: EnumerationStats | None = None,
) -> list[tuple[int, ...]]:
    """Convenience wrapper returning all labeled embeddings."""
    enumerator = LabeledEnumerator(
        data=data,
        query=query,
        use_nlf=use_nlf,
        stats=stats or EnumerationStats(),
    )
    return list(enumerator.run(limit=limit))
