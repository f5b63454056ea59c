"""Frontier-at-a-time subgraph enumeration over the shared block step.

The step itself — block layout, ordering guarantee, counter arithmetic —
is :mod:`repro.enumeration.block`; this module owns what is the
backtracker's: per row the backward neighbours are intersected in stable
degree order (smallest list first, as a recursive matcher would), seeds are
admitted without charge, and :class:`EnumerationStats` feeds the simulated
cost model — ``recursive_calls`` += rows entering a step, ``intersections``
+= the membership cost, ``candidates_scanned`` += pairs surviving the
bounds (and start candidates passing ``allowed``), ``embeddings`` +=
complete rows yielded.

**Inputs.**  ``adjacency`` is a :class:`Graph` (a bound ``graph.neighbors``
stands for its graph) and ``allowed`` a boolean mask over the data
vertices: ``(|V|,)`` for every position, or ``(k, |V|)`` with one row per
position of the matching order (the labeled matcher's candidate sets).
Seed and start-candidate ids outside ``[0, |V|)`` are a ``ValueError``.
``limit`` keeps the first ``limit`` rows in depth-first order: expansion
stops with the chunk that reaches it, and the work counters cover the
chunks actually expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

import repro.enumeration.block as kernel
from repro.graph.graph import Graph
from repro.query.pattern import Pattern


@dataclass
class EnumerationStats:
    """Operation counters for cost accounting."""

    candidates_scanned: int = 0
    intersections: int = 0
    embeddings: int = 0
    recursive_calls: int = 0

    @property
    def total_ops(self) -> int:
        """Aggregate work units (fed to the simulated cost model)."""
        return (
            self.candidates_scanned
            + self.intersections
            + self.recursive_calls
        )


def compute_matching_order(
    pattern: Pattern,
    start: int | None = None,
    *,
    prefix: list[int] | None = None,
) -> list[int]:
    """Connectivity-preserving matching order.

    Starts from the highest-degree vertex (or ``start``), then repeatedly
    picks the vertex with the most already-ordered neighbours (ties by
    degree, then id) — the standard "most constrained first" heuristic.

    ``prefix`` forces the first vertices of the order (the streaming
    delta matcher pins a pattern edge's endpoints there so enumeration
    can be rooted at a touched data edge); each prefix vertex after the
    first must be adjacent to an earlier one, and the greedy heuristic
    fills in the rest.  ``start`` and ``prefix`` are mutually exclusive.
    """
    if prefix:
        if start is not None:
            raise ValueError("pass either start or prefix, not both")
        order = list(prefix)
        if len(set(order)) != len(order):
            raise ValueError("prefix repeats a pattern vertex")
        for i, u in enumerate(order):
            if u not in pattern.vertices():
                raise ValueError(f"prefix vertex {u} not in pattern")
            if i and not (pattern.adj(u) & set(order[:i])):
                raise ValueError(
                    f"prefix vertex {u} has no earlier pattern neighbour"
                )
    else:
        if start is None:
            start = max(
                pattern.vertices(), key=lambda u: (pattern.degree(u), -u)
            )
        order = [start]
    remaining = set(pattern.vertices()) - set(order)
    while remaining:
        placed = set(order)
        nxt = max(
            (u for u in remaining if pattern.adj(u) & placed),
            key=lambda u: (
                len(pattern.adj(u) & placed),
                pattern.degree(u),
                -u,
            ),
            default=None,
        )
        if nxt is None:
            raise ValueError("pattern is disconnected")
        order.append(nxt)
        remaining.discard(nxt)
    return order


@dataclass
class BacktrackingEnumerator:
    """Reusable enumerator bound to a pattern and a data graph."""

    pattern: Pattern
    adjacency: Graph
    constraints: list[tuple[int, int]] = field(default_factory=list)
    order: list[int] | None = None
    allowed: np.ndarray | None = None
    stats: EnumerationStats = field(default_factory=EnumerationStats)

    def __post_init__(self) -> None:
        if self.order is None:
            self.order = compute_matching_order(self.pattern)
        if set(self.order) != set(self.pattern.vertices()):
            raise ValueError("order must cover all pattern vertices")
        position = {u: i for i, u in enumerate(self.order)}
        # Per position, the columns a candidate must exceed / stay below.
        self._lower: list[list[int]] = [[] for _ in self.order]
        self._upper: list[list[int]] = [[] for _ in self.order]
        for a, b in self.constraints:  # f(a) < f(b)
            if position[a] < position[b]:
                self._lower[position[b]].append(position[a])
            else:
                self._upper[position[a]].append(position[b])
        # Columns of the backward pattern neighbours per position.
        self._backward = [
            [position[w] for w in self.pattern.adj(u) if position[w] < i]
            for i, u in enumerate(self.order)
        ]
        if not all(self._backward[1:]):
            raise ValueError("order vertex without an earlier neighbour")
        self._degree = [self.pattern.degree(u) for u in self.order]
        self._columns = [position[u] for u in self.pattern.vertices()]
        graph = self.adjacency
        if getattr(graph, "__func__", None) is Graph.neighbors:
            graph = graph.__self__
        if not isinstance(graph, Graph):
            raise TypeError(f"adjacency must be a Graph, got {graph!r}")
        self._graph = graph
        self._masks = None
        if self.allowed is not None:
            if getattr(self.allowed, "dtype", None) != bool:
                raise TypeError(
                    f"allowed must be a boolean vertex mask, got {self.allowed!r}"
                )
            self._masks = np.broadcast_to(
                self.allowed, (len(self.order), graph.num_vertices)
            )

    def _step(self, block, tags, row, cand, position: int, charge=False):
        """The next block: injective, allowed pairs of sufficient degree."""
        keep = kernel.injective(block, row, cand)
        if self._masks is not None:
            keep &= self._masks[position, cand]
        if charge:  # where the recursion charged a start candidate
            self.stats.candidates_scanned += int(keep.sum())
        indptr = self._graph.indptr
        keep &= indptr[cand + 1] - indptr[cand] >= self._degree[position]
        row = row[keep]
        return kernel.append(block, row, cand[keep]), tags[row]

    def _expand(self, block, tags) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Complete blocks below ``block`` in DFS order, chunk by chunk."""
        position = block.shape[1]
        if position == len(self.order):
            yield block, tags
            return
        graph = self._graph
        lower, upper = self._lower[position], self._upper[position]
        for lo in range(0, len(block), kernel.ROWS_PER_BLOCK):
            chunk = block[lo:lo + kernel.ROWS_PER_BLOCK]
            self.stats.recursive_calls += len(chunk)
            anchors = chunk[:, self._backward[position]]
            anchors = kernel.smallest_first(  # ties in pattern order
                anchors, graph.indptr[anchors + 1] - graph.indptr[anchors]
            )
            row, cand = kernel.neighbors(graph, anchors[:, 0])
            row, cand, cost = kernel.member(graph, anchors[:, 1:], row, cand)
            self.stats.intersections += int(cost.sum())
            row, cand = kernel.bounded(chunk, row, cand, lower, upper)
            self.stats.candidates_scanned += len(cand)
            yield from self._expand(*self._step(chunk, tags[lo:], row, cand, position))

    def _emit(
        self, seeds: np.ndarray, limit: int | None = None, charge=False
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(seed index, embeddings by pattern vertex)`` blocks below ``seeds``.

        Seed column ``j`` is admitted like a kernel candidate for position
        ``j`` — data edges to its backward neighbours, bounds, injectivity,
        ``allowed``, degree — but charges no counter (``charge``: except
        the seeds passing ``allowed``, for :meth:`run`'s start column).
        """
        graph = self._graph
        outside = seeds[(seeds < 0) | (seeds >= graph.num_vertices)]
        if outside.size:
            raise ValueError(
                f"vertex id {outside[0]} outside [0, {graph.num_vertices})"
            )
        block, tags = seeds[:, :0], np.arange(len(seeds))
        for position in range(seeds.shape[1]):
            row, cand = np.arange(len(block)), seeds[tags, position]
            for column in self._backward[position]:
                keep = graph.has_edges(block[row, column], cand)
                row, cand = row[keep], cand[keep]
            row, cand = kernel.bounded(
                block, row, cand, self._lower[position], self._upper[position]
            )
            block, tags = self._step(block, tags, row, cand, position, charge)
        if limit is not None and limit <= 0:
            return
        for rows, row_tags in self._expand(block, tags):
            self.stats.embeddings += len(rows[:limit])
            yield row_tags[:limit], rows[:limit, self._columns]
            if limit is not None:
                limit -= len(rows)
                if limit <= 0:
                    return

    def run_blocks(
        self, start_candidates: Iterable[int], limit: int | None = None
    ) -> Iterator[np.ndarray]:
        """Embeddings as ``(r, |V_P|)`` arrays, ``rows[:, u] = v``, in order.

        ``start_candidates`` are tried for ``order[0]`` in the order
        given; they are validated against ``allowed`` and the degree
        filter.  ``limit`` keeps the first ``limit`` embeddings.
        """
        if not isinstance(start_candidates, np.ndarray):
            start_candidates = list(start_candidates)
        starts = np.asarray(start_candidates, dtype=np.int64).reshape(-1)
        for _, rows in self._emit(starts[:, None], limit, charge=True):
            yield rows

    def run(
        self, start_candidates: Iterable[int], limit: int | None = None
    ) -> Iterator[tuple[int, ...]]:
        """:meth:`run_blocks`, row by row as tuples ``emb[u] = v``."""
        for rows in self.run_blocks(start_candidates, limit):
            yield from map(tuple, rows.tolist())

    def run_seeded(
        self, seed: dict[int, int], limit: int | None = None
    ) -> Iterator[tuple[int, ...]]:
        """Embeddings extending a pre-matched ``seed`` mapping.

        ``seed`` must map exactly the first ``len(seed)`` vertices of the
        matching order (build the order with ``prefix=`` to choose them).
        A seed that is not itself a valid partial embedding — injectivity,
        ``allowed``/degree filters, a data edge per seeded pattern edge,
        symmetry-breaking bounds — yields nothing.  This is the one-row
        case of :meth:`run_seeded_block`.
        """
        prefix = self.order[: len(seed)]
        if not seed:
            raise ValueError("seed must map at least one pattern vertex")
        if set(prefix) != set(seed):
            raise ValueError(f"seed must cover the first {len(seed)} order vertices {prefix}")
        seeds = np.array([[seed[u] for u in prefix]], dtype=np.int64)
        for _, rows in self._emit(seeds, limit):
            yield from map(tuple, rows.tolist())

    def run_seeded_block(self, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All embeddings extending any row of ``seeds``, as one block.

        ``seeds`` is an ``(m, k)`` array: the images of the first ``k``
        order vertices.  Returns ``(seed_index, embeddings)`` — an
        ``(r, |V_P|)`` array indexed by pattern vertex and, per row, the
        index of the seed it extends.  Rows and counters equal the
        concatenation of :meth:`run_seeded` over the seeds in order
        (invalid seeds add nothing), at one fixed numpy cost per level
        instead of one per seed — how streaming roots a batch's edges.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.ndim != 2 or not 1 <= seeds.shape[1] <= len(self.order):
            raise ValueError(
                f"seeds must be an (m, k) array of order-prefix images, 1 <= k <= {len(self.order)}"
            )
        empty = np.empty((0, len(self.order)), dtype=np.int64)
        tags, rows = zip((empty[:, 0], empty), *self._emit(seeds))
        return np.concatenate(tags), np.concatenate(rows)


def enumerate_embeddings(
    adjacency: Graph,
    vertices: Iterable[int],
    pattern: Pattern,
    constraints: list[tuple[int, int]] | None = None,
    order: list[int] | None = None,
    allowed: np.ndarray | None = None,
    limit: int | None = None,
    stats: EnumerationStats | None = None,
) -> list[tuple[int, ...]]:
    """Convenience wrapper returning the embedding list.

    ``vertices`` supplies the start candidates for the first vertex of the
    matching order.
    """
    enumerator = BacktrackingEnumerator(
        pattern=pattern,
        adjacency=adjacency,
        constraints=constraints or [],
        order=order,
        allowed=allowed,
        stats=stats or EnumerationStats(),
    )
    return list(enumerator.run(vertices, limit=limit))
