"""Frontier-at-a-time subgraph enumeration: one vectorised block kernel.

**Block layout.**  A level's partial embeddings are an ``(n, k)`` int64
array, one row each, columns in *matching order* (column ``i`` is the
image of ``order[i]``), beside an ``(n,)`` tag array naming the seed each
row descends from.  One step (:meth:`BacktrackingEnumerator._expand`)
produces the ``k + 1``-column block of all one-vertex extensions: gather
the CSR range of each row's lowest-degree backward neighbour as ``(row,
candidate)`` pairs (``np.repeat`` + offset arithmetic); filter them by
:meth:`Graph.has_edges` against each further backward neighbour in
stable degree order (a ``searchsorted`` in the sorted edge-key array);
then apply symmetry bounds, injectivity, the ``allowed`` mask and the
minimum degree as boolean masks.

**Ordering guarantee.**  Pairs are generated row by row, candidates
ascending, and every later stage is a stable filter, so rows are always
in depth-first order: output equals a recursive backtracker's as an
ordered list.  Blocks above ``ROWS_PER_BLOCK`` rows are cut into row
chunks, each taken to full depth before the next: memory stays bounded
(depth x ``ROWS_PER_BLOCK`` x max degree pairs) and order is kept.

**Counter arithmetic.**  :class:`EnumerationStats` feeds the simulated
cost model, so the recursion's counters are reproduced from block
shapes: ``recursive_calls`` += rows entering a step; ``intersections``
+= ``sum(min(pairs alive in the row, degree of the next neighbour))``
per membership round (an emptied row adds zero — the recursion's early
exit); ``candidates_scanned`` += pairs surviving the bounds (and start
candidates passing ``allowed``); ``embeddings`` += complete rows yielded.

**Inputs.**  Natively ``adjacency`` is a :class:`Graph` and ``allowed`` a
boolean vertex mask.  A bound ``graph.neighbors`` stands for its graph;
any other ``v -> sorted array`` callable is gathered, once per step and
distinct vertex, into a step-local CSR, and an ``allowed`` predicate is
asked once per distinct candidate — the same block code runs either way.
``limit`` keeps the first ``limit`` rows in depth-first order: expansion
stops with the chunk that reaches it, and the work counters cover the
chunks actually expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.graph.graph import Graph, gather_ranges
from repro.query.pattern import Pattern

# Rows expanded per kernel step; larger blocks go depth-first in chunks.
ROWS_PER_BLOCK = 2048


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


def _gathered_graph(adjacency: Callable, vertices: np.ndarray) -> Graph:
    """Step-local CSR of ``vertices``' adjacency, rows by id (O(max id) a step)."""
    ids = np.unique(vertices)
    lists = [np.asarray(adjacency(v), dtype=np.int64) for v in ids.tolist()]
    indices = np.concatenate(lists + [np.empty(0, dtype=np.int64)])
    counts = np.zeros(max(ids.max(initial=0), indices.max(initial=0)) + 1, int)
    counts[ids] = [len(nbrs) for nbrs in lists]
    return Graph(np.concatenate(([0], np.cumsum(counts))), indices)


@dataclass
class BacktrackingEnumerator:
    """Reusable enumerator bound to a pattern and an adjacency source."""

    pattern: Pattern
    adjacency: Graph | Callable[[int], np.ndarray]
    constraints: list[tuple[int, int]] = field(default_factory=list)
    order: list[int] | None = None
    allowed: np.ndarray | Callable[[int], bool] | None = None
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
        # Natively a Graph; a bound ``graph.neighbors`` stands for its graph.
        source = self.adjacency
        if getattr(source, "__func__", None) is Graph.neighbors:
            source = source.__self__
        self._graph = source if isinstance(source, Graph) else None

    def _csr(self, vertices: np.ndarray) -> Graph:
        """A graph holding (at least) the adjacency of ``vertices``."""
        if self._graph is not None:
            return self._graph
        return _gathered_graph(self.adjacency, vertices)

    def _allowed(self, vertices: np.ndarray) -> np.ndarray:
        if isinstance(self.allowed, np.ndarray):
            return self.allowed[vertices]
        distinct, inverse = np.unique(vertices, return_inverse=True)
        verdicts = [bool(self.allowed(v)) for v in distinct.tolist()]
        return np.array(verdicts, dtype=bool)[inverse]

    def _candidates(self, block: np.ndarray, position: int, given=None):
        """``(row, candidate)`` pairs adjacent to every backward neighbour."""
        anchors = block[:, self._backward[position]]
        csr = self._csr(anchors)
        starts = csr.indptr[anchors]
        degrees = csr.indptr[anchors + 1] - starts
        if anchors.shape[1] > 1:
            by_degree = np.argsort(degrees, axis=1, kind="stable")
            lane = np.arange(len(block))[:, None]
            anchors = anchors[lane, by_degree]
            starts = starts[lane, by_degree]
            degrees = degrees[lane, by_degree]
        gathered = given is None
        if gathered:  # anchor 0's neighbours; the other anchors filter them
            row, flat = gather_ranges(starts[:, 0], degrees[:, 0])
            cand = csr.indices[flat]
        else:  # seed admission: one proposed candidate a row, nothing charged
            row, cand = np.arange(len(block)), given
        for j in range(int(gathered), anchors.shape[1]):
            if gathered:
                alive = np.bincount(row, minlength=len(block))
                self.stats.intersections += int(np.minimum(alive, degrees[:, j]).sum())
            keep = csr.has_edges(anchors[row, j], cand)
            row, cand = row[keep], cand[keep]
        return row, cand

    def _bounded(self, block, row, cand, position: int):
        """Pairs satisfying the symmetry-breaking bounds of ``position``."""
        lower, upper = self._lower[position], self._upper[position]
        if not lower and not upper:
            return row, cand
        keep = np.ones(len(cand), dtype=bool)
        if lower:
            keep &= cand > block[:, lower].max(axis=1)[row]
        if upper:
            keep &= cand < block[:, upper].min(axis=1)[row]
        return row[keep], cand[keep]

    def _matched(self, block, tags, row, cand, position: int, charge=False):
        """The next block: injective, allowed pairs of sufficient degree."""
        parents = block[row]
        keep = (parents != cand[:, None]).all(axis=1)
        if self.allowed is not None:
            keep &= self._allowed(cand)
        # Degrees are read for the survivors only: an adjacency callable
        # may not know the vertices that ``allowed`` rejects.
        kept = np.flatnonzero(keep)
        if charge:  # where the recursion charged a start candidate
            self.stats.candidates_scanned += len(kept)
        live = cand[kept]
        indptr = self._csr(live).indptr
        kept = kept[indptr[live + 1] - indptr[live] >= self._degree[position]]
        matched = np.concatenate((parents[kept], cand[kept, None]), axis=1)
        return matched, tags[row[kept]]

    def _expand(self, block, tags) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Complete blocks below ``block`` in DFS order, chunk by chunk."""
        position = block.shape[1]
        if position == len(self.order):
            yield block, tags
            return
        for lo in range(0, len(block), ROWS_PER_BLOCK):
            chunk = block[lo:lo + ROWS_PER_BLOCK]
            self.stats.recursive_calls += len(chunk)
            row, cand = self._candidates(chunk, position)
            row, cand = self._bounded(chunk, row, cand, position)
            self.stats.candidates_scanned += len(cand)
            yield from self._expand(*self._matched(chunk, tags[lo:], row, cand, position))

    def _emit(
        self, seeds: np.ndarray, limit: int | None = None, charge=False
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(seed index, embeddings by pattern vertex)`` blocks below ``seeds``.

        Seed column ``j`` is admitted like a kernel candidate for position
        ``j`` — data edges to its backward neighbours, bounds, injectivity,
        ``allowed``, degree — but charges no counter (``charge``: except
        the seeds passing ``allowed``, for :meth:`run`'s start column).
        """
        block, tags = seeds[:, :0], np.arange(len(seeds))
        for position in range(seeds.shape[1]):
            row, cand = self._candidates(block, position, seeds[tags, position])
            row, cand = self._bounded(block, row, cand, position)
            block, tags = self._matched(block, tags, row, cand, position, charge)
        if limit is not None and limit <= 0:
            return
        for rows, row_tags in self._expand(block, tags):
            self.stats.embeddings += len(rows[:limit])
            yield row_tags[:limit], rows[:limit, self._columns]
            if limit is not None:
                limit -= len(rows)
                if limit <= 0:
                    return

    def run(
        self, start_candidates: Iterable[int], limit: int | None = None
    ) -> Iterator[tuple[int, ...]]:
        """Yield embeddings as tuples ``emb[u] = v`` (indexed by vertex id).

        ``start_candidates`` are tried for ``order[0]`` in the order
        given; they are validated against ``allowed`` and the degree
        filter.  ``limit`` keeps the first ``limit`` embeddings.
        """
        if not isinstance(start_candidates, np.ndarray):
            start_candidates = list(start_candidates)
        starts = np.asarray(start_candidates, dtype=np.int64).reshape(-1)
        for _, rows in self._emit(starts[:, None], limit, charge=True):
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
    adjacency: Graph | Callable[[int], np.ndarray],
    vertices: Iterable[int],
    pattern: Pattern,
    constraints: list[tuple[int, int]] | None = None,
    order: list[int] | None = None,
    allowed: np.ndarray | Callable[[int], bool] | None = None,
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
