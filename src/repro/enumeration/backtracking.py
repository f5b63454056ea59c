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

**Tables.**  :class:`MatchingTables` compiles ``P`` matching orders of one
pattern into what a step needs per position — backward anchor columns,
lower / upper bound columns, degree floor — and the permutation back to
pattern-vertex columns: a function of ``(pattern, constraints, orders)``
only, run over any snapshot.  With ``P > 1`` (streaming's ``2 |E_P|``
rooted plans) every ``(seed, order)`` pair is a row of the seed block, tagged
``seed * P + order``: a level is one step whatever ``P`` is, and rows come
out in ``(seed, order, depth-first)`` order.  Where every order agrees on a
position (always, with the one order of a :class:`BacktrackingEnumerator`)
its table is the plain column list and the step the untagged one; elsewhere
a table has a row per order, looked up by tag: anchors padded to the widest
list under a ``real`` mask — ``block.member``'s ``decided``, so a padded
anchor filters nothing and charges nothing — and bounds as column masks.

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
from repro.query.symmetry import bound_columns


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


def _table(entries: list, tagged=np.array):
    """One position's table: ``entries[0]`` where every order agrees, else
    ``tagged(entries)``, a row per order."""
    return entries[0] if entries.count(entries[0]) == len(entries) else tagged(entries)


class MatchingTables:
    """The block kernel over ``P`` matching orders of one pattern (module docstring)."""

    def __init__(
        self, pattern: Pattern, constraints: list[tuple[int, int]], orders: list[list[int]]
    ):
        if any(set(order) != set(pattern.vertices()) for order in orders):
            raise ValueError("order must cover all pattern vertices")
        self.orders = orders
        places = [{u: i for i, u in enumerate(order)} for order in orders]
        backward = [
            [[at[w] for w in pattern.adj(u) if at[w] < i] for i, u in enumerate(order)]
            for order, at in zip(orders, places)
        ]
        if not all(all(plan[1:]) for plan in backward):
            raise ValueError("order vertex without an earlier neighbour")
        bounds = [bound_columns(constraints, order) for order in orders]
        # Per position: anchor columns, which of them are real (None: all),
        # lower bound columns, upper bound columns, degree floor.
        self._steps = []
        for q in range(pattern.num_vertices):
            anchors = [plan[q] for plan in backward]
            sizes = [[len(columns)] for columns in anchors]
            width = max(sizes)[0]
            self._steps.append((
                _table(anchors, lambda lists: np.array(
                    [columns + [0] * (width - len(columns)) for columns in lists]
                )),
                np.arange(width) < np.array(sizes) if min(sizes)[0] < width else None,
                *(
                    _table([plan[side][q] for plan in bounds], lambda lists: np.array(
                        [np.isin(range(q), columns) for columns in lists]
                    ))
                    for side in (0, 1)
                ),
                _table([pattern.degree(order[q]) for order in orders]),
            ))
        self._columns = _table([[at[u] for u in pattern.vertices()] for at in places])

    def _step(self, run, block, tags, position: int, cand=None, charge=False):
        """The next block — ``block``'s rows one position deeper — and its tags.

        Candidates are gathered from each row's smallest backward neighbourhood
        and charged; or handed in, one per row (``cand``: a seed column), and
        admitted by the same checks — data edges to the backward neighbours,
        bounds, injectivity, ``allowed``, degree — uncharged (``charge``: except
        those passing ``allowed``, where the recursion charged a start candidate).
        """
        graph, masks, stats = run
        tables = self._steps[position]
        if len(self.orders) > 1:  # per row, by the order it follows
            plans = tags % len(self.orders)
            tables = [t[plans] if isinstance(t, np.ndarray) else t for t in tables]
        anchors, real, lower, upper, degree = tables
        if isinstance(anchors, list):
            anchors = block[:, anchors]
        else:
            anchors = np.take_along_axis(block, anchors, axis=1)
        sizes = graph.indptr[anchors + 1] - graph.indptr[anchors]
        if real is not None:
            sizes[~real] = np.iinfo(np.int64).max  # padding sorts last
        anchors = kernel.smallest_first(anchors, sizes)  # ties in pattern order
        gathered = cand is None
        if gathered:
            stats.recursive_calls += len(block)
            row, cand = kernel.neighbors(graph, anchors[:, 0])
            anchors, real = anchors[:, 1:], None if real is None else real[:, 1:]
        else:
            row = np.arange(len(block))
        row, cand, cost = kernel.member(graph, anchors, row, cand, real)
        row, cand = kernel.bounded(block, row, cand, lower, upper)
        if gathered:
            stats.intersections += int(cost.sum())
            stats.candidates_scanned += len(cand)
        keep = kernel.injective(block, row, cand)
        if masks is not None:
            keep &= masks[position, cand]
        if charge:
            stats.candidates_scanned += int(keep.sum())
        if isinstance(degree, np.ndarray):
            degree = degree[row]
        keep &= graph.indptr[cand + 1] - graph.indptr[cand] >= degree
        row = row[keep]
        return kernel.append(block, row, cand[keep]), tags[row]

    def _expand(self, run, block, tags) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Complete blocks below ``block`` in DFS order, chunk by chunk."""
        position = block.shape[1]
        if position == len(self.orders[0]):
            yield block, tags
            return
        for lo in range(0, len(block), kernel.ROWS_PER_BLOCK):
            hi = lo + kernel.ROWS_PER_BLOCK
            yield from self._expand(run, *self._step(run, block[lo:hi], tags[lo:hi], position))

    def emit(
        self, adjacency: Graph, stats: EnumerationStats, seeds: np.ndarray,
        allowed: np.ndarray | None = None, limit: int | None = None, charge=False,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(seed index, embeddings by pattern vertex)`` blocks below ``seeds``,
        whose column ``j`` is the image of every order's position ``j``."""
        bound = getattr(adjacency, "__func__", None) is Graph.neighbors
        graph = adjacency.__self__ if bound else adjacency
        if not isinstance(graph, Graph):
            raise TypeError(f"adjacency must be a Graph, got {adjacency!r}")
        masks = None
        if allowed is not None:
            if getattr(allowed, "dtype", None) != bool:
                raise TypeError(f"allowed must be a boolean vertex mask, got {allowed!r}")
            masks = np.broadcast_to(allowed, (len(self.orders[0]), graph.num_vertices))
        outside = seeds[(seeds < 0) | (seeds >= graph.num_vertices)]
        if outside.size:
            raise ValueError(f"vertex id {outside[0]} outside [0, {graph.num_vertices})")
        count, run = len(self.orders), (graph, masks, stats)
        seeds = np.repeat(seeds, count, axis=0) if count > 1 else seeds
        block, tags = seeds[:, :0], np.arange(len(seeds))
        for position in range(seeds.shape[1]):
            block, tags = self._step(run, block, tags, position, seeds[tags, position], charge)
        if limit is not None and limit <= 0:
            return
        for rows, tags in self._expand(run, block, tags):
            rows, tags = rows[:limit], tags[:limit]
            stats.embeddings += len(rows)
            if count > 1:
                yield tags // count, np.take_along_axis(rows, self._columns[tags % count], axis=1)
            else:
                yield tags, rows[:, self._columns]
            if limit is not None:
                limit -= len(rows)
                if limit <= 0:
                    return

    def block(self, adjacency, stats, seeds, allowed=None) -> tuple[np.ndarray, np.ndarray]:
        """Everything :meth:`emit` yields, as one ``(seed index, embeddings)`` pair."""
        empty = np.empty((0, len(self.orders[0])), dtype=np.int64)
        tags, rows = zip((empty[:, 0], empty), *self.emit(adjacency, stats, seeds, allowed))
        return np.concatenate(tags), np.concatenate(rows)


@dataclass
class BacktrackingEnumerator:
    """One matching order of a pattern bound to a data graph."""

    pattern: Pattern
    adjacency: Graph
    constraints: list[tuple[int, int]] = field(default_factory=list)
    order: list[int] | None = None
    allowed: np.ndarray | None = None
    stats: EnumerationStats = field(default_factory=EnumerationStats)

    def __post_init__(self) -> None:
        if self.order is None:
            self.order = compute_matching_order(self.pattern)
        self._tables = MatchingTables(self.pattern, self.constraints, [self.order])

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
        starts = np.asarray(start_candidates, dtype=np.int64).reshape(-1, 1)
        for _, rows in self._tables.emit(
            self.adjacency, self.stats, starts, self.allowed, limit, charge=True
        ):
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
        for _, rows in self._tables.emit(self.adjacency, self.stats, seeds, self.allowed, limit):
            yield from map(tuple, rows.tolist())

    def run_seeded_block(self, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All embeddings extending any row of ``seeds``, as one block.

        ``seeds`` is an ``(m, k)`` array: the images of the first ``k``
        order vertices.  Returns ``(seed_index, embeddings)`` — an
        ``(r, |V_P|)`` array indexed by pattern vertex and, per row, the
        index of the seed it extends.  Rows and counters equal the
        concatenation of :meth:`run_seeded` over the seeds in order
        (invalid seeds add nothing), at one step per level, not one per seed.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.ndim != 2 or not 1 <= seeds.shape[1] <= len(self.order):
            raise ValueError(
                f"seeds must be an (m, k) array of order-prefix images, 1 <= k <= {len(self.order)}"
            )
        return self._tables.block(self.adjacency, self.stats, seeds, self.allowed)


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
