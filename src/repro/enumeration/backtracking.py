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

**Tables.**  :class:`MatchingTables` compiles ``P`` matching orders into
one int64 table per position, a row per order — the backward anchor
columns padded with column 0 to the widest list, each anchor's size offset
(0, or ``_ABSENT`` for padding, so a padded anchor sorts after every real
list, filters nothing and charges nothing), the lower and upper bound
columns as 0/1 masks, the degree floor — and the permutation back to
pattern-vertex columns: a function of ``(pattern, constraints, orders)``
only, run over any snapshot.  With ``P > 1`` (streaming's ``2 |E_P|``
rooted plans) every ``(seed, order)`` pair is a row of the seed block,
tagged ``seed * P + order``: a level is one step whatever ``P`` is, and
rows come out in ``(seed, order, depth-first)`` order.
:meth:`MatchingTables.fuse` puts the orders of several patterns in one
table (streaming's watches): orders may then differ in length, an order
that has ended has a padding row no row reaches, and a row leaves the
block at its own order's length — so each pattern's rows keep their
``(seed, order, depth-first)`` order, and with one length (SM-E, Single,
Replication, labeled) a level costs no extra array operation.

**One fused step.**  A gathered level is one function,
:meth:`MatchingTables._step`, that pays numpy's dispatch once per array
operation: the table read once, by one fancy index on ``tags % P``; anchors
by one fancy index; their sizes from the graph's cached degree array; the
smallest list gathered; each further anchor one ``searchsorted`` on the
sentinel-terminated edge keys (ids from the CSR need no range check); the
bounds; then injectivity (:func:`~repro.enumeration.block.injective`),
degree and ``allowed`` as one mask over the pairs, and the pairs it keeps
appended column by column into the next block
(:func:`~repro.enumeration.block.append`).  A seed block's ``k`` prefix
columns are admitted in one pass, :meth:`MatchingTables._admit`: data
edges to the backward neighbours, bounds, injectivity, ``allowed`` and
degree build a single mask, and the rows it keeps are the first block.

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
from repro.graph.graph import Graph, gather_ranges
from repro.query.pattern import Pattern
from repro.query.symmetry import bound_columns

#: An absent (padding) anchor's size offset: it sorts after every real list.
_ABSENT = 1 << 62


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


def _row(q: int, width: int, anchors: list[int], lower: list[int], upper: list[int], degree: int):
    """One order's table row at position ``q`` (see :class:`MatchingTables`);
    with no anchors, bounds or degree, the padding row of an order that has ended."""
    pad = width - len(anchors)
    return [
        *anchors, *[0] * pad, *[0] * len(anchors), *[_ABSENT] * pad,
        *(c in lower for c in range(q)), *(c in upper for c in range(q)), degree,
    ]


class MatchingTables:
    """The block kernel over ``P`` matching orders (module docstring)."""

    def __init__(
        self, pattern: Pattern, constraints: list[tuple[int, int]], orders: list[list[int]]
    ):
        if any(set(order) != set(pattern.vertices()) for order in orders):
            raise ValueError("order must cover all pattern vertices")
        plans = []  # per order: (anchors, lower, upper, degree) per position; its columns
        for order in orders:
            at = {u: i for i, u in enumerate(order)}
            backward = [[at[w] for w in pattern.adj(u) if at[w] < i] for i, u in enumerate(order)]
            if not all(backward[1:]):
                raise ValueError("order vertex without an earlier neighbour")
            rows = zip(backward, *bound_columns(constraints, order), map(pattern.degree, order))
            plans.append((list(rows), [at[u] for u in pattern.vertices()]))
        self._compile(orders, plans)

    @classmethod
    def fuse(cls, parts: list[MatchingTables]) -> MatchingTables:
        """One table over the orders of ``parts`` in turn (module docstring)."""
        if len(parts) == 1:
            return parts[0]
        fused = cls.__new__(cls)
        orders = [order for part in parts for order in part.orders]
        fused._compile(orders, [plan for part in parts for plan in part._plans])
        return fused

    def _compile(self, orders, plans):
        """Per position the table, the anchor width, and where in a row the
        lower / upper bound masks are (None: no order bounds that side)."""
        self.orders, self._plans = orders, plans
        self._lengths = np.array([len(order) for order in orders])
        depth = int(self._lengths.max())
        self._ends = set(self._lengths.tolist()) - {depth}  # where some orders end
        self._steps = []
        for q in range(depth):
            rows = [plan[q] if q < len(plan) else ([], [], [], 0) for plan, _ in plans]
            width = max(len(row[0]) for row in rows)
            table = np.array([_row(q, width, *row) for row in rows], dtype=np.int64)
            table = table.reshape(len(rows), -1)
            sides = (slice(2 * width, 2 * width + q), slice(2 * width + q, 2 * width + 2 * q))
            self._steps.append(
                (table, width, *(side if table[:, side].any() else None for side in sides))
            )
        self._columns = np.array([columns + [0] * (depth - len(columns)) for _, columns in plans])

    def _step(self, run, block, tags):
        """The next block — ``block``'s rows one position deeper — and its tags:
        each row's candidates gathered from its smallest backward neighbourhood,
        then narrowed and charged in one pass (module docstring)."""
        graph, masks, stats = run
        degrees, keys, n = graph.degrees(), graph.edge_keys(), graph.num_vertices
        rows, position = block.shape
        table, width, lower, upper = self._steps[position]
        table = table[tags % len(self.orders)]
        span = np.arange(rows)[:, None]
        anchors = block[span, table[:, :width]]
        sizes = degrees[anchors] + table[:, width:2 * width]
        if width > 1:  # smallest list first, ties in pattern order
            order = sizes.argsort(axis=1, kind="stable")
            anchors, sizes = anchors[span, order], sizes[span, order]
        stats.recursive_calls += rows
        row, flat = gather_ranges(graph.indptr[anchors[:, 0]], sizes[:, 0])
        cand, alive, cost = graph.indices[flat], sizes[:, 0], 0
        for j in range(1, width):
            if j > 1:
                alive = np.bincount(row, minlength=rows)
            real = sizes[:, j] < _ABSENT
            cost += (np.minimum(alive, sizes[:, j]) * real).sum()
            wanted = anchors[row, j] * n + cand
            keep = (keys[keys.searchsorted(wanted)] == wanted) | ~real[row]
            row, cand = row[keep], cand[keep]
        stats.intersections += int(cost)
        keep = kernel.within(
            block, row, cand,
            None if lower is None else table[:, lower],
            None if upper is None else table[:, upper],
        )
        if keep is not None:
            row, cand = row[keep], cand[keep]
        stats.candidates_scanned += cand.size
        keep = kernel.injective(block, row, cand) & (degrees[cand] >= table[row, -1])
        if masks is not None:
            keep &= masks[position, cand]
        row = row[keep]
        return kernel.append(block, row, cand[keep]), tags[row]

    def _admit(self, run, seeds, charge=False, active=None):
        """The rows of ``seeds`` that are partial embeddings of their order and
        their tags, in one pass (module docstring); with ``P > 1`` a row per
        ``(seed, order)`` pair, tagged ``seed * P + order``.  ``active``: a
        boolean mask over the orders, whose others admit no row."""
        graph, masks, stats = run
        degrees, keys, n = graph.degrees(), graph.edge_keys(), graph.num_vertices
        count = len(self.orders)
        if count > 1:
            seeds = seeds.repeat(count, axis=0)
        tags = np.arange(seeds.shape[0])
        plans = tags % count
        keep = tags >= 0 if active is None else active[plans]
        for position in range(seeds.shape[1]):
            table, width, lower, upper = self._steps[position]
            table, column, prefix = table[plans], seeds[:, position], seeds[:, :position]
            if position:
                wanted = seeds[tags[:, None], table[:, :width]] * n + column[:, None]
                found = keys[keys.searchsorted(wanted)] == wanted
                keep &= (found | (table[:, width:2 * width] > 0)).all(axis=1)
                keep &= kernel.injective(prefix, tags, column)
                inside = kernel.within(
                    prefix, tags, column,
                    None if lower is None else table[:, lower],
                    None if upper is None else table[:, upper],
                )
                if inside is not None:
                    keep &= inside
            if masks is not None:
                keep &= masks[position, column]
            if charge:  # the start candidates past `allowed`
                stats.candidates_scanned += int(keep.sum())
            keep &= degrees[column] >= table[:, -1]
        return seeds[keep], tags[keep]

    def _expand(self, run, block, tags) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Complete blocks below ``block`` in DFS order, chunk by chunk; a row
        is complete at its own order's length."""
        depth = block.shape[1]
        if depth == len(self._steps):
            yield block, tags
            return
        if depth in self._ends:  # the rows of the orders that end here leave
            done = self._lengths[tags % len(self.orders)] == depth
            yield block[done], tags[done]
            block, tags = block[~done], tags[~done]
        for lo in range(0, len(block), kernel.ROWS_PER_BLOCK):
            hi = lo + kernel.ROWS_PER_BLOCK
            yield from self._expand(run, *self._step(run, block[lo:hi], tags[lo:hi]))

    def emit(
        self, adjacency: Graph, stats: EnumerationStats, seeds: np.ndarray,
        allowed: np.ndarray | None = None, limit: int | None = None, charge=False,
        active: np.ndarray | None = None,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(tags, embeddings by pattern vertex)`` blocks below ``seeds``, a
        row's tag ``seed index * P + order``; a block's rows have one length.
        ``charge``: the seeds are start candidates (one column); ``active``:
        see :meth:`_admit`."""
        bound = getattr(adjacency, "__func__", None) is Graph.neighbors
        graph = adjacency.__self__ if bound else adjacency
        if not isinstance(graph, Graph):
            raise TypeError(f"adjacency must be a Graph, got {adjacency!r}")
        masks = None
        if allowed is not None:
            if getattr(allowed, "dtype", None) != bool:
                raise TypeError(f"allowed must be a boolean vertex mask, got {allowed!r}")
            masks = np.broadcast_to(allowed, (len(self._steps), graph.num_vertices))
        outside = seeds[(seeds < 0) | (seeds >= graph.num_vertices)]
        if outside.size:
            raise ValueError(f"vertex id {outside[0]} outside [0, {graph.num_vertices})")
        count, run = len(self.orders), (graph, masks, stats)
        block, tags = self._admit(run, seeds, charge, active)
        if limit is not None and limit <= 0:
            return
        for rows, tags in self._expand(run, block, tags):
            rows, tags = rows[:limit], tags[:limit]
            stats.embeddings += len(rows)
            span = np.arange(len(rows))[:, None]
            yield tags, rows[span, self._columns[tags % count, :rows.shape[1]]]
            if limit is not None:
                limit -= len(rows)
                if limit <= 0:
                    return

    def block(self, adjacency, stats, seeds, allowed) -> tuple[np.ndarray, np.ndarray]:
        """Everything :meth:`emit` yields, as one ``(tags, embeddings)`` pair
        (orders of one length)."""
        empty = np.empty((0, len(self._steps)), dtype=np.int64)
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

    def run_blocks(self, start_candidates: Iterable[int]) -> Iterator[np.ndarray]:
        """Embeddings as ``(r, |V_P|)`` arrays, ``rows[:, u] = v``, in order.

        ``start_candidates`` are tried for ``order[0]`` in the order
        given; they are validated against ``allowed`` and the degree
        filter.
        """
        if not isinstance(start_candidates, np.ndarray):
            start_candidates = list(start_candidates)
        starts = np.asarray(start_candidates, dtype=np.int64).reshape(-1, 1)
        blocks = self._tables.emit(self.adjacency, self.stats, starts, self.allowed, charge=True)
        yield from (rows for _, rows in blocks)

    def run(self, start_candidates: Iterable[int]) -> Iterator[tuple[int, ...]]:
        """:meth:`run_blocks`, row by row as tuples ``emb[u] = v``."""
        for rows in self.run_blocks(start_candidates):
            yield from map(tuple, rows.tolist())


def enumerate_embeddings(
    adjacency: Graph,
    vertices: Iterable[int],
    pattern: Pattern,
    constraints: list[tuple[int, int]] | None = None,
    order: list[int] | None = None,
    allowed: np.ndarray | None = None,
    stats: EnumerationStats | None = None,
) -> list[tuple[int, ...]]:
    """Convenience wrapper returning the embedding list.

    ``vertices`` supplies the start candidates for the first vertex of the
    matching order.
    """
    enumerator = BacktrackingEnumerator(
        pattern, adjacency, constraints or [], order, allowed, stats or EnumerationStats()
    )
    return list(enumerator.run(vertices))
