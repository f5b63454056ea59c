"""Incremental pattern matching: delta embeddings per ingest batch.

The correctness argument, in full, because everything rests on it.  A
batch may add edges and delete edges but never both for the same edge
(:meth:`Graph.apply_batch` rejects overlap).  Then:

- every embedding present in ``new`` but not in ``old`` must use at
  least one *added* data edge (all its other edges exist in both), and
- every embedding present in ``old`` but not in ``new`` must use at
  least one *deleted* data edge.

So the delta is exactly "matches using a touched edge", enumerated in
the appropriate snapshot: additions against ``new``, deletions against
``old``.  To find matches using edge ``{a, b}`` the backtracking kernel is
rooted there: for every *directed* pattern edge ``(u, v)`` there is a
matching order with prefix ``[u, v]``, seeded ``f(u) = a, f(v) = b``
(``a < b`` canonical).  An embedding ``f`` using ``{a, b}`` maps exactly
one pattern edge onto it in exactly one orientation, so across the
``2 |E_P|`` rooting plans it is produced exactly once per touched edge it
uses.  Double counting across edges is removed by attributing each
embedding to the *first* touched edge it uses.

The plans are compiled once, at construction, into one
:class:`~repro.enumeration.backtracking.MatchingTables`, and a
:class:`FusedMatcher` puts the plans of several patterns (a stream's
watches) in one table.  A batch side is then *one* seed block — a row per
(touched edge, plan), the plan looked up from the row's tag — so an ingest
costs one admission and ``max |V_P| - 2`` kernel steps per side however
many plans and patterns there are, a stable partition by pattern hands
each its rows, and binding a snapshot compiles nothing.

Symmetry-breaking constraints are passed through unchanged — they are
inequalities on data vertices, independent of which snapshot is being
read — so delta sets compose exactly with full constrained enumeration,
which is what :func:`verify_parity` asserts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.enumeration.backtracking import (
    EnumerationStats,
    MatchingTables,
    compute_matching_order,
    enumerate_embeddings,
)
from repro.graph.graph import Graph
from repro.query.pattern import Pattern
from repro.query.symmetry import symmetry_breaking_constraints


class DeltaParityError(AssertionError):
    """Incremental delta disagreed with the full re-enumeration diff."""


def full_embeddings(graph: Graph, pattern: Pattern) -> set[tuple[int, ...]]:
    """One-shot constrained enumeration, as a set (parity reference)."""
    constraints = symmetry_breaking_constraints(pattern)
    return set(enumerate_embeddings(graph, graph.vertices(), pattern, constraints))


class FusedMatcher:
    """The rooted plans of several incremental matchers in one table: what
    each one's :meth:`~IncrementalMatcher.block_using` returns, from one kernel run."""

    def __init__(self, matchers: list[IncrementalMatcher]):
        self.matchers = matchers
        self._tables = MatchingTables.fuse([matcher._tables for matcher in matchers])
        self._owner = np.repeat(range(len(matchers)), [len(m._tables.orders) for m in matchers])

    def blocks_using(
        self, adjacency: Graph, edges: "Iterable[tuple[int, int]] | np.ndarray",
        wanted: list[IncrementalMatcher], stats: EnumerationStats,
    ) -> dict[IncrementalMatcher, np.ndarray]:
        """Per matcher in ``wanted`` its block over ``edges``; the other
        matchers' plans admit no row."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        seeds = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
        slots = [self.matchers.index(matcher) for matcher in wanted]
        active = np.zeros(len(self.matchers), dtype=bool)
        active[slots] = True
        count = len(self._tables.orders)
        chunks = list(self._tables.emit(adjacency, stats, seeds, active=active[self._owner]))
        stride = 1 + int(max([seeds.max(initial=0)] + [rows.max(initial=0) for _, rows in chunks]))
        listed, first = np.unique(seeds[:, 0] * stride + seeds[:, 1], return_index=True)
        sizes = [matcher.pattern.num_vertices for matcher in wanted]
        found = {}
        for matcher, slot, k in zip(wanted, slots, sizes):
            pieces = [(np.empty(0, dtype=np.int64), np.empty((0, k), dtype=np.int64))]
            for tags, rows in chunks:  # a block's rows have one length
                if rows.shape[1] == k:
                    mine = slice(None) if sizes.count(k) == 1 else self._owner[tags % count] == slot
                    pieces.append((tags[mine], rows[mine]))
            tags, rows = (np.concatenate(column) for column in zip(*pieces))
            # Drop rows using an edge listed before the one they grew from.
            ends = np.sort(rows[:, matcher._edges], axis=2)
            used = ends[..., 0] * stride + ends[..., 1]
            at = np.searchsorted(listed, used)
            at[at == len(listed)] = 0
            keep = (listed[at] != used) | (first[at] >= (tags // count)[:, None])
            found[matcher] = rows[keep.all(axis=1)]
        return found


class IncrementalMatcher:
    """Delta embeddings for one registered pattern (compiled at construction)."""

    def __init__(self, pattern: Pattern):
        self.pattern = pattern
        self.constraints = list(symmetry_breaking_constraints(pattern))
        self._edges = np.array(list(pattern.edges()))
        if not len(self._edges):
            raise ValueError("a continuous query needs a pattern edge to root at")
        self._tables = MatchingTables(pattern, self.constraints, [
            compute_matching_order(pattern, prefix=[u, v])
            for u in pattern.vertices()
            for v in pattern.adj(u)
        ])
        self._fused = FusedMatcher([self])

    # ------------------------------------------------------------------
    def block_using(
        self, adjacency: Graph, edges: "Iterable[tuple[int, int]] | np.ndarray",
        *, stats: EnumerationStats | None = None,
    ) -> np.ndarray:
        """:meth:`matches_using` as an ``(r, |V_P|)`` array, ``rows[:, u] = v``;
        ``edges`` (a list or an ``(m, 2)`` array) is the seed block as it is.
        The one-pattern case of :meth:`FusedMatcher.blocks_using`."""
        return self._fused.blocks_using(adjacency, edges, [self], stats or EnumerationStats())[self]

    def matches_using(
        self, adjacency: Graph, edges: Iterable[tuple[int, int]],
        *, stats: EnumerationStats | None = None,
    ) -> list[tuple[int, ...]]:
        """Constraint-satisfying embeddings using >= 1 of ``edges``.

        ``edges`` are ``(a, b)`` pairs in either orientation.  Each embedding
        is attributed to the first listed edge it uses, so the result holds
        every qualifying embedding exactly once, in (edge, rooting plan, DFS)
        order — the order the block comes out in.
        """
        return list(map(tuple, self.block_using(adjacency, edges, stats=stats).tolist()))

    def delta(
        self, old_graph: Graph, new_graph: Graph, additions: Iterable[tuple[int, int]],
        deletions: Iterable[tuple[int, int]], *, stats: EnumerationStats | None = None,
    ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """``(added, removed)`` embeddings for the batch that turned ``old_graph``
        into ``new_graph``: new matches are rooted at added edges in the new
        snapshot, vanished matches at deleted edges in the old one."""
        return (self.matches_using(new_graph, additions, stats=stats),
                self.matches_using(old_graph, deletions, stats=stats))

    def verify_parity(
        self, old_graph: Graph, new_graph: Graph,
        added: Sequence[tuple[int, ...]], removed: Sequence[tuple[int, ...]],
    ) -> None:
        """Assert the delta equals the diff of full re-enumerations.

        The full-recount safety net the paper trail demands: enumerate
        both snapshots from scratch and require ``added``/``removed`` to
        match the set difference exactly.  Raises
        :class:`DeltaParityError` with the disagreeing embeddings.
        """
        before = full_embeddings(old_graph, self.pattern)
        after = full_embeddings(new_graph, self.pattern)
        expect_added = after - before
        expect_removed = before - after
        got_added, got_removed = set(added), set(removed)
        if len(got_added) != len(added) or len(got_removed) != len(removed):
            raise DeltaParityError(
                f"{self.pattern.name}: delta lists contain duplicates"
            )
        if got_added != expect_added or got_removed != expect_removed:
            raise DeltaParityError(
                f"{self.pattern.name}: incremental delta diverges from "
                f"full recount (added: missing={sorted(expect_added - got_added)} "
                f"spurious={sorted(got_added - expect_added)}; "
                f"removed: missing={sorted(expect_removed - got_removed)} "
                f"spurious={sorted(got_removed - expect_removed)})"
            )
