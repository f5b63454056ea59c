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
:class:`~repro.enumeration.backtracking.MatchingTables`; a batch side is
then *one* seed block — a row per (touched edge, plan), the plan looked up
from the row's tag — so a call costs ``|V_P|`` kernel steps however many
plans the pattern has, and binding a snapshot compiles nothing.

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


def full_embeddings(
    graph: Graph,
    pattern: Pattern,
    constraints: Sequence[tuple[int, int]] | None = None,
) -> set[tuple[int, ...]]:
    """One-shot constrained enumeration, as a set (parity reference)."""
    if constraints is None:
        constraints = symmetry_breaking_constraints(pattern)
    return set(
        enumerate_embeddings(graph, graph.vertices(), pattern, list(constraints))
    )


class IncrementalMatcher:
    """Delta embeddings for one registered pattern (compiled at construction)."""

    def __init__(
        self,
        pattern: Pattern,
        constraints: Sequence[tuple[int, int]] | None = None,
    ):
        self.pattern = pattern
        if constraints is None:
            constraints = symmetry_breaking_constraints(pattern)
        self.constraints = list(constraints)
        self._edges = np.array(list(pattern.edges()))
        if not len(self._edges):
            raise ValueError("a continuous query needs a pattern edge to root at")
        self._tables = MatchingTables(pattern, self.constraints, [
            compute_matching_order(pattern, prefix=[u, v])
            for u in pattern.vertices()
            for v in pattern.adj(u)
        ])

    # ------------------------------------------------------------------
    def block_using(
        self,
        adjacency: Graph,
        edges: "Iterable[tuple[int, int]] | np.ndarray",
        *,
        stats: EnumerationStats | None = None,
    ) -> np.ndarray:
        """:meth:`matches_using` as an ``(r, |V_P|)`` array, ``rows[:, u] = v``;
        ``edges`` (a list or an ``(m, 2)`` array) is the seed block as it is."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        seeds = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
        if len(seeds) == 0:
            return np.empty((0, self.pattern.num_vertices), dtype=np.int64)
        edge, found = self._tables.block(adjacency, stats or EnumerationStats(), seeds)
        # Drop rows using an edge listed before the one they grew from.
        stride = int(max(seeds.max(), found.max(initial=0))) + 1
        listed, first = np.unique(seeds[:, 0] * stride + seeds[:, 1], return_index=True)
        ends = np.sort(found[:, self._edges], axis=2)
        used = ends[..., 0] * stride + ends[..., 1]
        slot = np.searchsorted(listed, used)
        slot[slot == len(listed)] = 0
        keep = (listed[slot] != used) | (first[slot] >= edge[:, None])
        return found[keep.all(axis=1)]

    def matches_using(
        self,
        adjacency: Graph,
        edges: Iterable[tuple[int, int]],
        *,
        stats: EnumerationStats | None = None,
    ) -> list[tuple[int, ...]]:
        """Constraint-satisfying embeddings using >= 1 of ``edges``.

        ``edges`` are ``(a, b)`` pairs in either orientation.  Each embedding
        is attributed to the first listed edge it uses, so the result holds
        every qualifying embedding exactly once, in (edge, rooting plan, DFS)
        order — the order the block comes out in.
        """
        return list(map(tuple, self.block_using(adjacency, edges, stats=stats).tolist()))

    def delta(
        self,
        old_graph: Graph,
        new_graph: Graph,
        additions: Iterable[tuple[int, int]],
        deletions: Iterable[tuple[int, int]],
        *,
        stats: EnumerationStats | None = None,
    ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """``(added, removed)`` embeddings for the batch that turned ``old_graph``
        into ``new_graph``: new matches are rooted at added edges in the new
        snapshot, vanished matches at deleted edges in the old one."""
        added = self.matches_using(new_graph, additions, stats=stats)
        removed = self.matches_using(old_graph, deletions, stats=stats)
        return added, removed

    def verify_parity(
        self,
        old_graph: Graph,
        new_graph: Graph,
        added: Sequence[tuple[int, ...]],
        removed: Sequence[tuple[int, ...]],
    ) -> None:
        """Assert the delta equals the diff of full re-enumerations.

        The full-recount safety net the paper trail demands: enumerate
        both snapshots from scratch and require ``added``/``removed`` to
        match the set difference exactly.  Raises
        :class:`DeltaParityError` with the disagreeing embeddings.
        """
        before = full_embeddings(old_graph, self.pattern, self.constraints)
        after = full_embeddings(new_graph, self.pattern, self.constraints)
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
