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
``old``.  To find matches using edge ``{a, b}`` we root the existing
backtracking enumerator there: for every *directed* pattern edge
``(u, v)`` we build a matching order with prefix ``[u, v]`` and seed
``f(u) = a, f(v) = b`` (``a < b`` canonical).  An embedding ``f`` using
``{a, b}`` maps exactly one pattern edge onto it in exactly one
orientation, so across the ``2 |E_P|`` rooting plans it is produced
exactly once per touched edge it uses.  Double counting across edges is
removed by attributing each embedding to the *first* touched edge it
uses (later roots skip embeddings containing an earlier edge).

Symmetry-breaking constraints are passed through unchanged — they are
inequalities on data vertices, independent of which snapshot is being
read — so delta sets compose exactly with full constrained enumeration,
which is what :func:`verify_parity` asserts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.enumeration.backtracking import (
    BacktrackingEnumerator,
    EnumerationStats,
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
    """Delta embeddings for one registered pattern.

    Rooting plans (one matching order per directed pattern edge) are
    computed once at construction; each :meth:`matches_using` call then
    costs only the neighbourhood exploration around the touched edges.
    """

    def __init__(
        self,
        pattern: Pattern,
        constraints: Sequence[tuple[int, int]] | None = None,
    ):
        self.pattern = pattern
        if constraints is None:
            constraints = symmetry_breaking_constraints(pattern)
        self.constraints = list(constraints)
        self._plans = [
            compute_matching_order(pattern, prefix=[u, v])
            for u in pattern.vertices()
            for v in pattern.adj(u)
        ]

    # ------------------------------------------------------------------
    def matches_using(
        self,
        adjacency: Graph,
        edges: Iterable[tuple[int, int]],
        *,
        stats: EnumerationStats | None = None,
    ) -> list[tuple[int, ...]]:
        """Constraint-satisfying embeddings using >= 1 of ``edges``.

        ``edges`` must be canonical ``(a, b)`` with ``a < b`` (the batch
        normalisation in :func:`repro.graph.graph.canonical_edge_array`
        guarantees this).  Each embedding is attributed to the first
        listed edge it uses, so the result contains every qualifying
        embedding exactly once, in (edge, rooting plan, DFS) order.  Each
        rooting plan runs once, with all the edges as one seed block.
        """
        stats = stats or EnumerationStats()
        seeds = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if len(seeds) == 0:
            return []
        runs = [
            BacktrackingEnumerator(
                self.pattern, adjacency, self.constraints, order, stats=stats
            ).run_seeded_block(seeds)
            for order in self._plans
        ]
        edge = np.concatenate([seed_index for seed_index, _ in runs])
        plan = np.repeat(np.arange(len(runs)), [len(e) for e, _ in runs])
        found = np.concatenate([embeddings for _, embeddings in runs])
        # Drop rows using an edge listed before the one they grew from.
        stride = int(max(seeds.max(), found.max(initial=0))) + 1
        listed, first = np.unique(seeds[:, 0] * stride + seeds[:, 1], return_index=True)
        keep = np.ones(len(found), dtype=bool)
        for p, q in self.pattern.edges():
            lo, hi = np.sort(found[:, [p, q]], axis=1).T
            used = lo * stride + hi
            slot = np.searchsorted(listed, used)
            slot[slot == len(listed)] = 0
            keep &= (listed[slot] != used) | (first[slot] >= edge)
        rows = np.flatnonzero(keep)
        rows = rows[np.lexsort((plan[rows], edge[rows]))]
        return list(map(tuple, found[rows].tolist()))

    def delta(
        self,
        old_graph: Graph,
        new_graph: Graph,
        additions: Iterable[tuple[int, int]],
        deletions: Iterable[tuple[int, int]],
        *,
        stats: EnumerationStats | None = None,
    ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """``(added, removed)`` embeddings for one applied batch.

        ``additions``/``deletions`` are the canonical edge batches that
        turned ``old_graph`` into ``new_graph``.  New matches are rooted
        at added edges in the new snapshot; vanished matches at deleted
        edges in the old one.
        """
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
