"""Columnar embedding-trie layout: the Def. 11 trie as NumPy arrays.

:class:`TrieColumns` flattens a collected result set into the paper's
embedding trie (Sec. 5) and stores it column-wise: level ``j`` keeps one
``int64`` entry per *distinct* length-``j+1`` prefix — its data vertex in
``values[j]`` and the index of its parent (a level ``j-1`` node) in
``parents[j]``.  That is exactly the (vertex, parent-pointer) pair of
Def. 11 with the child count implied by the parent array, so
``node_count`` matches :func:`~repro.core.embedding_trie.trie_nodes_for_results`
and the Tables 3-4 ``NODE_BYTES`` accounting carries over unchanged.

The layout doubles as an index.  Leaves are kept in lexicographic order
of their embedding tuples (the *sorted leaf order*), which makes every
trie node own a **contiguous** leaf range: all embeddings sharing a
prefix are adjacent once sorted.  From the parent arrays alone we derive
``leaf_begin``/``leaf_end`` per node, and per-level value orderings give
inverted postings.  Every serve-side operation is then a range scan:

- ``page(offset, limit)`` — decompress one contiguous leaf slice by
  chasing parent pointers with vectorized gathers (no full scan);
- ``lookup(v)`` — per-level binary search for nodes matching ``v``,
  union of their (disjoint — embeddings are injective) leaf ranges;
- ``aggregate`` — group sizes read off node ranges without touching
  leaves at all.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.embedding_trie import NODE_BYTES
from repro.enumeration.block import first_diff

__all__ = ["TrieColumns"]

#: Allowed ``group_by`` modes for :meth:`TrieColumns.aggregate`.
AGGREGATE_MODES = ("root", "vertex", "orbit")


class TrieColumns:
    """A result set flattened to per-level vertex + parent columns.

    Construct with :meth:`from_embeddings` (sorts and deduplicates) or
    :meth:`from_arrays` (trusted columns, e.g. loaded from disk).  The
    embedding tuples themselves are never materialized except by the
    explicit ``decompress_*`` calls.
    """

    def __init__(
        self,
        values: "list[np.ndarray]",
        parents: "list[np.ndarray]",
    ):
        if len(values) != len(parents):
            raise ValueError("values/parents level count mismatch")
        if not values:
            raise ValueError("at least one level required")
        self.values = values
        self.parents = parents
        self.depth = len(values)
        #: Leaves are the deepest level's nodes; embeddings are unique,
        #: so leaf count == node count at the last level.
        self.leaf_count = int(values[-1].shape[0])
        self._build_ranges()
        self._postings: "list[tuple[np.ndarray, np.ndarray]] | None" = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_embeddings(
        cls, embeddings: Sequence[tuple[int, ...]], num_vertices: int
    ) -> "TrieColumns":
        """Flatten ``embeddings`` (tuples of ``num_vertices`` data
        vertices) into sorted columnar form.  Duplicates collapse, order
        is discarded: the canonical leaf order is lexicographic."""
        if num_vertices < 1:
            raise ValueError("num_vertices must be >= 1")
        rows = np.asarray(list(embeddings), dtype=np.int64)
        if rows.size == 0:
            rows = rows.reshape(0, num_vertices)
        if rows.ndim != 2 or rows.shape[1] != num_vertices:
            raise ValueError(
                f"embeddings must be {num_vertices}-tuples, "
                f"got array shape {rows.shape}"
            )
        # np.unique(axis=0) both sorts lexicographically and drops
        # duplicate rows — the two invariants the layout needs.
        rows = np.unique(rows, axis=0)
        # A sorted row opens a node at every level from its first_diff on:
        # level j's nodes are the distinct (j+1)-prefixes.
        diff = first_diff(rows)
        values: list[np.ndarray] = []
        parents: list[np.ndarray] = []
        # node_of[i] = index (at the level above) of the node owning row i.
        node_of = np.zeros(len(rows), dtype=np.int64)
        for level in range(num_vertices):
            new = diff <= level
            starts = np.flatnonzero(new)
            values.append(np.ascontiguousarray(rows[starts, level]))
            parents.append(np.ascontiguousarray(node_of[starts]))
            node_of = np.cumsum(new, dtype=np.int64) - 1
        return cls(values, parents)

    @classmethod
    def from_arrays(
        cls,
        values: "Iterable[np.ndarray]",
        parents: "Iterable[np.ndarray]",
    ) -> "TrieColumns":
        """Rebuild from persisted columns (validates shapes/monotonicity)."""
        values = [np.asarray(v, dtype=np.int64) for v in values]
        parents = [np.asarray(p, dtype=np.int64) for p in parents]
        if len(values) != len(parents):
            raise ValueError("values/parents level count mismatch")
        for level, (vals, pars) in enumerate(zip(values, parents)):
            if vals.shape != pars.shape or vals.ndim != 1:
                raise ValueError(f"level {level}: malformed columns")
            if level == 0:
                if pars.size and (pars != 0).any():
                    raise ValueError("level 0 nodes must have parent 0")
            else:
                if pars.size and (
                    (np.diff(pars) < 0).any()
                    or pars[0] != 0
                    or pars[-1] != len(values[level - 1]) - 1
                ):
                    raise ValueError(
                        f"level {level}: parent pointers must be "
                        f"nondecreasing and cover the parent level"
                    )
        return cls(values, parents)

    # -- derived indexes ------------------------------------------------
    def _build_ranges(self) -> None:
        """Per-node contiguous leaf ranges, bottom-up from parents."""
        n = self.leaf_count
        self.leaf_begin: list[np.ndarray] = [None] * self.depth  # type: ignore[list-item]
        self.leaf_end: list[np.ndarray] = [None] * self.depth  # type: ignore[list-item]
        self.leaf_begin[-1] = np.arange(n, dtype=np.int64)
        self.leaf_end[-1] = np.arange(1, n + 1, dtype=np.int64)
        for level in range(self.depth - 2, -1, -1):
            node_ids = np.arange(len(self.values[level]), dtype=np.int64)
            child_parents = self.parents[level + 1]
            first = np.searchsorted(child_parents, node_ids, side="left")
            last = np.searchsorted(child_parents, node_ids, side="right")
            self.leaf_begin[level] = self.leaf_begin[level + 1][first]
            # last child's end; every node has >= 1 child by construction
            self.leaf_end[level] = self.leaf_end[level + 1][last - 1]

    def _level_postings(self) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per level, the node values sorted and their stable argsort
        (inverted postings: ``sorted[i] == values[order[i]]``)."""
        if self._postings is None:
            orders = [np.argsort(vals, kind="stable") for vals in self.values]
            self._postings = [
                (vals[order], order) for vals, order in zip(self.values, orders)
            ]
        return self._postings

    # -- accounting -----------------------------------------------------
    @property
    def node_count(self) -> int:
        """Total trie nodes — equals ``trie_nodes_for_results``."""
        return sum(int(v.shape[0]) for v in self.values)

    def memory_bytes(self) -> int:
        """Simulated Def. 11 footprint (Tables 3-4 accounting)."""
        return self.node_count * NODE_BYTES

    # -- decompression --------------------------------------------------
    def decompress_leaves(self, leaf_ids: np.ndarray) -> "list[tuple[int, ...]]":
        """Embedding tuples for the given sorted-leaf indices (any order)."""
        leaf_ids = np.asarray(leaf_ids, dtype=np.int64)
        out = np.empty((leaf_ids.shape[0], self.depth), dtype=np.int64)
        node = leaf_ids
        for level in range(self.depth - 1, -1, -1):
            out[:, level] = self.values[level][node]
            node = self.parents[level][node]
        return list(map(tuple, out.tolist()))

    def decompress_range(self, offset: int, limit: "int | None" = None):
        """One contiguous page of the sorted leaf order."""
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        stop = self.leaf_count if limit is None else min(
            self.leaf_count, offset + limit
        )
        return self.decompress_leaves(
            np.arange(min(offset, stop), stop, dtype=np.int64)
        )

    def decompress_all(self) -> "list[tuple[int, ...]]":
        """The full result set in sorted leaf order."""
        return self.decompress_range(0)

    # -- index scans ----------------------------------------------------
    def lookup_leaves(self, vertex: int) -> np.ndarray:
        """Sorted leaf ids of embeddings containing data vertex ``vertex``.

        Embeddings are injective (subgraph isomorphism), so a vertex
        appears at most once per embedding and per-level node ranges are
        pairwise disjoint — the union is a plain concatenation, expanded
        for all ranges at once (a range is a run of consecutive leaf ids).
        """
        nodes = [
            order[vals.searchsorted(vertex, "left"):
                  vals.searchsorted(vertex, "right")]
            for vals, order in self._level_postings()
        ]
        begins = np.concatenate([b[n] for b, n in zip(self.leaf_begin, nodes)])
        ends = np.concatenate([e[n] for e, n in zip(self.leaf_end, nodes)])
        lengths = ends - begins
        leaves = np.arange(int(lengths.sum()), dtype=np.int64)
        leaves += np.repeat(begins - (np.cumsum(lengths) - lengths), lengths)
        leaves.sort()
        return leaves

    def lookup(self, vertex: int) -> "list[tuple[int, ...]]":
        """Embeddings containing ``vertex``, in sorted leaf order."""
        return self.decompress_leaves(self.lookup_leaves(int(vertex)))

    def vertex_counts(self, levels: Iterable[int]) -> "dict[str, int]":
        """Embeddings per data vertex matched at any of ``levels``: the
        node leaf-range sizes summed per vertex (an index scan; leaves
        are never decompressed, and injectivity makes the sum exact).
        Keys are strings (JSON object keys on the wire)."""
        chunks_v: list[np.ndarray] = []
        chunks_c: list[np.ndarray] = []
        for level in levels:
            chunks_v.append(self.values[level])
            chunks_c.append(self.leaf_end[level] - self.leaf_begin[level])
        if not chunks_v:
            return {}
        vertices = np.concatenate(chunks_v)
        counts = np.concatenate(chunks_c)
        uniq, inverse = np.unique(vertices, return_inverse=True)
        sums = np.bincount(inverse, weights=counts, minlength=len(uniq))
        return {
            str(v): c
            for v, c in zip(uniq.tolist(), sums.astype(np.int64).tolist())
            if c != 0
        }
