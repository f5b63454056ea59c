"""The embedding trie (paper Sec. 5, Def. 11).

Intermediate results (embeddings and embedding candidates) are stored as a
collection of trees whose level-``j`` nodes hold the data vertex matched to
the ``j``-th query vertex of the matching order.  Nodes keep only a data
vertex, a parent pointer and a child count — exactly the fields of Def. 11 —
so removal is a cascade up the parent chain and each leaf is a unique
result ID.

This is the linked form, used for the compression tables and the store's
round trip.  R-Meef itself (:mod:`repro.core.rmeef`) keeps the same trie as
the rows of a block in depth-first order and only *accounts* for its nodes,
``NODE_BYTES`` apiece.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: Simulated per-node footprint: 8 B vertex + 8 B parent pointer + 4 B child
#: count, padded.  Used for the compression tables (Tables 3-4) and for
#: memory accounting.
NODE_BYTES = 24

#: Per-result container overhead of the naive embedding-list representation
#: (a variable-length row needs a header/pointer block; e.g. a C++
#: ``std::vector`` costs three pointers on 64-bit).
LIST_ENTRY_OVERHEAD = 24


class TrieNode:
    """One embedding-trie node."""

    __slots__ = ("v", "parent", "child_count")

    def __init__(self, v: int, parent: "TrieNode | None"):
        self.v = v
        self.parent = parent
        self.child_count = 0

    def path(self) -> list[int]:
        """Data vertices from the root down to (and including) this node."""
        values: list[int] = []
        node: TrieNode | None = self
        while node is not None:
            values.append(node.v)
            node = node.parent
        values.reverse()
        return values

    def depth(self) -> int:
        """Level of the node (root = 0)."""
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth


class EmbeddingTrie:
    """A forest of :class:`TrieNode` trees with memory accounting hooks."""

    def __init__(self) -> None:
        self._roots: dict[int, TrieNode] = {}
        self.num_nodes = 0

    # ------------------------------------------------------------------
    @property
    def num_roots(self) -> int:
        """Number of trees (distinct first-vertex matches)."""
        return len(self._roots)

    def memory_bytes(self) -> int:
        """Simulated footprint of the trie."""
        return self.num_nodes * NODE_BYTES

    def roots(self) -> Iterator[TrieNode]:
        """Iterate root nodes."""
        return iter(self._roots.values())

    # ------------------------------------------------------------------
    def add_root(self, v: int) -> TrieNode:
        """Fetch-or-create the root for first-level vertex ``v``."""
        node = self._roots.get(v)
        if node is None:
            node = TrieNode(v, None)
            self._roots[v] = node
            self.num_nodes += 1
        return node

    def add_child(self, parent: TrieNode, v: int) -> TrieNode:
        """Create a child node.

        Expansion code guarantees sibling values are distinct (the
        backtracking enumeration never revisits a candidate), which upholds
        Def. 11 condition (3) without storing a children map.
        """
        node = TrieNode(v, parent)
        parent.child_count += 1
        self.num_nodes += 1
        return node

    def remove_leaf(self, leaf: TrieNode) -> int:
        """Remove a result; cascades up while parents lose their last child.

        Returns the number of nodes removed (for memory release).
        """
        removed = 0
        node: TrieNode | None = leaf
        while node is not None and node.child_count == 0:
            parent = node.parent
            if parent is None:
                if self._roots.get(node.v) is node:
                    del self._roots[node.v]
            else:
                parent.child_count -= 1
            node.parent = None
            removed += 1
            node = parent
        self.num_nodes -= removed
        return removed


def trie_from_paths(
    paths: Iterable[tuple[int, ...]],
) -> "tuple[EmbeddingTrie, list[TrieNode]]":
    """Build a prefix-sharing trie from root-to-leaf paths.

    The trie itself stores no child maps (Def. 11), so construction keeps
    an external prefix index.  Returns the trie and one leaf node per *distinct*
    path, in first-seen order.  All paths must have the same length.
    """
    trie = EmbeddingTrie()
    index: dict[tuple[int, ...], TrieNode] = {}
    leaves: list[TrieNode] = []
    depth: int | None = None
    for path in paths:
        path = tuple(path)
        if not path:
            raise ValueError("empty path")
        if depth is None:
            depth = len(path)
        elif len(path) != depth:
            raise ValueError(
                f"ragged paths: expected length {depth}, got {len(path)}"
            )
        if path in index:
            continue
        node = index.get(path[:1])
        if node is None:
            node = trie.add_root(path[0])
            index[path[:1]] = node
        for i in range(2, len(path) + 1):
            prefix = path[:i]
            child = index.get(prefix)
            if child is None:
                child = trie.add_child(node, prefix[-1])
                index[prefix] = child
            node = child
        leaves.append(node)
    return trie, leaves


def embedding_list_bytes(count: int, num_query_vertices: int) -> int:
    """Footprint of the naive embedding-list (EL) representation."""
    return count * (num_query_vertices * 8 + LIST_ENTRY_OVERHEAD)


def trie_nodes_for_results(results: list[tuple[int, ...]]) -> int:
    """Nodes an embedding trie needs for ``results`` (prefix-tree size).

    Used by the compression experiment (Tables 3-4): results sharing
    prefixes in matching order share trie nodes.
    """
    seen: set[tuple[int, ...]] = set()
    for emb in results:
        for i in range(1, len(emb) + 1):
            seen.add(emb[:i])
    return len(seen)
