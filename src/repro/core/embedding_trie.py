"""The embedding trie (paper Sec. 5, Def. 11) as an accounting model.

Intermediate results (embeddings and embedding candidates) form a
collection of trees whose level-``j`` nodes hold the data vertex matched to
the ``j``-th query vertex of the matching order; a node keeps a data vertex,
a parent pointer and a child count, so each leaf is a unique result ID.

No linked structure is built anywhere: a block of rows in depth-first (or
sorted) order *is* that trie (:func:`repro.enumeration.block.first_diff`).
R-Meef accounts for its nodes ``NODE_BYTES`` apiece,
:class:`repro.store.columnar.TrieColumns` persists them column-wise, and
the compression tables count them with :func:`trie_nodes_for_results`.
"""

from __future__ import annotations

import numpy as np

from repro.enumeration.block import first_diff

#: Simulated per-node footprint: 8 B vertex + 8 B parent pointer + 4 B child
#: count, padded.  Used for the compression tables (Tables 3-4) and for
#: memory accounting.
NODE_BYTES = 24

#: Per-result container overhead of the naive embedding-list representation
#: (a variable-length row needs a header/pointer block; e.g. a C++
#: ``std::vector`` costs three pointers on 64-bit).
LIST_ENTRY_OVERHEAD = 24


def embedding_list_bytes(count: int, num_query_vertices: int) -> int:
    """Footprint of the naive embedding-list (EL) representation."""
    return count * (num_query_vertices * 8 + LIST_ENTRY_OVERHEAD)


def trie_nodes_for_results(results) -> int:
    """Nodes an embedding trie needs for ``results`` (prefix-tree size).

    ``results`` is a sequence of equal-length tuples or an ``(n, k)``
    array, in any order, duplicates allowed; results sharing prefixes in
    matching order share trie nodes.  Sorted and deduplicated, each row
    opens one node per column from its :func:`first_diff` on.
    """
    rows = np.asarray(results, dtype=np.int64)
    if rows.size == 0:
        return 0
    rows = np.unique(rows, axis=0)
    return int((rows.shape[1] - first_diff(rows)).sum())
