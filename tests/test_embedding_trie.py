"""Tests for the embedding trie's node accounting (paper Sec. 5).

No linked trie is built any more: a result set's trie is counted
(:func:`trie_nodes_for_results`) or laid out column-wise
(:class:`TrieColumns`), and a removal is the difference between two counts.
"""

from hypothesis import given, settings, strategies as st

from repro.core.embedding_trie import (
    NODE_BYTES,
    embedding_list_bytes,
    trie_nodes_for_results,
)
from repro.store import TrieColumns


def prefix_set_size(results) -> int:
    """Reference count: one node per distinct non-empty prefix."""
    return len({emb[:i] for emb in results for i in range(1, len(emb) + 1)})


class TestBasicOperations:
    def test_paper_example(self):
        """Example 6 / Fig. 5: three ECs sharing prefixes."""
        paths = [(0, 1, 2), (0, 1, 9), (0, 9, 11)]
        assert trie_nodes_for_results(paths) == 6  # 0; 1, 9; 2, 9, 11
        columns = TrieColumns.from_embeddings(paths, 3)
        assert [len(level) for level in columns.values] == [1, 2, 3]
        assert columns.decompress_all() == paths

    def test_removal_cascade(self):
        assert trie_nodes_for_results([(0, 1, 2), (0, 3, 4)]) == 5
        # Without (0, 1, 2): leaf 2 and its now-childless parent 1 go; the
        # root survives because the (0, 3, 4) branch still hangs off it.
        assert trie_nodes_for_results([(0, 3, 4)]) == 3

    def test_remove_last_result_empties_trie(self):
        assert trie_nodes_for_results([(3, 4, 5)]) == 3
        assert TrieColumns.from_embeddings([], 3).node_count == 0

    def test_root_dedup(self):
        assert trie_nodes_for_results([(7,), (7,)]) == 1
        assert trie_nodes_for_results([(7, 1), (7, 2), (7, 1)]) == 3

    def test_unique_leaf_ids(self):
        columns = TrieColumns.from_embeddings([(0, 1), (0, 2)], 2)
        assert columns.leaf_count == 2
        assert columns.parents[1].tolist() == [0, 0]  # two leaves, one parent

    def test_depth(self):
        columns = TrieColumns.from_embeddings([(5, 6, 7, 8)], 4)
        assert columns.depth == 4
        assert [len(level) for level in columns.values] == [1, 1, 1, 1]

    def test_memory_bytes(self):
        columns = TrieColumns.from_embeddings([(0, 1, 2)], 3)
        assert columns.memory_bytes() == 3 * NODE_BYTES


class TestCompressionAccounting:
    def test_shared_prefix_compresses(self):
        results = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
        assert trie_nodes_for_results(results) == 5  # 0,1 shared; 2,3,4
        # Each EL row pays the vertex ids plus the container overhead.
        assert embedding_list_bytes(3, 3) == 3 * (3 * 8 + 24)

    def test_disjoint_results_no_compression(self):
        results = [(0, 1), (2, 3), (4, 5)]
        assert trie_nodes_for_results(results) == 6

    def test_empty(self):
        assert trie_nodes_for_results([]) == 0


class TestTrieProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        paths=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            min_size=1, max_size=20,
        )
    )
    def test_insert_then_remove_all_is_empty(self, paths):
        """Unsorted input with duplicates: the array count and the columnar
        layout agree with the set of prefixes while the results are removed
        one by one, down to the empty trie."""
        while paths:
            expected = prefix_set_size(paths)
            assert trie_nodes_for_results(paths) == expected
            assert TrieColumns.from_embeddings(paths, 3).node_count == expected
            paths = paths[1:]
        assert trie_nodes_for_results(paths) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        paths=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1, max_size=10, unique=True,
        )
    )
    def test_paths_roundtrip(self, paths):
        columns = TrieColumns.from_embeddings(paths, 2)
        assert columns.decompress_all() == sorted(paths)
