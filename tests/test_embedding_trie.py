"""Tests for the embedding trie's node accounting (paper Sec. 5)."""

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

    def test_root_dedup(self):
        assert trie_nodes_for_results([(7,), (7,)]) == 1
        assert trie_nodes_for_results([(7, 1), (7, 2), (7, 1)]) == 3

    def test_unique_leaf_ids(self):
        columns = TrieColumns.from_embeddings([(0, 1), (0, 2)], 2)
        assert columns.leaf_count == 2
        assert columns.parents[1].tolist() == [0, 0]  # two leaves, one parent

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
    @settings(max_examples=60, deadline=None)
    @given(
        paths=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            min_size=1, max_size=30,
        )
    )
    def test_node_counts_agree_on_unsorted_input_with_duplicates(self, paths):
        """The array count, the columnar layout and the set of prefixes."""
        expected = prefix_set_size(paths)
        assert trie_nodes_for_results(paths) == expected
        assert TrieColumns.from_embeddings(paths, 3).node_count == expected
