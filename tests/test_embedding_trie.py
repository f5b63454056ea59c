"""Tests for the embedding trie (paper Sec. 5)."""

from hypothesis import given, settings, strategies as st

from repro.core.embedding_trie import (
    NODE_BYTES,
    EmbeddingTrie,
    embedding_list_bytes,
    trie_from_paths,
    trie_nodes_for_results,
)


class TestBasicOperations:
    def test_paper_example(self):
        """Example 6 / Fig. 5: three ECs sharing prefixes."""
        trie, leaves = trie_from_paths([(0, 1, 2), (0, 1, 9), (0, 9, 11)])
        assert trie.num_roots == 1
        assert trie.num_nodes == 6  # 0; 1, 9; 2, 9, 11
        assert [leaf.path() for leaf in leaves] == [
            [0, 1, 2], [0, 1, 9], [0, 9, 11]
        ]

    def test_removal_cascade(self):
        trie, (a, _) = trie_from_paths([(0, 1, 2), (0, 3, 4)])
        assert trie.num_nodes == 5
        removed = trie.remove_leaf(a)
        # Leaf 2 and its now-childless parent 1 go; the root survives
        # because the (0, 3, 4) branch still hangs off it.
        assert removed == 2
        assert trie.num_nodes == 3
        assert trie.num_roots == 1

    def test_remove_last_result_empties_trie(self):
        trie, (leaf,) = trie_from_paths([(3, 4, 5)])
        assert trie.num_nodes == 3
        assert trie.remove_leaf(leaf) == 3
        assert trie.num_nodes == 0
        assert trie.num_roots == 0

    def test_root_dedup(self):
        trie = EmbeddingTrie()
        r1 = trie.add_root(7)
        r2 = trie.add_root(7)
        assert r1 is r2
        assert trie.num_nodes == 1

    def test_unique_leaf_ids(self):
        trie, (a, b) = trie_from_paths([(0, 1), (0, 2)])
        assert a is not b
        assert a.parent is b.parent

    def test_depth(self):
        _, (leaf,) = trie_from_paths([(5, 6, 7, 8)])
        assert leaf.depth() == 3

    def test_memory_bytes(self):
        trie, _ = trie_from_paths([(0, 1, 2)])
        assert trie.memory_bytes() == 3 * NODE_BYTES


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
            min_size=1, max_size=20, unique=True,
        )
    )
    def test_insert_then_remove_all_is_empty(self, paths):
        """Inserting distinct results then removing them empties the trie."""
        trie = EmbeddingTrie()
        # Insert with prefix sharing via a manual prefix map (the R-Meef
        # expansion guarantees sibling uniqueness; we emulate it here).
        index: dict[tuple, object] = {}
        leaves = []
        for path in paths:
            node = None
            for i, v in enumerate(path):
                key = path[: i + 1]
                if key in index:
                    node = index[key]
                else:
                    node = (
                        trie.add_root(v) if node is None
                        else trie.add_child(node, v)
                    )
                    index[key] = node
            leaves.append(index[path])
        expected_nodes = len({p[: i + 1] for p in paths for i in range(3)})
        assert trie.num_nodes == expected_nodes
        for leaf in leaves:
            trie.remove_leaf(leaf)
        assert trie.num_nodes == 0

    @settings(max_examples=30, deadline=None)
    @given(
        paths=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1, max_size=10, unique=True,
        )
    )
    def test_paths_roundtrip(self, paths):
        trie = EmbeddingTrie()
        index: dict[tuple, object] = {}
        leaves = {}
        for path in paths:
            node = None
            for i, v in enumerate(path):
                key = path[: i + 1]
                if key not in index:
                    index[key] = (
                        trie.add_root(v) if node is None
                        else trie.add_child(node, v)
                    )
                node = index[key]
            leaves[path] = node
        for path, leaf in leaves.items():
            assert tuple(leaf.path()) == path
