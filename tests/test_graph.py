"""Unit tests for the Graph core (CSR storage, builder, IO)."""

import numpy as np
import pytest

from repro.graph import Graph, GraphBuilder, load_adjacency_text, save_adjacency_text


class TestGraphConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_vertices == 4
        assert g.num_edges == 3

    def test_neighbors_sorted(self):
        g = Graph.from_edges(5, [(2, 0), (2, 4), (2, 1), (2, 3)])
        assert list(g.neighbors(2)) == [0, 1, 3, 4]

    def test_duplicate_edges_collapsed(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_empty_graph(self):
        g = Graph.from_edges(3, [])
        assert g.num_vertices == 3
        assert g.num_edges == 0
        assert len(g.neighbors(0)) == 0

    def test_from_adjacency(self):
        g = Graph.from_adjacency([[1, 2], [0], [0]])
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_symmetry(self):
        g = Graph.from_edges(4, [(0, 3), (1, 2)])
        for u, v in [(0, 3), (3, 0), (1, 2), (2, 1)]:
            assert g.has_edge(u, v)
        assert not g.has_edge(0, 1)


class TestGraphAccessors:
    def test_degree(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        assert list(g.degrees()) == [3, 1, 1, 1]

    def test_edges_iterated_once(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        g = Graph.from_edges(3, edges)
        assert sorted(g.edges()) == sorted(edges)

    def test_average_degree(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.average_degree() == 2.0

    def test_storage_bytes_positive(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert g.storage_bytes() > 0

    def test_equality_and_hash(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)


class TestHasEdges:
    def test_matches_scalar_has_edge_on_every_pair(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (2, 3), (5, 6)])
        us, vs = np.divmod(np.arange(49), 7)
        expected = [g.has_edge(int(u), int(v)) for u, v in zip(us, vs)]
        assert g.has_edges(us, vs).tolist() == expected

    def test_edgeless_and_empty_queries(self):
        g = Graph.from_edges(3, [])
        assert g.has_edges(np.array([0, 1]), np.array([1, 2])).tolist() == [
            False, False,
        ]
        full = Graph.from_edges(3, [(0, 1)])
        empty = np.empty(0, dtype=np.int64)
        assert full.has_edges(empty, empty).shape == (0,)

    def test_key_index_is_frozen_and_survives_a_pickle(self):
        import pickle

        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert g.has_edges(np.array([1]), np.array([2])).all()
        with pytest.raises(ValueError):
            g.edge_keys()[0] = 7
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert clone.has_edges(np.array([3, 0]), np.array([4, 4])).tolist() == [
            True, False,
        ]

    def test_out_of_range_ids_are_not_edges(self):
        # (0, 7) has the key of (1, 0), (1, -6) that of (0, 1), ...: an
        # id outside [0, |V|) must never alias a stored edge.
        g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 5), (5, 6)])
        us = np.array([0, 0, 1, -1, 7, 1, 0, 5])
        vs = np.array([7, 8, -6, 8, 1, 12, 1, 6])
        assert g.has_edges(us, vs).tolist() == [False] * 6 + [True, True]


class TestSubgraph:
    def test_induced_subgraph(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        sub, remap = g.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # (0,1), (1,2) survive; (4,0) does not
        assert remap[0] == 0 and remap[2] == 2

    def test_subgraph_relabels_densely(self):
        g = Graph.from_edges(6, [(2, 5), (5, 4)])
        sub, remap = g.subgraph([2, 4, 5])
        assert set(remap.values()) == {0, 1, 2}
        assert sub.has_edge(remap[2], remap[5])


class TestGraphBuilder:
    def test_incremental(self):
        b = GraphBuilder()
        assert b.add_edge(0, 5)
        assert not b.add_edge(5, 0)  # duplicate
        assert b.num_vertices == 6
        g = b.build()
        assert g.num_edges == 1

    def test_add_vertex(self):
        b = GraphBuilder(2)
        vid = b.add_vertex()
        assert vid == 2
        assert b.build().num_vertices == 3

    def test_self_loop_rejected(self):
        b = GraphBuilder()
        with pytest.raises(ValueError):
            b.add_edge(1, 1)

    def test_has_edge(self):
        b = GraphBuilder()
        b.add_edge(0, 1)
        assert b.has_edge(1, 0)
        assert not b.has_edge(0, 2)


class TestIO:
    def test_roundtrip(self, tmp_path):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
        path = tmp_path / "g.adj"
        nbytes = save_adjacency_text(g, path)
        assert nbytes > 0
        g2 = load_adjacency_text(path)
        assert g == g2

    def test_isolated_vertices_preserved(self, tmp_path):
        g = Graph.from_edges(4, [(0, 1)])
        path = tmp_path / "g.adj"
        save_adjacency_text(g, path)
        g2 = load_adjacency_text(path)
        assert g2.num_vertices == 4
        assert g2.num_edges == 1


class TestExtendedIO:
    def test_edge_list_roundtrip(self, tmp_path):
        from repro.graph.io import load_edge_list, save_edge_list

        g = Graph.from_edges(6, [(0, 1), (2, 5), (3, 4)])
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        assert load_edge_list(path) == g

    def test_edge_list_header_preserves_isolated(self, tmp_path):
        from repro.graph.io import load_edge_list, save_edge_list

        g = Graph.from_edges(10, [(0, 1)])
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        assert load_edge_list(path).num_vertices == 10

    def test_edge_list_skips_comments_and_self_loops(self, tmp_path):
        from repro.graph.io import load_edge_list

        path = tmp_path / "g.edges"
        path.write_text("# a comment\n0 1\n1 1\n2 0\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_binary_roundtrip(self, tmp_path):
        from repro.graph.io import load_binary, save_binary

        g = Graph.from_edges(8, [(0, 1), (1, 2), (6, 7)])
        path = tmp_path / "g.npz"
        nbytes = save_binary(g, path)
        assert nbytes > 0
        assert load_binary(path) == g
