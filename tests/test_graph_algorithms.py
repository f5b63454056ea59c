"""Unit tests for graph algorithms (BFS, components, triangles, cliques...)."""

import pytest

from repro.graph import (
    Graph,
    bfs_distances,
    connected_components,
    degeneracy_order,
    diameter_lower_bound,
    enumerate_cliques,
    erdos_renyi,
    grid_road_network,
    maximal_cliques,
    multi_source_bfs,
    triangle_count,
    triangles,
)
from repro.graph.algorithms import UNREACHED


@pytest.fixture()
def path_graph():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture()
def two_triangles():
    # Two disjoint triangles.
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestBFS:
    def test_path_distances(self, path_graph):
        assert list(bfs_distances(path_graph, 0)) == [0, 1, 2, 3, 4]

    def test_unreachable(self, two_triangles):
        dist = bfs_distances(two_triangles, 0)
        assert dist[3] == UNREACHED
        assert dist[2] == 1

    def test_multi_source(self, path_graph):
        dist = multi_source_bfs(path_graph, [0, 4])
        assert list(dist) == [0, 1, 2, 1, 0]


class TestComponents:
    def test_connected(self, path_graph):
        assert len(set(connected_components(path_graph))) == 1

    def test_disconnected(self, two_triangles):
        labels = connected_components(two_triangles)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]


class TestDiameter:
    def test_path_diameter_exact(self, path_graph):
        assert diameter_lower_bound(path_graph) == 4

    def test_grid_diameter_grows(self):
        small = grid_road_network(5, 5, extra_edge_prob=0, seed=0)
        large = grid_road_network(15, 15, extra_edge_prob=0, seed=0)
        assert diameter_lower_bound(large) > diameter_lower_bound(small)

    def test_lower_bound_never_exceeds_n(self):
        g = erdos_renyi(50, 0.1, seed=1)
        assert diameter_lower_bound(g) < 50


class TestTriangles:
    def test_triangle_listing(self, two_triangles):
        assert sorted(triangles(two_triangles)) == [(0, 1, 2), (3, 4, 5)]

    def test_count_matches_listing(self):
        g = erdos_renyi(60, 0.15, seed=2)
        assert triangle_count(g) == len(triangles(g))

    def test_triangle_free(self, path_graph):
        assert triangle_count(path_graph) == 0


class TestDegeneracy:
    def test_order_is_permutation(self):
        g = erdos_renyi(40, 0.1, seed=4)
        order = degeneracy_order(g)
        assert sorted(order) == list(range(40))

    def test_path_degeneracy(self, path_graph):
        # A path is 1-degenerate: every prefix removal has a degree-<=1 vertex.
        order = degeneracy_order(path_graph)
        assert len(order) == 5


class TestCliques:
    def test_maximal_cliques_triangle(self, two_triangles):
        cliques = maximal_cliques(two_triangles)
        assert sorted(cliques) == [(0, 1, 2), (3, 4, 5)]

    def test_k4_subcliques(self):
        g = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert maximal_cliques(g) == [(0, 1, 2, 3)]
        size3 = [c for c in enumerate_cliques(g, 3, 4) if len(c) == 3]
        assert len(size3) == 4

    def test_enumerate_min_size(self, two_triangles):
        cliques = enumerate_cliques(two_triangles, min_size=3, max_size=3)
        assert len(cliques) == 2

    def test_cliques_are_cliques(self):
        g = erdos_renyi(30, 0.25, seed=6)
        for clique in enumerate_cliques(g, 3, 4):
            for i, a in enumerate(clique):
                for b in clique[i + 1:]:
                    assert g.has_edge(a, b)
