"""Tests for automorphisms and symmetry-breaking constraints."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.query import Pattern, automorphisms, symmetry_breaking_constraints
from repro.query.patterns import (
    PAPER_QUERIES,
    clique,
    domino,
    k33,
    path,
    square,
    star,
    triangle,
)
from repro.query.symmetry import bound_columns, satisfies_constraints


class TestAutomorphisms:
    @pytest.mark.parametrize("pattern,count", [
        (triangle(), 6),
        (square(), 8),
        (path(3), 2),
        (path(4), 2),
        (star(3), 6),
        (clique(4), 24),
        (clique(5), 120),
        (k33(), 72),
        (domino(), 4),
    ])
    def test_group_order(self, pattern, count):
        assert len(automorphisms(pattern)) == count

    def test_identity_always_present(self):
        for p in (triangle(), square(), domino()):
            assert tuple(range(p.num_vertices)) in automorphisms(p)

    def test_automorphisms_preserve_edges(self):
        p = domino()
        for sigma in automorphisms(p):
            for u, v in p.edges():
                assert p.has_edge(sigma[u], sigma[v])


class TestConstraints:
    def test_triangle_total_order(self):
        cons = symmetry_breaking_constraints(triangle())
        # K3's constraints must totally order all three vertices.
        assert len(cons) == 3

    def test_asymmetric_pattern_no_constraints(self):
        # A pattern with trivial automorphism group needs no constraints:
        # a triangle with tails of lengths 2, 1 and 0 on its corners.
        p = Pattern(
            6, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (1, 5)],
            name="asymmetric",
        )
        assert len(automorphisms(p)) == 1
        assert symmetry_breaking_constraints(p) == []

    def test_satisfies(self):
        cons = [(0, 1), (1, 2)]
        assert satisfies_constraints((1, 5, 9), cons)
        assert not satisfies_constraints((5, 1, 9), cons)


def _small_connected_patterns():
    """Hypothesis strategy for small connected patterns."""
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=6))
        # Random spanning tree guarantees connectivity.
        edges = set()
        for v in range(1, n):
            parent = draw(st.integers(min_value=0, max_value=v - 1))
            edges.add((parent, v))
        extra = draw(
            st.sets(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] < e[1]),
                max_size=6,
            )
        )
        edges |= extra
        return Pattern(n, sorted(edges))
    return build()


class TestSymmetryFactorProperty:
    """The defining property: constraints keep exactly one embedding per
    automorphism orbit, so count_constrained * |Aut| == count_unconstrained."""

    @settings(max_examples=40, deadline=None)
    @given(pattern=_small_connected_patterns(), seed=st.integers(0, 10))
    def test_factor(self, pattern, seed):
        from repro.enumeration import enumerate_embeddings
        from repro.graph import erdos_renyi

        graph = erdos_renyi(25, 0.25, seed=seed)
        cons = symmetry_breaking_constraints(pattern)
        free = enumerate_embeddings(
            graph.neighbors, graph.vertices(), pattern, []
        )
        constrained = enumerate_embeddings(
            graph.neighbors, graph.vertices(), pattern, cons
        )
        assert len(free) == len(constrained) * len(automorphisms(pattern))


class TestBoundColumns:
    """Constraints compiled per position of a matching order, once for every kernel."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bounds_hold_at_every_position_iff_the_constraints_hold(self, seed):
        import random

        rng = random.Random(seed)
        pattern = rng.choice(list(PAPER_QUERIES.values()))
        constraints = symmetry_breaking_constraints(pattern)
        k = pattern.num_vertices
        order = rng.sample(range(k), k)
        lower, upper = bound_columns(constraints, order)
        assert sum(map(len, lower)) + sum(map(len, upper)) == len(constraints)
        assert all(c < q for q in range(k) for c in lower[q] + upper[q])
        for _ in range(20):
            row = rng.sample(range(3 * k), k)  # images, in matching order
            embedding = tuple(row[order.index(u)] for u in range(k))
            bounded = all(
                all(row[c] < row[q] for c in lower[q])
                and all(row[q] < row[c] for c in upper[q])
                for q in range(k)
            )
            assert bounded == satisfies_constraints(embedding, constraints)
