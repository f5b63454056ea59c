"""Tests for labeled graphs and TurboIso-style labeled enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import block, enumerate_embeddings, labeled_embeddings
from repro.enumeration.backtracking import EnumerationStats
from repro.enumeration.labeled import (
    LabeledEnumerator,
    LabeledPattern,
    candidate_sets,
    labeled_matching_order,
)
from repro.graph import (
    LabeledGraph,
    erdos_renyi,
    label_randomly,
)
from repro.graph.graph import Graph
from repro.query.pattern import Pattern
from repro.query.patterns import path, star, triangle


def brute_force(data: LabeledGraph, query: LabeledPattern):
    """Oracle: unlabeled embeddings filtered by exact label agreement."""
    unlabeled = enumerate_embeddings(
        data.graph.neighbors, data.graph.vertices(), query.pattern
    )
    return {
        emb
        for emb in unlabeled
        if all(data.labels[v] == query.label(u) for u, v in enumerate(emb))
    }


class TestLabeledGraph:
    def test_label_lookup(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        lg = LabeledGraph(g, [5, 7, 5])
        assert lg.labels.tolist() == [5, 7, 5]
        assert list(lg.vertices_with_label(5)) == [0, 2]
        assert list(lg.vertices_with_label(7)) == [1]
        assert list(lg.vertices_with_label(9)) == []

    def test_length_mismatch_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            LabeledGraph(g, [1])

    def test_negative_labels_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            LabeledGraph(g, [0, -1])

    def test_label_frequencies(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        lg = LabeledGraph(g, [0, 0, 1, 0])
        assert lg.label_frequencies() == {0: 3, 1: 1}

    def test_random_labeling_deterministic(self):
        g = erdos_renyi(30, 0.2, seed=3)
        a = label_randomly(g, 4, seed=9)
        b = label_randomly(g, 4, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_weighted_labeling(self):
        g = erdos_renyi(300, 0.02, seed=1)
        lg = label_randomly(g, 3, seed=0, weights={0: 0.8, 1: 0.1, 2: 0.1})
        freq = lg.label_frequencies()
        assert freq[0] > freq[1]
        assert freq[0] > freq[2]

    def test_weighted_labeling_needs_mass(self):
        g = erdos_renyi(10, 0.2, seed=1)
        with pytest.raises(ValueError):
            label_randomly(g, 2, weights={0: 0.0, 1: 0.0})


class TestLabeledPattern:
    def test_basic(self):
        lp = LabeledPattern(triangle(), [1, 2, 1])
        assert lp.label(1) == 2
        assert lp.neighborhood_label_frequency(0) == {2: 1, 1: 1}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledPattern(triangle(), [1, 2])


class TestCandidateFiltering:
    def test_label_filter(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        lg = LabeledGraph(g, [0, 1, 0, 1])
        lp = LabeledPattern(triangle(), [0, 1, 0])
        cands = candidate_sets(lg, lp)
        assert set(int(v) for v in cands[0]) <= {0, 2}
        assert set(int(v) for v in cands[1]) <= {1, 3}

    def test_nlf_prunes_more_than_label_alone(self):
        g = erdos_renyi(120, 0.05, seed=4)
        lg = label_randomly(g, 3, seed=2)
        lp = LabeledPattern(star(3), [0, 1, 1, 1])
        with_nlf = candidate_sets(lg, lp, use_nlf=True)
        without = candidate_sets(lg, lp, use_nlf=False)
        assert len(with_nlf[0]) <= len(without[0])

    def test_matching_order_starts_at_rarest(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        lg = LabeledGraph(g, [0, 0, 0, 0, 9])
        lp = LabeledPattern(path(3), [0, 9, 0])
        cands = candidate_sets(lg, lp)
        order = labeled_matching_order(lp.pattern, cands)
        assert order[0] == 1  # the label-9 vertex has one candidate


class TestLabeledEnumeration:
    def test_matches_brute_force_triangle(self):
        g = erdos_renyi(60, 0.12, seed=8)
        lg = label_randomly(g, 2, seed=5)
        lp = LabeledPattern(triangle(), [0, 1, 0])
        assert set(labeled_embeddings(lg, lp)) == brute_force(lg, lp)

    def test_uniform_labels_reduce_to_unlabeled(self):
        g = erdos_renyi(40, 0.15, seed=2)
        lg = LabeledGraph(g, [0] * g.num_vertices)
        lp = LabeledPattern(triangle(), [0, 0, 0])
        unlabeled = enumerate_embeddings(
            g.neighbors, g.vertices(), triangle()
        )
        assert set(labeled_embeddings(lg, lp)) == set(unlabeled)

    def test_impossible_label_yields_nothing(self):
        g = erdos_renyi(40, 0.2, seed=2)
        lg = label_randomly(g, 2, seed=1)
        lp = LabeledPattern(triangle(), [0, 1, 7])  # label 7 never occurs
        assert labeled_embeddings(lg, lp) == []

    def test_limit(self):
        g = erdos_renyi(60, 0.2, seed=9)
        lg = LabeledGraph(g, [0] * g.num_vertices)
        lp = LabeledPattern(triangle(), [0, 0, 0])
        full = labeled_embeddings(lg, lp)
        assert labeled_embeddings(lg, lp, limit=4) == full[:4]
        # The recursive loop tested the limit only after its first yield.
        assert labeled_embeddings(lg, lp, limit=0) == []

    def test_stats_counted(self):
        g = erdos_renyi(50, 0.15, seed=3)
        lg = label_randomly(g, 2, seed=3)
        lp = LabeledPattern(path(3), [0, 1, 0])
        stats = EnumerationStats()
        labeled_embeddings(lg, lp, stats=stats)
        assert stats.candidates_scanned > 0

    def test_single_vertex_pattern(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        lg = LabeledGraph(g, [4, 4, 5])
        lp = LabeledPattern(Pattern(1, []), [4])
        assert sorted(labeled_embeddings(lg, lp)) == [(0,), (1,)]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        label_seed=st.integers(0, 10_000),
        num_labels=st.integers(1, 4),
    )
    def test_property_matches_brute_force(self, seed, label_seed, num_labels):
        g = erdos_renyi(25, 0.2, seed=seed)
        lg = label_randomly(g, num_labels, seed=label_seed)
        rng = np.random.default_rng(label_seed + 1)
        qlabels = [int(x) for x in rng.integers(0, num_labels, size=3)]
        lp = LabeledPattern(triangle(), qlabels)
        whole = EnumerationStats()
        found = labeled_embeddings(lg, lp, stats=whole)
        assert len(found) == len(set(found))
        assert set(found) == brute_force(lg, lp)
        # One and seven rows per block: chunk ends inside every level.
        for rows_per_block in (1, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(block, "ROWS_PER_BLOCK", rows_per_block)
                chunked = EnumerationStats()
                assert labeled_embeddings(lg, lp, stats=chunked) == found
            assert chunked == whole

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_nlf_never_changes_results(self, seed):
        g = erdos_renyi(30, 0.18, seed=seed)
        lg = label_randomly(g, 3, seed=seed + 1)
        lp = LabeledPattern(path(4), [0, 1, 2, 0])
        with_nlf = set(LabeledEnumerator(lg, lp, use_nlf=True).run())
        without = set(LabeledEnumerator(lg, lp, use_nlf=False).run())
        assert with_nlf == without
