"""The shared block step against a per-row Python reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.enumeration import block
from repro.graph import erdos_renyi


def reference_step(graph, rows, decided, lower, upper):
    """One row at a time: intersect sorted lists, then bound and extend."""
    pairs, costs, extended = [], [], []
    for i, row in enumerate(rows):
        cands = graph.neighbors(row[0]).tolist()
        cost = 0
        for j, other in enumerate(row[1:]):
            if decided[i][j]:
                cost += min(len(cands), graph.degree(other))
                cands = [c for c in cands if graph.has_edge(other, c)]
        pairs += [(i, c) for c in cands]
        costs.append(cost)
        extended += [
            [*row, c] for c in cands
            if all(c > row[p] for p in lower)
            and all(c < row[p] for p in upper)
            and c not in row
        ]
    return pairs, costs, extended


class TestBlockStep:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        width=st.integers(1, 3),
        known_share=st.floats(0.0, 1.0),
        lower=st.sets(st.integers(0, 2)),
        upper=st.sets(st.integers(0, 2)),
    )
    def test_one_step_equals_the_row_by_row_reference(
        self, seed, width, known_share, lower, upper
    ):
        graph = erdos_renyi(16, 0.35, seed=seed)
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, graph.num_vertices, size=(9, width))
        decided = rng.random((9, width - 1)) < known_share
        lower = sorted(p for p in lower if p < width)
        upper = sorted(p for p in upper if p < width)
        pairs, costs, extended = reference_step(
            graph, rows.tolist(), decided.tolist(), lower, upper
        )

        row, cand = block.neighbors(graph, rows[:, 0])
        row, cand, cost = block.member(graph, rows[:, 1:], row, cand, decided)
        assert list(zip(row.tolist(), cand.tolist())) == pairs
        assert cost.tolist() == costs
        row, cand = block.bounded(rows, row, cand, lower, upper)
        keep = block.injective(rows, row, cand)
        assert block.append(rows, row[keep], cand[keep]).tolist() == extended

    def test_no_decided_mask_means_every_edge_is_tested(self):
        graph = erdos_renyi(16, 0.35, seed=3)
        rows = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        pairs = block.neighbors(graph, rows[:, 0])
        plain = block.member(graph, rows[:, 1:], *pairs)
        masked = block.member(graph, rows[:, 1:], *pairs, np.ones((3, 2), bool))
        for got, want in zip(plain, masked):
            assert got.tolist() == want.tolist()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), width=st.integers(0, 4))
    def test_bounds_as_per_row_masks_equal_bounds_as_column_lists(self, seed, width):
        # Rows of several matching orders in one block: each row is bound by
        # its own columns; a row no column binds keeps every pair.
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 30, size=(8, width))
        row, cand = np.repeat(np.arange(8), 5), rng.integers(0, 30, size=40)
        lower, upper = rng.random((2, 8, width)) < 0.4
        got = block.bounded(rows, row, cand, lower, upper)
        keep = [
            all(c > rows[r, j] for j in np.flatnonzero(lower[r]))
            and all(c < rows[r, j] for j in np.flatnonzero(upper[r]))
            for r, c in zip(row.tolist(), cand.tolist())
        ]
        assert got[0].tolist() == row[keep].tolist()
        assert got[1].tolist() == cand[keep].tolist()

    def test_counts_cap_the_neighbours_taken_per_row(self):
        graph = erdos_renyi(16, 0.35, seed=3)
        anchors = np.array([0, 1, 2])
        row, cand = block.neighbors(graph, anchors, np.array([2, 0, 1]))
        assert row.tolist() == [0, 0, 2]
        assert cand.tolist() == [
            *graph.neighbors(0)[:2].tolist(), int(graph.neighbors(2)[0])
        ]

    def test_first_diff_of_a_sorted_block(self):
        rows = np.array([[0, 1, 2], [0, 1, 9], [0, 9, 11], [3, 4, 5]])
        assert block.first_diff(rows).tolist() == [0, 2, 1, 0]
        assert block.first_diff(rows[:0]).tolist() == []

    def test_ordered_masks_rows_by_positional_pairs(self):
        rows = np.array([[1, 2, 0, 5], [2, 1, 0, 5], [1, 2, 3, 3]])
        assert block.ordered(rows, [(0, 1)]).tolist() == [True, False, True]
        assert block.ordered(rows, [(0, 1), (2, 3)]).tolist() == [True, False, False]
        assert block.ordered(rows, []).all()

    def test_split_routes_rows_in_order_per_destination(self):
        rows = np.arange(12).reshape(6, 2)
        dst = np.array([2, 0, 2, 3, 0, 2])
        parts = block.split(rows, dst, 4)
        assert [p[:, 0].tolist() for p in parts] == [[2, 8], [], [0, 4, 10], [6]]
        assert [p.tolist() for p in block.split(dst, dst, 4)] == [[0, 0], [], [2, 2, 2], [3]]


def rowwise_injective(block, row, cand):
    """Injectivity as whole gathered rows: ``(pairs, k)`` then a row reduction."""
    return (block[row] != cand[:, None]).all(axis=1)


def rowwise_append(block, row, cand):
    """The next block as a gather of whole rows and a concatenate."""
    return np.concatenate((block[row], cand[:, None]), axis=1)


def rowwise_within(block, row, cand, lower, upper):
    """List-form bounds from ``(n, len(columns))`` fancy-indexed blocks."""
    keep = None
    if lower:
        keep = cand >= (block[:, lower].max(1) + 1)[row]
    if upper:
        below = cand < block[:, upper].min(1)[row]
        keep = below if keep is None else keep & below
    return keep


def same(got, want):
    assert type(got) is type(want)
    if want is not None:
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tolist() == want.tolist()


class TestColumnSpellings:
    """``injective``, ``append`` and list-form ``within`` against the row-wise
    spellings: same values, shape and dtype for every width, zero pairs and
    rows proposed many times over."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 12),
        width=st.integers(0, 7),
        pairs=st.integers(0, 40),
        dtypes=st.sampled_from([(np.int64, np.int64), (np.int32, np.int64),
                                (np.int64, np.int32), (np.int32, np.int32)]),
        lower=st.sets(st.integers(0, 6)),
        upper=st.sets(st.integers(0, 6)),
    )
    def test_equal_the_rowwise_reference(
        self, seed, rows, width, pairs, dtypes, lower, upper
    ):
        rng = np.random.default_rng(seed)
        # A small id range makes candidates collide with their row often.
        data = rng.integers(0, 9, size=(rows, width)).astype(dtypes[0])
        row = rng.integers(0, rows, size=pairs)
        cand = rng.integers(0, 9, size=pairs).astype(dtypes[1])
        same(block.injective(data, row, cand), rowwise_injective(data, row, cand))
        same(block.append(data, row, cand), rowwise_append(data, row, cand))
        lower = sorted(c for c in lower if c < width)
        upper = sorted(c for c in upper if c < width)
        same(block.within(data, row, cand, lower, upper),
             rowwise_within(data, row, cand, lower, upper))


def peak_bytes_per_pair(fn, *args) -> float:
    """``tracemalloc`` peak of one call, after a warm one, per pair."""
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / len(args[1])


class TestPairMemory:
    """A pair filter or block build holds no ``(pairs, k)`` temporary beyond
    its output: it works one column at a time."""

    PAIRS, WIDTH = 100_000, 6

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 5_000, size=(2_000, self.WIDTH))
        return data, rng.integers(0, 2_000, size=self.PAIRS), rng.integers(0, 5_000, size=self.PAIRS)

    def test_injective_holds_a_mask_and_one_column(self, pairs):
        assert peak_bytes_per_pair(block.injective, *pairs) <= 18

    def test_append_holds_its_output_and_one_column(self, pairs):
        output = 8 * (self.WIDTH + 1)
        assert peak_bytes_per_pair(block.append, *pairs) <= output + 9
