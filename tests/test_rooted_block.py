"""A watch's rooted plans go through the kernel together, as one tagged block.

``IncrementalMatcher.matches_using`` roots one matching order at every
directed pattern edge (``2 |E_P|`` plans).  Counted, not timed: what a call
costs in kernel steps — one admission of the seed block, then one
``MatchingTables._step`` per level — must be at most the pattern's vertex
count, whatever the number of plans, and nothing on
the ingest path may compile an enumerator once the watch is registered.
And differential: the per-plan loop the block replaced lives on here as the
reference, for ordered lists and all four counters.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro
from repro.enumeration.backtracking import (
    BacktrackingEnumerator,
    EnumerationStats,
    MatchingTables,
    compute_matching_order,
)
from repro.graph import erdos_renyi, grid_road_network, powerlaw_cluster
from repro.query.patterns import CLIQUE_QUERIES, PAPER_QUERIES, square, star, triangle
from repro.query.symmetry import bound_columns, symmetry_breaking_constraints
from repro.streaming.incremental import IncrementalMatcher

WATCHES = {"triangle": triangle(), "square": square(), "q4": PAPER_QUERIES["q4"]}


def _calls(run, *codes) -> list[int]:
    """How often each code object is entered by ``run()`` (after a warm call)."""
    counts = dict.fromkeys(codes, 0)

    def tick(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    run()
    sys.setprofile(tick)
    try:
        run()
    finally:
        sys.setprofile(None)
    return [counts[code] for code in codes]


class TestRootedCost:
    @pytest.fixture(scope="class")
    def graph(self):
        return grid_road_network(20, 20, extra_edge_prob=0.08, seed=2)

    @pytest.mark.parametrize("name", WATCHES)
    def test_steps_per_call_are_the_pattern_size(self, graph, name):
        pattern = WATCHES[name]
        matcher = IncrementalMatcher(pattern)
        edges = list(graph.edges())[:32]
        steps, admissions = _calls(
            lambda: matcher.matches_using(graph, edges),
            MatchingTables._step.__code__, MatchingTables._admit.__code__,
        )
        plans = 2 * len(list(pattern.edges()))
        print(f"{name}: {plans} plans, {admissions} admission + {steps} steps")
        assert admissions == 1
        assert 1 <= steps + admissions <= pattern.num_vertices

    #: ``call`` + ``c_call`` events per gathered step on q4 rooted at 32
    #: edges of this grid, on the commit before the fused step.
    STEP_CALLS_BEFORE = 120.3

    def test_a_gathered_step_pays_numpy_dispatch_once(self, graph):
        step = MatchingTables._step.__code__
        inside, seen = [], {"steps": 0, "calls": 0}

        def tick(frame, event, arg):
            if frame.f_code is step and event in ("call", "return"):
                if event == "call":  # a seed column handed in is an admission
                    inside.append(frame.f_locals.get("cand") is None)
                    seen["steps"] += inside[-1]
                else:
                    inside.pop()
            elif inside and inside[-1] and event in ("call", "c_call"):
                seen["calls"] += 1

        matcher = IncrementalMatcher(PAPER_QUERIES["q4"])
        edges = list(graph.edges())[:32]
        matcher.matches_using(graph, edges)
        sys.setprofile(tick)
        try:
            matcher.matches_using(graph, edges)
        finally:
            sys.setprofile(None)
        assert seen["steps"] >= 1
        assert seen["calls"] / seen["steps"] <= 0.5 * self.STEP_CALLS_BEFORE

    def test_an_ingest_compiles_nothing(self, graph):
        session = repro.open(graph)
        watches = [session.watch(pattern) for pattern in WATCHES.values()]
        batch = list(graph.edges())[:8]

        def there_and_back():
            session.ingest(deletions=batch)
            session.ingest(additions=batch)

        (built,) = _calls(there_and_back, BacktrackingEnumerator.__post_init__.__code__)
        assert all(len(watch.poll()) == 4 for watch in watches)
        assert built == 0


def per_plan_loop(pattern, constraints, graph, edges, stats):
    """What the tagged block replaced: an enumerator per rooted plan per call,
    then first-listed-edge attribution, in (edge, plan, DFS) order."""
    seeds = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    runs = [
        BacktrackingEnumerator(
            pattern, graph, constraints,
            compute_matching_order(pattern, prefix=[u, v]), stats=stats,
        ).run_seeded_block(seeds)
        for u in pattern.vertices()
        for v in pattern.adj(u)
    ]
    first: dict[tuple, int] = {}
    for index, edge in enumerate(map(tuple, seeds.tolist())):
        first.setdefault(edge, index)
    found = [
        (int(edge), plan, row)
        for plan, (tags, rows) in enumerate(runs)
        for edge, row in zip(tags, map(tuple, rows.tolist()))
        if all(
            first.get(tuple(sorted((row[a], row[b]))), edge) >= edge
            for a, b in pattern.edges()
        )
    ]
    return [row for _, _, row in sorted(found, key=lambda item: item[:2])]


def per_position_admission(tables, pattern, constraints, graph, seeds, allowed, charge):
    """What the step did with a seed column handed in, one position at a
    time: data edges to the backward neighbours, bounds, injectivity and
    ``allowed`` (charged as start candidates under ``charge``), then degree."""
    stats, admitted, tags = EnumerationStats(), [], []
    orders = tables.orders
    masks = None if allowed is None else np.broadcast_to(
        allowed, (pattern.num_vertices, graph.num_vertices))
    for tag, row in enumerate(np.repeat(seeds, len(orders), axis=0).tolist()):
        order = orders[tag % len(orders)]
        lower, upper = bound_columns(constraints, order)
        for p, v in enumerate(row):
            ok = (
                all(graph.has_edge(row[a], v) for a in range(p)
                    if order[a] in pattern.adj(order[p]))
                and all(v > row[c] for c in lower[p])
                and all(v < row[c] for c in upper[p])
                and v not in row[:p]
                and (masks is None or masks[p, v])
            )
            stats.candidates_scanned += charge and ok
            if not (ok and graph.degree(v) >= pattern.degree(order[p])):
                break
        else:
            admitted.append(row)
            tags.append(tag)
    return admitted, tags, stats


class TestOnePassAdmission:
    """A seed block's prefix columns are admitted in one pass; the
    per-position admission it replaced is the reference."""

    GRAPH = staticmethod(lambda: erdos_renyi(30, 0.15, seed=8))

    def check(self, tables, pattern, constraints, graph, seeds, allowed=None, charge=False):
        seeds = np.asarray(seeds, dtype=np.int64)
        want = per_position_admission(
            tables, pattern, constraints, graph, seeds, allowed, charge)
        stats = EnumerationStats()
        masks = None if allowed is None else np.broadcast_to(
            allowed, (pattern.num_vertices, graph.num_vertices))
        block, tags = tables._admit((graph, masks, stats), seeds, charge)
        assert (block.tolist(), tags.tolist(), stats) == want
        return want

    @pytest.mark.parametrize("name", WATCHES)
    def test_rooted_seeds(self, name):
        graph, pattern = self.GRAPH(), WATCHES[name]
        matcher = IncrementalMatcher(pattern)
        present = np.array(list(graph.edges()))
        low = [e for e in present.tolist() if min(graph.degree(v) for v in e) < 3]
        absent = [(u, v) for u in range(9) for v in range(u + 1, 30)
                  if not graph.has_edge(u, v)][:4]
        seeds = [*present[:10].tolist(), *absent, (4, 4), present[3], present[3],
                 *present[:4, ::-1].tolist(), *low[:3]]
        assert low
        allowed = np.ones(graph.num_vertices, dtype=bool)
        allowed[present[5]] = False
        for mask in (None, allowed):
            admitted, _, _ = self.check(
                matcher._tables, pattern, matcher.constraints, graph, seeds, mask)
            assert 0 < len(admitted) < len(seeds) * 2 * len(list(pattern.edges()))

    def test_three_columns_and_start_candidates(self):
        graph, pattern = self.GRAPH(), PAPER_QUERIES["q4"]
        constraints = symmetry_breaking_constraints(pattern)
        enumerator = BacktrackingEnumerator(pattern, graph, constraints)
        rng = np.random.default_rng(5)
        allowed = rng.random(graph.num_vertices) < 0.7
        self.check(enumerator._tables, pattern, constraints, graph,
                   rng.integers(0, graph.num_vertices, (200, 3)), allowed)
        starts = [*range(graph.num_vertices), 3, 3]
        _, _, stats = self.check(enumerator._tables, pattern, constraints, graph,
                                 np.array(starts)[:, None], allowed, charge=True)
        assert 0 < stats.candidates_scanned < len(starts)


class TestTaggedBlockEqualsThePerPlanLoop:
    PATTERNS = {
        **PAPER_QUERIES, **CLIQUE_QUERIES,
        "triangle": triangle(), "square": square(), "star3": star(3),
    }
    GRAPHS = {
        "er": lambda: erdos_renyi(40, 0.15, seed=5),
        "powerlaw": lambda: powerlaw_cluster(50, 3, 0.4, seed=9),
    }

    @pytest.mark.parametrize("gname", GRAPHS)
    @pytest.mark.parametrize("constrained", [True, False])
    def test_ordered_lists_and_counters(self, gname, constrained):
        graph = self.GRAPHS[gname]()
        rng = np.random.default_rng(3)
        present = np.array(list(graph.edges()))
        for name, pattern in self.PATTERNS.items():
            if not constrained and pattern.num_vertices > 4:
                continue
            constraints = symmetry_breaking_constraints(pattern) if constrained else []
            matcher = IncrementalMatcher(pattern, constraints)
            picks = present[rng.permutation(len(present))[:10]]
            # Flipped spellings, a repeat, a non-edge or two, a self-loop pair.
            edges = np.concatenate([
                picks, picks[:2, ::-1], rng.integers(0, graph.num_vertices, (3, 2)), [[7, 7]],
            ])
            want_stats, got_stats = EnumerationStats(), EnumerationStats()
            want = per_plan_loop(pattern, constraints, graph, edges, want_stats)
            got = matcher.matches_using(graph, edges.tolist(), stats=got_stats)
            assert got == want, name
            assert got_stats == want_stats, name
            assert matcher.block_using(graph, edges).tolist() == [list(r) for r in want]


class TestEverySpellingOfABatch:
    """Seed rows are sorted: attribution keys on canonical edges."""

    def test_flipped_edges_are_still_deduplicated(self):
        g = repro.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        matcher = IncrementalMatcher(triangle())
        assert matcher.matches_using(g, [(0, 1), (1, 2)]) == [(0, 1, 2)]
        assert matcher.matches_using(g, [(1, 0), (2, 1)]) == [(0, 1, 2)]

    @pytest.mark.parametrize("name", ["triangle", "q2", "q4"])
    def test_spellings_agree_through_delta(self, name):
        pattern = TestTaggedBlockEqualsThePerPlanLoop.PATTERNS[name]
        old = powerlaw_cluster(40, 3, 0.4, seed=4)
        rng = np.random.default_rng(8)
        deletions = [e for e in old.edges() if 0 in e or 1 in e][:6]
        additions = [
            (u, v) for u in range(3) for v in range(20, 40) if not old.has_edge(u, v)
        ][:6]
        new = old.apply_batch(additions, deletions)
        matcher = IncrementalMatcher(pattern)
        canonical = matcher.delta(old, new, additions, deletions)
        assert sum(map(len, canonical))
        for _ in range(4):
            flip = rng.random(6) < 0.5
            spelled = [
                [(v, u) if f else (u, v) for (u, v), f in zip(batch, flip)]
                for batch in (additions, deletions)
            ]
            assert matcher.delta(old, new, *spelled) == canonical
        matcher.verify_parity(old, new, *canonical)


def test_a_pattern_without_an_edge_cannot_be_watched():
    # It used to register and then fail every ingest from inside numpy.
    with pytest.raises(ValueError, match="needs a pattern edge"):
        IncrementalMatcher(repro.Pattern(1, []))


class TestCountOnlyWatch:
    def test_counts_without_lists_equal_the_collected_lists(self):
        graph = powerlaw_cluster(60, 3, 0.3, seed=6)
        session = repro.open(graph)
        counted = session.watch("q4", collect=False)
        collected = session.watch("q4")
        batch = list(graph.edges())[:12]
        session.ingest(deletions=batch[::-1] + batch[:2])  # any order, repeats
        session.ingest(additions=[(v, u) for u, v in batch])
        for bare, full in zip(counted.poll(), collected.poll(), strict=True):
            assert bare.added is None and bare.removed is None
            assert (bare.added_count, bare.removed_count) == (
                len(full.added), len(full.removed))
            assert bare.batch == full.batch == {
                "additions": full.batch["additions"], "deletions": 12 - full.batch["additions"],
            }
            assert full.added_count + full.removed_count > 0
