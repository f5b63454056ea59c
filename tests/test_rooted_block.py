"""A watch's rooted plans go through the kernel together, as one tagged block,
and so do every watch's on one stream.

``IncrementalMatcher.matches_using`` roots one matching order at every
directed pattern edge (``2 |E_P|`` plans).  Counted, not timed: what a call
costs in kernel steps — one admission of the seed block, then one
``MatchingTables._step`` per level — must be at most the pattern's vertex
count, whatever the number of plans; an ingest pays one admission and
``max |V_P| - 2`` steps per batch side however many watches there are; and
nothing on the ingest path may compile a table once the watch is registered.
And differential: the per-plan loop the block replaced lives on here as the
reference, for ordered lists and all four counters, and each watch's own
``IncrementalMatcher`` is the reference for the fused fan-out.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.enumeration.backtracking import (
    BacktrackingEnumerator,
    EnumerationStats,
    MatchingTables,
    compute_matching_order,
)
from repro.api import RunConfig
from repro.graph import erdos_renyi, grid_road_network, powerlaw_cluster
from repro.graph.graph import canonical_edge_array
from repro.query.patterns import CLIQUE_QUERIES, PAPER_QUERIES, path, square, star, triangle
from repro.query.symmetry import bound_columns, symmetry_breaking_constraints
from repro.service import QueryScheduler, TenantQuota
from repro.streaming import ContinuousQueryManager, incremental
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

        built = _calls(
            there_and_back, BacktrackingEnumerator.__post_init__.__code__,
            MatchingTables.__init__.__code__, MatchingTables.fuse.__func__.__code__,
        )
        assert all(len(watch.poll()) == 4 for watch in watches)
        assert built == [0, 0, 0]

    def test_an_ingest_is_one_kernel_run_per_batch_side(self, graph):
        """Triangle + square + q4: one admission and ``5 - 2`` steps per side
        (one admission and ``|V_P| - 2`` steps per watch before the fusion)."""
        session = repro.open(graph)
        watches = [session.watch(pattern) for pattern in WATCHES.values()]
        present = list(graph.edges())[::7][:8]
        absent = [(u, u + 2) for u in range(0, 160, 20) if not graph.has_edge(u, u + 2)]

        def there_and_back():  # two ingests, four batch sides
            session.ingest(additions=absent, deletions=present)
            session.ingest(additions=present, deletions=absent)

        admissions, steps = _calls(
            there_and_back, MatchingTables._admit.__code__, MatchingTables._step.__code__)
        assert (admissions, steps) == (4, 4 * 3)
        records = [watch.poll()[-2:] for watch in watches]
        assert all(r.added_count + r.removed_count for r in records[-1])


def per_plan_loop(pattern, constraints, graph, edges, stats):
    """What the tagged block replaced: an enumerator per rooted plan per call,
    then first-listed-edge attribution, in (edge, plan, DFS) order."""
    seeds = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    runs = [
        MatchingTables(
            pattern, constraints, [compute_matching_order(pattern, prefix=[u, v])]
        ).block(graph, stats, seeds, None)
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
    def test_ordered_lists_and_counters(self, gname, constrained, monkeypatch):
        if not constrained:
            monkeypatch.setattr(incremental, "symmetry_breaking_constraints", lambda p: [])
        graph = self.GRAPHS[gname]()
        rng = np.random.default_rng(3)
        present = np.array(list(graph.edges()))
        for name, pattern in self.PATTERNS.items():
            if not constrained and pattern.num_vertices > 4:
                continue
            constraints = symmetry_breaking_constraints(pattern) if constrained else []
            matcher = IncrementalMatcher(pattern)
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


#: Watchable patterns: equal ones, several of four vertices, one edge
#: (complete at admission), and q4.
POOL = [triangle(), square(), path(4), star(3), path(2), PAPER_QUERIES["q4"], square()]


def _own(pattern, old, new, additions, deletions):
    """What the watch's own matcher finds, one pattern at a time."""
    matcher = IncrementalMatcher(pattern)
    return tuple(
        matcher.block_using(graph, canonical_edge_array(edges, graph.num_vertices)).tolist()
        for graph, edges in ((new, additions), (old, deletions))
    )


class TestFanOut:
    """Every watch of a stream gets the rows its own matcher finds, in order."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_each_watch_gets_its_own_block(self, data):
        n = data.draw(st.integers(6, 14), label="n")
        graph = erdos_renyi(n, data.draw(st.sampled_from([0.3, 0.5]), label="p"),
                            seed=data.draw(st.integers(0, 99), label="seed"))
        picks = data.draw(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=4))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        touched = data.draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True))
        additions = [e for e in touched if not graph.has_edge(*e)]
        deletions = [(v, u) for u, v in touched if graph.has_edge(u, v)]
        manager = ContinuousQueryManager(graph)
        watches = [manager.register(POOL[i]) for i in picks]
        manager.ingest(additions, deletions)
        new = manager.current.graph
        for watch, i in zip(watches, picks, strict=True):
            [record] = watch.poll()
            got = ([list(r) for r in record.added], [list(r) for r in record.removed])
            assert got == _own(POOL[i], graph, new, additions, deletions), POOL[i].name

    def test_equal_patterns_share_one_matcher_and_unregister_fuses_again(self):
        graph = powerlaw_cluster(40, 3, 0.4, seed=3)
        manager = ContinuousQueryManager(graph)
        first, again = manager.register("square"), manager.register("a-b, b-c, c-d, d-a")
        tri = manager.register("triangle")
        assert first.matcher is again.matcher
        assert len(manager._fused.matchers) == 2
        manager.unregister(first.id)
        assert len(manager._fused.matchers) == 2  # `again` still watches it
        manager.unregister(again.id)
        assert manager._fused.matchers == [tri.matcher]
        manager.unregister(tri.id)
        assert manager._fused is None
        assert manager.ingest((), ())["watches"] == {}

    def test_a_quota_dropped_watch_is_never_enumerated(self, monkeypatch):
        graph = powerlaw_cluster(60, 3, 0.4, seed=5)
        admitted, original = [], MatchingTables._admit

        def spy(self, run, seeds, charge=False, active=None):  # the plans of the rows let in
            block, tags = original(self, run, seeds, charge, active)
            admitted.append((self, tags % len(self.orders)))
            return block, tags

        monkeypatch.setattr(MatchingTables, "_admit", spy)
        present = list(graph.edges())
        batches = [([], present[:6]), (present[:6], []), ([], present[6:12][::-1])]
        with QueryScheduler(graph, RunConfig(machines=2), threads=2,
                            tenants={"starved": TenantQuota(rate=1e-3, burst=1)}) as scheduler:
            served = ContinuousQueryManager(graph, scheduler=scheduler)
            watches = [served.register(q) for q in ("triangle", "q4")]
            starved = served.register("square", tenant="starved")
            served.ingest(*batches[0])
            first = len(admitted)  # the one batch the square is admitted to
            for batch in batches[1:]:
                served.ingest(*batch)
        assert starved.dropped == 2 and len(starved.poll()) == 1
        assert served.stats()["quota_dropped"] == 2
        fused = served._fused
        square = [fused._owner[plans] == fused.matchers.index(starved.matcher)
                  for tables, plans in admitted if tables is fused._tables]
        assert len(square) == len(admitted) and len(admitted) > first
        assert any(rows.any() for rows in square[:first])
        assert not any(rows.any() for rows in square[first:])
        alone = ContinuousQueryManager(graph)
        reference = [alone.register(q) for q in ("triangle", "q4")]
        for batch in batches:
            alone.ingest(*batch)
        for watch, own in zip(watches, reference, strict=True):
            got, want = watch.poll(), own.poll()
            assert [(r.added, r.removed) for r in got] == [(r.added, r.removed) for r in want]
            assert sum(r.added_count + r.removed_count for r in got) > 0

    def test_interleaved_jobs_publish_the_standalone_records(self):
        """More scheduler threads than cores and a short switch interval: any
        job of a batch may be the one that computes it, for any subset of
        the watches, and every watch still gets exactly its own rows."""
        graph = powerlaw_cluster(60, 3, 0.4, seed=8)
        queries = ["triangle", "square", "q4", "a-b, b-c, c-a", "path4", "square"]
        present = list(graph.edges())
        batches = [([], present[i:i + 5]) for i in range(0, 20, 5)]
        batches += [(deletions, additions) for additions, deletions in batches]
        alone = ContinuousQueryManager(graph)
        want = [alone.register(q) for q in queries]
        for batch in batches:
            alone.ingest(*batch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryScheduler(graph, RunConfig(machines=2), threads=6) as scheduler:
                served = ContinuousQueryManager(graph, scheduler=scheduler)
                got = [served.register(q) for q in queries]
                for batch in batches:
                    served.ingest(*batch)
        finally:
            sys.setswitchinterval(interval)
        for mine, own in zip(got, want, strict=True):
            records, expected = mine.poll(), own.poll()
            assert len(records) == len(batches)
            assert [(r.added, r.removed) for r in records] == [
                (r.added, r.removed) for r in expected]
