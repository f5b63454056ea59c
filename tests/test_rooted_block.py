"""A watch's rooted plans go through the kernel together: counted, not timed.

``IncrementalMatcher.matches_using`` roots one matching order at every
directed pattern edge (``2 |E_P|`` plans).  What a call costs in kernel
steps — each step ends in one ``block.append`` — must be the pattern's
vertex count, whatever the number of plans, and nothing on the ingest path
may compile an enumerator once the watch is registered.
"""

from __future__ import annotations

import sys

import pytest

import repro
import repro.enumeration.block as kernel
from repro.enumeration.backtracking import BacktrackingEnumerator
from repro.graph import grid_road_network
from repro.query.patterns import PAPER_QUERIES, square, triangle
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

    @pytest.mark.xfail(
        strict=True,
        reason="the per-plan loop walks every rooted plan's levels alone",
    )
    @pytest.mark.parametrize("name", WATCHES)
    def test_steps_per_call_are_the_pattern_size(self, graph, name):
        pattern = WATCHES[name]
        matcher = IncrementalMatcher(pattern)
        edges = list(graph.edges())[:32]
        steps, gathers = _calls(
            lambda: matcher.matches_using(graph, edges),
            kernel.append.__code__, kernel.neighbors.__code__,
        )
        plans = 2 * len(list(pattern.edges()))
        print(f"{name}: {plans} plans, {steps} steps ({gathers} gathers)")
        assert gathers <= steps <= pattern.num_vertices

    @pytest.mark.xfail(
        strict=True,
        reason="the per-plan loop constructs an enumerator per plan per call",
    )
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
