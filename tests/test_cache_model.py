"""Model-based test: ForeignVertexCache against a reference model.

A hypothesis state machine drives the cache with arbitrary put/peek/clear
sequences — through ``put`` alone and through the charge-first
``make_room`` / ``put`` pair R-Meef uses — and checks every observable
(membership, byte accounting, eviction count and order) against a
straightforward Python model of first-in-first-out eviction.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.cache import ForeignVertexCache

BUDGET = 160  # small enough that eviction happens constantly


def entry_cost(degree: int) -> int:
    return (degree + 1) * 8


class CacheModel(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.cache = ForeignVertexCache(budget_bytes=BUDGET)
        self.model: dict[int, int] = {}  # vertex -> degree, in order
        self.evictions = 0

    # ------------------------------------------------------------------
    @rule(v=st.integers(0, 14), degree=st.integers(0, 8), charge_first=st.booleans())
    def put(self, v, degree, charge_first):
        adjacency = np.arange(degree, dtype=np.int64)
        cost = entry_cost(degree)
        expected: list[int] = []
        if v not in self.model:
            used = sum(entry_cost(d) for d in self.model.values())
            while self.model and used + cost > BUDGET:
                oldest = next(iter(self.model))
                used -= entry_cost(self.model.pop(oldest))
                expected.append(oldest)
            self.model[v] = degree
            self.evictions += len(expected)
            if charge_first:
                assert self.cache.make_room(cost) == expected
                expected = []
        released = self.cache.put(v, adjacency)  # duplicate put is a no-op
        assert released >= 0 and (released > 0) == bool(expected)

    @rule(v=st.integers(0, 14))
    def peek(self, v):
        got = self.cache.peek(v)
        if v in self.model:
            assert got is not None
            assert len(got) == self.model[v]
        else:
            assert got is None

    @rule()
    def clear(self):
        released = self.cache.clear()
        assert released == sum(entry_cost(d) for d in self.model.values())
        self.model.clear()

    # ------------------------------------------------------------------
    @invariant()
    def same_membership(self):
        if not hasattr(self, "model"):
            return
        for v in range(15):
            assert (v in self.cache) == (v in self.model)
        assert len(self.cache) == len(self.model)

    @invariant()
    def byte_accounting_matches(self):
        if not hasattr(self, "model"):
            return
        assert self.cache.bytes_used == sum(
            entry_cost(d) for d in self.model.values()
        )
        assert self.cache.bytes_used <= BUDGET or len(self.model) == 1

    @invariant()
    def eviction_order_matches(self):
        if not hasattr(self, "model"):
            return
        assert self.cache.vertices() == list(self.model)
        assert self.cache.evictions == self.evictions


TestCacheModel = CacheModel.TestCase
TestCacheModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
