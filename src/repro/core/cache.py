"""Foreign-vertex adjacency cache (paper Sec. 3.2 / Appendix B).

Fetched adjacency lists are cached so each foreign vertex is fetched at most
once while memory lasts; under pressure the oldest entries are evicted
(the paper: "when more data vertices need to be fetched, we may release
some previously cached data vertices").
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np


class ForeignVertexCache:
    """Byte-budgeted adjacency cache with FIFO or LRU eviction.

    The paper only says stale entries "may" be released; FIFO (the
    default) matches its fetch-once-per-round access pattern, while LRU is
    offered for workloads that revisit hot foreign hubs across rounds.
    """

    def __init__(self, budget_bytes: int | None = None, policy: str = "fifo"):
        if policy not in ("fifo", "lru"):
            raise ValueError(f"unknown eviction policy: {policy!r}")
        self._entries: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._budget = budget_bytes
        self._policy = policy
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, v: int) -> bool:
        return v in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def vertices(self) -> list[int]:
        """The cached vertices, oldest first."""
        return list(self._entries)

    @staticmethod
    def entry_bytes(adjacency: np.ndarray) -> int:
        """Simulated footprint of one cached adjacency list."""
        return (len(adjacency) + 1) * 8

    def get(self, v: int) -> np.ndarray | None:
        """Cached adjacency of ``v`` or None."""
        entry = self._entries.get(v)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if self._policy == "lru":
            self._entries.move_to_end(v)
        return entry

    def peek(self, v: int) -> np.ndarray | None:
        """Like :meth:`get` without touching hit/miss statistics."""
        return self._entries.get(v)

    def make_room(self, nbytes: int) -> list[int]:
        """Evict oldest entries until ``nbytes`` more fit the budget.

        Returns the evicted vertices.  Callers that charge entries to a
        simulated machine make room first, allocate, and only then
        :meth:`put` — an entry must never be cached before it is paid for.
        """
        evicted: list[int] = []
        if self._budget is not None:
            while self._entries and self.bytes_used + nbytes > self._budget:
                v, old = self._entries.popitem(last=False)
                self.bytes_used -= self.entry_bytes(old)
                self.evictions += 1
                evicted.append(v)
        return evicted

    def put(self, v: int, adjacency: np.ndarray) -> int:
        """Insert an adjacency list; returns bytes evicted to make room."""
        if v in self._entries:
            return 0
        before = self.bytes_used
        self.make_room(self.entry_bytes(adjacency))
        evicted = before - self.bytes_used
        self._entries[v] = adjacency
        self.bytes_used += self.entry_bytes(adjacency)
        return evicted

    def clear(self) -> int:
        """Drop everything; returns bytes released."""
        released = self.bytes_used
        self._entries.clear()
        self.bytes_used = 0
        return released
