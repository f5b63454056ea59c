"""Foreign-vertex adjacency cache (paper Sec. 3.2 / Appendix B).

Fetched adjacency lists are cached so each foreign vertex is fetched at most
once while memory lasts; under pressure the oldest entries are evicted
(the paper: "when more data vertices need to be fetched, we may release
some previously cached data vertices").
"""

from __future__ import annotations

import numpy as np


class ForeignVertexCache:
    """Byte-budgeted adjacency cache with FIFO eviction.

    The paper only says stale entries "may" be released; first in, first
    out matches R-Meef's fetch-once-per-round access pattern.
    """

    def __init__(self, budget_bytes: int | None = None):
        self._entries: dict[int, np.ndarray] = {}  # insertion-ordered
        self._budget = budget_bytes
        self.bytes_used = 0
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

    def peek(self, v: int) -> np.ndarray | None:
        """Cached adjacency of ``v`` or None."""
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
                v = next(iter(self._entries))
                self.bytes_used -= self.entry_bytes(self._entries.pop(v))
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
