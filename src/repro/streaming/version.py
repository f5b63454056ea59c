"""Versioned graph snapshots for the streaming ingest path.

Mutation never happens in place: every ingest batch produces a fresh
immutable :class:`~repro.graph.graph.Graph` via ``apply_batch`` and bumps
a monotonically increasing version number.  A :class:`GraphVersion` is
the handle everything downstream keys on — the result cache leads its
keys with the fingerprint, shard workers bind by fingerprint, and the
scheduler pins the (graph, partition) pair per execution — so swapping
in a new version can never corrupt a query already running against an
older one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

from repro.graph.graph import Graph


@dataclass(frozen=True)
class GraphVersion:
    """One immutable snapshot in a linear ingest history."""

    version: int
    graph: Graph
    fingerprint: str

    @classmethod
    def initial(cls, graph: Graph) -> "GraphVersion":
        """Version 0: the graph the stream started from."""
        return cls(version=0, graph=graph, fingerprint=graph.fingerprint())

    def describe(self) -> dict:
        """Small JSON-friendly summary (service responses, metrics)."""
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
        }


class VersionedGraph:
    """Thread-safe holder of the current :class:`GraphVersion`.

    ``apply_batch`` builds the next snapshot and swaps it in atomically;
    readers that grabbed :attr:`current` earlier keep a fully usable
    (immutable) snapshot — there is no coordination beyond the swap.
    """

    def __init__(self, graph: Graph | GraphVersion):
        self._lock = threading.Lock()
        if isinstance(graph, GraphVersion):
            self._current = graph
        else:
            self._current = GraphVersion.initial(graph)

    @property
    def current(self) -> GraphVersion:
        """The latest snapshot handle."""
        with self._lock:
            return self._current

    def apply_batch(
        self,
        additions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
    ) -> tuple[GraphVersion, GraphVersion]:
        """Apply one batch; returns ``(old, new)`` version handles.

        Validation errors from :meth:`Graph.apply_batch` propagate before
        any state changes, so a rejected batch leaves the history
        untouched.
        """
        with self._lock:
            old = self._current
            graph = old.graph.apply_batch(additions, deletions)
            new = GraphVersion(
                version=old.version + 1,
                graph=graph,
                fingerprint=graph.fingerprint(),
            )
            self._current = new
            return old, new
