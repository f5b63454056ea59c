"""Vertex-labeled graph view (TurboIso substrate feature).

The paper assumes unlabeled graphs, but its single-machine algorithm,
TurboIso, is a *labeled* matcher; this module supplies the labeled layer
so the SM-E substrate is usable the way its original authors intended.
A :class:`LabeledGraph` wraps an immutable :class:`repro.graph.Graph`
with an integer label per vertex and precomputes the inverted index and
neighbourhood label frequencies (NLF) that labeled matching filters on.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np

from repro.graph.graph import Graph


class LabeledGraph:
    """A data graph whose vertices carry integer labels."""

    def __init__(self, graph: Graph, labels: Iterable[int]):
        label_array = np.asarray(list(labels), dtype=np.int64)
        if len(label_array) != graph.num_vertices:
            raise ValueError(
                f"expected {graph.num_vertices} labels, "
                f"got {len(label_array)}"
            )
        if len(label_array) and label_array.min() < 0:
            raise ValueError("labels must be non-negative integers")
        self._graph = graph
        self._labels = label_array
        self._by_label: dict[int, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The underlying unlabeled graph."""
        return self._graph

    @property
    def labels(self) -> np.ndarray:
        """Label array indexed by vertex id (read-only view)."""
        return self._labels

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._graph.num_edges

    # ------------------------------------------------------------------
    def vertices_with_label(self, label: int) -> np.ndarray:
        """Sorted array of vertices carrying ``label`` (inverted index)."""
        if self._by_label is None:
            order = np.argsort(self._labels, kind="stable")
            boundaries = np.searchsorted(
                self._labels[order], np.arange(self._labels.max() + 2)
            ) if len(self._labels) else np.zeros(1, dtype=np.int64)
            self._by_label = {}
            for lbl in np.unique(self._labels):
                lbl = int(lbl)
                lo, hi = boundaries[lbl], boundaries[lbl + 1]
                self._by_label[lbl] = np.sort(order[lo:hi]).astype(np.int64)
        return self._by_label.get(
            int(label), np.empty(0, dtype=np.int64)
        )

    def label_frequencies(self) -> Counter[int]:
        """Histogram of labels over all vertices."""
        return Counter(int(x) for x in self._labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        distinct = len(np.unique(self._labels)) if len(self._labels) else 0
        return (
            f"LabeledGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"labels={distinct})"
        )


def label_randomly(
    graph: Graph,
    num_labels: int,
    seed: int = 0,
    weights: Mapping[int, float] | None = None,
) -> LabeledGraph:
    """Synthetic labeling: i.i.d. labels, optionally weighted."""
    if num_labels < 1:
        raise ValueError("need at least one label")
    rng = np.random.default_rng(seed)
    if weights is None:
        labels = rng.integers(0, num_labels, size=graph.num_vertices)
    else:
        choices = np.arange(num_labels)
        probs = np.asarray(
            [weights.get(int(c), 0.0) for c in choices], dtype=float
        )
        if probs.sum() <= 0:
            raise ValueError("weights must sum to a positive value")
        probs = probs / probs.sum()
        labels = rng.choice(choices, size=graph.num_vertices, p=probs)
    return LabeledGraph(graph, labels)
