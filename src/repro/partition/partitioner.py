"""Partitioner interface plus the trivial hash partitioner."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.graph.graph import Graph


class Partitioner(ABC):
    """Assigns every vertex of a data graph to one of ``m`` machines."""

    @abstractmethod
    def assign(self, graph: Graph, num_machines: int) -> np.ndarray:
        """Return an int array ``owner[v] in [0, num_machines)``."""


class HashPartitioner(Partitioner):
    """Pseudo-random assignment — the locality-free baseline.

    A multiplicative hash (not plain modulo) so that grid graphs do not end
    up with accidental stripe locality.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed

    def assign(self, graph: Graph, num_machines: int) -> np.ndarray:
        if num_machines <= 0:
            raise ValueError("need at least one machine")
        # splitmix64 finaliser: sequential ids land uniformly.
        z = np.arange(graph.num_vertices, dtype=np.uint64)
        z = z + np.uint64(self._seed) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        return (z % np.uint64(num_machines)).astype(np.int64)


def edge_cut(graph: Graph, owner: np.ndarray) -> int:
    """Number of edges whose endpoints live on different machines."""
    owner, src = np.asarray(owner), np.repeat(np.arange(graph.num_vertices), graph.degrees())
    return int((owner[src] != owner[graph.indices]).sum()) // 2


def partition_balance(owner: np.ndarray, num_machines: int) -> float:
    """Max part size over ideal part size (1.0 = perfectly balanced)."""
    counts = np.bincount(owner, minlength=num_machines)
    ideal = len(owner) / num_machines
    return float(counts.max() / ideal) if ideal else 1.0
