"""Partition quality reports, including the SM-E potential of Sec. 3.1
(test infrastructure, like ``strategies.py``: ``test_pattern_gen_stats.py``
is its user).

Partition quality drives RADS more directly than any other engine: the
fraction of candidates whose border distance reaches the query span decides
how much work never touches the network.  This module quantifies that link
for a concrete (partition, query) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.partition.partition import GraphPartition
from repro.partition.partitioner import edge_cut, partition_balance
from repro.query.pattern import Pattern


@dataclass
class PartitionReport:
    """Structural quality measures of one partition."""

    num_machines: int
    balance: float
    edge_cut: int
    edge_cut_fraction: float
    border_fraction: float
    mean_border_distance: float

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        return (
            f"{self.num_machines} machines: balance {self.balance:.2f}, "
            f"edge cut {self.edge_cut} "
            f"({100 * self.edge_cut_fraction:.1f}% of edges), "
            f"{100 * self.border_fraction:.1f}% border vertices, "
            f"mean border distance {self.mean_border_distance:.2f}"
        )


def partition_report(partition: GraphPartition) -> PartitionReport:
    """Compute structural quality measures for a partition."""
    graph = partition.graph
    cut = edge_cut(graph, partition.owner)
    borders = 0
    distances: list[int] = []
    for machine in partition.machines():
        borders += len(machine.border_vertices)
        reached = machine.border_distances
        distances.extend(reached[reached < graph.num_vertices].tolist())
    return PartitionReport(
        num_machines=partition.num_machines,
        balance=partition_balance(partition.owner, partition.num_machines),
        edge_cut=cut,
        edge_cut_fraction=cut / max(1, graph.num_edges),
        border_fraction=borders / max(1, graph.num_vertices),
        mean_border_distance=(
            float(np.mean(distances)) if distances else float("inf")
        ),
    )


def sme_share(partition: GraphPartition, pattern: Pattern) -> float:
    """Fraction of start candidates that SM-E can process (Prop. 1).

    Uses the pattern's minimum vertex span as the start-vertex span — the
    plan chooser's second heuristic picks exactly that vertex, so this is
    the share the best plan achieves.
    """
    span = min(pattern.span(u) for u in pattern.vertices())
    min_degree = min(pattern.degree(u) for u in pattern.vertices())
    local = 0
    total = 0
    for machine in partition.machines():
        candidate = machine.owned_degrees >= min_degree
        total += int(candidate.sum())
        local += int((candidate & (machine.border_distances >= span)).sum())
    return local / total if total else 1.0
