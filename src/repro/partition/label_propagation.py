"""Label-propagation partitioner — a lighter-weight METIS alternative.

Size-constrained label propagation (Ugander & Backstrom style): every
vertex starts in a hash-assigned part and iteratively moves to the part
where most of its neighbours live, subject to a balance cap.  Cheaper than
the multilevel scheme and usually between hash and METIS-like in locality;
useful both as a mid-quality baseline and to study how partition quality
drives RADS' SM-E share.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.partition.partitioner import HashPartitioner, Partitioner

#: Propagation rounds (fewer once a round moves nothing).
ITERATIONS = 8
#: A part may hold at most this times its even share of vertices.
MAX_IMBALANCE = 1.1


class LabelPropagationPartitioner(Partitioner):
    """Size-constrained label propagation over a hash seeding."""

    def __init__(self, seed: int = 0):
        self._seed = seed

    def assign(self, graph: Graph, num_machines: int) -> np.ndarray:
        if num_machines <= 0:
            raise ValueError("need at least one machine")
        if num_machines == 1:
            return np.zeros(graph.num_vertices, dtype=np.int64)
        rng = np.random.default_rng(self._seed)
        part = HashPartitioner(self._seed).assign(graph, num_machines)
        counts = np.bincount(part, minlength=num_machines).astype(np.float64)
        limit = MAX_IMBALANCE * graph.num_vertices / num_machines
        for _ in range(ITERATIONS):
            moved = 0
            order = rng.permutation(graph.num_vertices)
            for v in order:
                v = int(v)
                nbrs = graph.neighbors(v)
                if len(nbrs) == 0:
                    continue
                here = int(part[v])
                tallies = np.bincount(
                    part[nbrs], minlength=num_machines
                )
                best = here
                best_score = tallies[here]
                for p in np.argsort(tallies)[::-1]:
                    p = int(p)
                    if tallies[p] <= best_score:
                        break
                    if p != here and counts[p] + 1 <= limit:
                        best, best_score = p, tallies[p]
                        break
                if best != here:
                    part[v] = best
                    counts[here] -= 1
                    counts[best] += 1
                    moved += 1
            if moved == 0:
                break
        return part.astype(np.int64)
