"""Scaled-down analogues of the paper's four datasets (Table 1).

The real graphs (RoadNet 717M edges, UK2002 298M edges...) are neither
available offline nor tractable in pure Python, so each dataset here is a
seeded synthetic graph preserving the structural property the paper uses it
for:

========================  ===========================================
roadnet_like              near-planar, avg degree ~2.2, huge diameter:
                          SM-E handles almost everything (Exp-1)
dblp_like                 small but dense community structure (Exp-2)
livejournal_like          heavy-tailed social graph, triangle-rich
                          (Exp-3: join engines become impractical)
uk2002_like               densest, extreme hubs (Exp-4: join engines
                          OOM, Crystal index is huge)
========================  ===========================================

Sizes are chosen so the *full* evaluation grid (4 datasets x 8 queries x
5 engines) completes in minutes under CPython while keeping the paper's
orderings intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.graph import (
    community_graph,
    diameter_lower_bound,
    grid_road_network,
    powerlaw_cluster,
)
from repro.graph.graph import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """Descriptor of one benchmark dataset."""

    name: str
    paper_name: str
    description: str


DATASETS: dict[str, DatasetSpec] = {
    "roadnet": DatasetSpec(
        "roadnet", "RoadNet",
        "grid with sparse shortcuts; sparse, enormous diameter",
    ),
    "dblp": DatasetSpec(
        "dblp", "DBLP",
        "co-authorship communities; small but dense",
    ),
    "livejournal": DatasetSpec(
        "livejournal", "LiveJournal",
        "power-law social graph with triangle closure",
    ),
    "uk2002": DatasetSpec(
        "uk2002", "UK2002",
        "densest power-law web graph with extreme hubs",
    ),
}


@lru_cache(maxsize=None)
def roadnet_like(scale: float = 1.0, seed: int = 11) -> Graph:
    """RoadNet analogue: W x H grid plus sparse diagonals."""
    side = max(8, int(70 * scale ** 0.5))
    return grid_road_network(side, side, extra_edge_prob=0.04, seed=seed)


@lru_cache(maxsize=None)
def dblp_like(scale: float = 1.0, seed: int = 12) -> Graph:
    """DBLP analogue: overlapping co-author communities."""
    communities = max(4, int(150 * scale))
    return community_graph(
        communities, community_size=9, intra_prob=0.5, inter_edges=3,
        seed=seed,
    )


@lru_cache(maxsize=None)
def livejournal_like(scale: float = 1.0, seed: int = 13) -> Graph:
    """LiveJournal analogue: Holme-Kim power-law with clustering."""
    n = max(100, int(1500 * scale))
    return powerlaw_cluster(n, edges_per_vertex=3, triangle_prob=0.30,
                            seed=seed)


@lru_cache(maxsize=None)
def uk2002_like(scale: float = 1.0, seed: int = 14) -> Graph:
    """UK2002 analogue: denser power-law with stronger hubs."""
    n = max(120, int(1400 * scale))
    return powerlaw_cluster(n, edges_per_vertex=4, triangle_prob=0.35,
                            seed=seed)


_FACTORIES = {
    "roadnet": roadnet_like,
    "dblp": dblp_like,
    "livejournal": livejournal_like,
    "uk2002": uk2002_like,
}


def dataset(name: str, scale: float = 1.0) -> Graph:
    """Build (and cache) a benchmark dataset by name."""
    return _FACTORIES[name](scale)


def dataset_profile(name: str, scale: float = 1.0) -> dict[str, object]:
    """Table 1 row: |V|, |E|, average degree, diameter estimate."""
    graph = dataset(name, scale)
    return {
        "dataset": DATASETS[name].paper_name,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "avg_degree": round(graph.average_degree(), 2),
        "diameter_lb": diameter_lower_bound(graph),
    }
