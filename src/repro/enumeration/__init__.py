"""Generic single-machine subgraph enumeration (TurboIso-style backtracking).

This is both the ground-truth oracle for tests and the SM-E algorithm that
RADS runs on each machine's interior (paper Sec. 3.1).
"""

from repro.enumeration.backtracking import (
    BacktrackingEnumerator,
    EnumerationStats,
    MatchingTables,
    compute_matching_order,
    enumerate_embeddings,
)
from repro.enumeration.vf2 import VF2Enumerator, vf2_embeddings
from repro.enumeration.labeled import (
    LabeledEnumerator,
    LabeledPattern,
    candidate_sets,
    labeled_embeddings,
)

__all__ = [
    "BacktrackingEnumerator",
    "EnumerationStats",
    "MatchingTables",
    "compute_matching_order",
    "enumerate_embeddings",
    "VF2Enumerator",
    "vf2_embeddings",
    "LabeledEnumerator",
    "LabeledPattern",
    "candidate_sets",
    "labeled_embeddings",
]
