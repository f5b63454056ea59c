"""Ordering, counter and candidate-set goldens for the labeled matcher.

``tests/data/labeled_goldens.json`` was captured from the recursive
TurboIso loop (one ``np.intersect1d`` per partial embedding, a ``Counter``
NLF filter per vertex) before it was replaced by the block kernel, and is
asserted exactly: the embedding list as an ordered list (digest plus first
rows), the four :class:`EnumerationStats` counters, and the filtered
candidate set of every query vertex.  Only runs under ``limit`` compare
rows alone: the loop stopped after the candidate that reached the limit,
the kernel stops after the chunk (the unlabeled kernel's semantics).
Of the 416 full runs 276 find embeddings, 352 intersect, and the NLF filter
prunes a candidate set in 143.

``python tests/test_labeled_goldens.py`` rewrites the file from whatever
matcher is checked out; only do that from a commit whose counters are the
reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.enumeration import EnumerationStats, LabeledEnumerator, LabeledPattern
from repro.graph import (
    community_graph,
    erdos_renyi,
    grid_road_network,
    label_randomly,
    powerlaw_cluster,
)
from repro.query.pattern import Pattern
from repro.query.patterns import CLIQUE_QUERIES, PAPER_QUERIES

GOLDENS = Path(__file__).parent / "data" / "labeled_goldens.json"

GRAPHS = {
    "er": lambda: erdos_renyi(50, 0.15, seed=5),
    "powerlaw": lambda: powerlaw_cluster(60, 3, 0.3, seed=7),
    "community": lambda: community_graph(6, 8, intra_prob=0.5, inter_edges=2, seed=3),
    "road": lambda: grid_road_network(12, 12, extra_edge_prob=0.08, seed=1),
}
CATALOGUE = {**PAPER_QUERIES, **CLIQUE_QUERIES, "vertex": Pattern(1, [])}
LIMITS = [1, 5]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _run(data, query, use_nlf: bool, limit: int | None = None) -> dict:
    stats = EnumerationStats()
    enumerator = LabeledEnumerator(data, query, use_nlf=use_nlf, stats=stats)
    rows = [list(map(int, emb)) for emb in enumerator.run(limit=limit)]
    record = {"count": len(rows), "head": rows[:3], "sha256": _digest(rows)}
    if limit is None:
        candidates = [
            enumerator._candidates[u].tolist() for u in query.pattern.vertices()
        ]
        record["stats"] = [
            stats.candidates_scanned, stats.intersections,
            stats.embeddings, stats.recursive_calls,
        ]
        record["candidates"] = [len(c) for c in candidates]
        record["candidates_sha256"] = _digest(candidates)
    return record


def compute() -> dict:
    """Every golden run, keyed ``graph/query/labels/nlf[/limit]``."""
    out: dict[str, dict] = {}
    for gname, make in GRAPHS.items():
        graph = make()
        for num_labels in (1, 2, 3, 4):
            data = label_randomly(graph, num_labels, seed=11 + num_labels)
            for q, (qname, pattern) in enumerate(CATALOGUE.items()):
                rng = np.random.default_rng(100 * num_labels + q)
                labels = rng.integers(0, num_labels, size=pattern.num_vertices)
                query = LabeledPattern(pattern, labels.tolist())
                for use_nlf in (True, False):
                    key = f"{gname}/{qname}/l{num_labels}/nlf{int(use_nlf)}"
                    out[key] = _run(data, query, use_nlf)
                if qname in ("q1", "q4", "vertex"):
                    for limit in LIMITS:
                        out[f"{gname}/{qname}/l{num_labels}/limit{limit}"] = _run(
                            data, query, True, limit
                        )
    return out


@pytest.fixture(scope="module")
def computed():
    return compute()


def test_labeled_runs_match_the_loop(computed):
    golden = json.loads(GOLDENS.read_text())
    assert sorted(computed) == sorted(golden)
    for key in golden:
        assert computed[key] == golden[key], key


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    lines = [
        f'"{key}": {json.dumps(record, sort_keys=True)}'
        for key, record in sorted(compute().items())
    ]
    GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDENS}")
