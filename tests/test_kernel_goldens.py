"""Counter and ordering goldens for the enumeration kernel.

``tests/data/kernel_counters.json`` was captured from the per-vertex
backtracking loop (the parent of the block kernel) and is asserted
exactly: the four :class:`EnumerationStats` counters feed the simulated
cost model, and the embedding *order* is what collected results, store
files and delta records expose — so a kernel rewrite must reproduce both
bit for bit.  Embedding lists are compared as ordered lists through a
digest of the whole list plus its first rows.

``python tests/test_kernel_goldens.py`` rewrites the file from whatever
enumerator is checked out; only do that from a commit whose counters are
the reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core.rads import RADSEngine
from repro.core.sme import SingleMachineSplit
from repro.engines.crystal import CrystalEngine
from repro.engines.single import SingleMachineEngine
from repro.enumeration import EnumerationStats, enumerate_embeddings
from repro.graph import community_graph, grid_road_network, powerlaw_cluster
from repro.query import best_execution_plan
from repro.query.patterns import CLIQUE_QUERIES, PAPER_QUERIES, square, triangle
from repro.query.symmetry import symmetry_breaking_constraints
from repro.streaming.incremental import IncrementalMatcher

GOLDENS = Path(__file__).parent / "data" / "kernel_counters.json"
MACHINES = 4

GRAPHS = {
    "road": lambda: grid_road_network(14, 14, extra_edge_prob=0.08, seed=1),
    "powerlaw": lambda: powerlaw_cluster(60, 3, 0.3, seed=7),
    "community": lambda: community_graph(6, 8, intra_prob=0.5, inter_edges=2, seed=3),
}
CATALOGUE = {**PAPER_QUERIES, **CLIQUE_QUERIES}
# Unconstrained runs lean on the injectivity filter instead of the bounds.
SMALL = {"triangle": triangle(), "square": square(), "q4": PAPER_QUERIES["q4"]}
ENGINES = {"rads": RADSEngine, "single": SingleMachineEngine, "crystal": CrystalEngine}
ENGINE_QUERIES = ["q1", "q2", "q4", "q5"]
# Rooted at touched edges: every rooted plan of a watch, attribution included.
ROOTED = [f"q{i}" for i in range(1, 7)] + list(CLIQUE_QUERIES)


def _record(embeddings, stats: EnumerationStats) -> dict:
    rows = [list(map(int, emb)) for emb in embeddings]
    return {
        "stats": [
            stats.candidates_scanned,
            stats.intersections,
            stats.embeddings,
            stats.recursive_calls,
        ],
        "count": len(rows),
        "head": rows[:3],
        "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }


def _enumerate_cases():
    for name, pattern in CATALOGUE.items():
        yield f"{name}/cons", pattern, symmetry_breaking_constraints(pattern)
    for name, pattern in SMALL.items():
        yield f"{name}/free", pattern, []


def _batches(graph, rounds: int = 4):
    """Deterministic mixed batches: (additions, deletions, old, new)."""
    rng = np.random.default_rng(11)
    n = graph.num_vertices
    for _ in range(rounds):
        present = list(graph.edges())
        picks = rng.choice(len(present), size=5, replace=False)
        deletions = [present[i] for i in sorted(picks)]
        additions = []
        while len(additions) < 6:
            u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
            if u != v and not graph.has_edge(u, v) and (u, v) not in additions:
                additions.append((u, v))
        new = graph.apply_batch(additions, deletions)
        yield additions, deletions, graph, new
        graph = new


def _rooted_batches(graph):
    """Edge lists the first-touched-edge attribution has to get right.

    ``listed``: present edges around the two largest hubs, in descending
    order (every edge after the first follows one it shares embeddings
    with), one of them twice, then a non-edge and a self-loop pair.
    ``star``: a delta whose additions share a hub and whose deletions share
    another.  ``wide``: 32 additions and 32 deletions, the widest seed block
    a stream sees.
    """
    rng = np.random.default_rng(23)
    n = graph.num_vertices
    present = list(graph.edges())
    hub, second = np.argsort(-graph.degrees(), kind="stable")[:2].tolist()
    around = sorted(
        (e for e in present if hub in e or second in e), reverse=True
    )[:7]
    absent = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if not graph.has_edge(u, v)
    ]
    listed = around + [around[1], absent[0], (hub, hub)]
    yield "listed", listed, [], graph, graph

    additions = [e for e in absent if hub in e][:4][::-1]
    deletions = [e for e in present if second in e and hub not in e][:4][::-1]
    yield "star", additions, deletions, graph, graph.apply_batch(additions, deletions)

    picks = rng.permutation(len(present))[:32]
    deletions = [present[i] for i in picks]
    picks = rng.permutation(len(absent))[:32]
    additions = [absent[i] for i in picks]
    yield "wide", additions, deletions, graph, graph.apply_batch(additions, deletions)


def compute() -> dict:
    """Every golden section, keyed ``graph/query/...``."""
    out: dict[str, dict] = {
        "enumerate": {}, "sme": {}, "owned": {}, "delta": {}, "engines": {},
        "rooted": {},
    }
    for gname, make in GRAPHS.items():
        graph = make()
        for case, pattern, cons in _enumerate_cases():
            stats = EnumerationStats()
            found = enumerate_embeddings(
                graph.neighbors, graph.vertices(), pattern, cons, stats=stats
            )
            out["enumerate"][f"{gname}/{case}"] = _record(found, stats)

        cluster = Cluster.create(graph, MACHINES)
        for qname, pattern in CATALOGUE.items():
            cons = symmetry_breaking_constraints(pattern)
            plan = best_execution_plan(pattern)
            split = SingleMachineSplit(pattern, plan, cons)
            for t in range(MACHINES):
                local = cluster.partition.machine(t)
                fresh = cluster.fresh_copy()
                result = split.run(local, fresh.machine(t))
                record = _record(result.embeddings, result.stats)
                record["c1"] = [int(v) for v in result.local_candidates]
                record["distributed"] = [
                    int(v) for v in result.distributed_candidates
                ]
                record["sme_ops"] = int(fresh.machine(t).counters["sme_ops"])
                out["sme"][f"{gname}/{qname}/m{t}"] = record
                # Rooted at every owned vertex the ownership filter bites.
                stats = EnumerationStats()
                found = enumerate_embeddings(
                    graph.neighbors, local.owned_vertices, pattern, cons,
                    order=plan.matching_order(), allowed=local.owned_mask,
                    stats=stats,
                )
                out["owned"][f"{gname}/{qname}/m{t}"] = _record(found, stats)

        for ename, engine_cls in ENGINES.items():
            for qname in ENGINE_QUERIES:
                result = engine_cls().run(
                    cluster.fresh_copy(), CATALOGUE[qname],
                    collect_embeddings=True,
                )
                record = _record(result.embeddings, EnumerationStats())
                del record["stats"]
                record["makespan"] = result.makespan
                record["counters"] = dict(sorted(result.counters.items()))
                out["engines"][f"{gname}/{ename}/{qname}"] = record

        for wname, pattern in SMALL.items():
            matcher = IncrementalMatcher(pattern)
            for i, (additions, deletions, old, new) in enumerate(_batches(graph)):
                stats = EnumerationStats()
                added, removed = matcher.delta(
                    old, new, additions, deletions, stats=stats
                )
                record = _record(added, stats)
                record["removed"] = _record(removed, stats)
                del record["removed"]["stats"]
                out["delta"][f"{gname}/{wname}/b{i}"] = record

        for qname in ROOTED:
            matcher = IncrementalMatcher(CATALOGUE[qname])
            for case, additions, deletions, old, new in _rooted_batches(graph):
                stats = EnumerationStats()
                added = matcher.matches_using(new, additions, stats=stats)
                record = _record(added, stats)
                stats = EnumerationStats()
                removed = matcher.matches_using(old, deletions, stats=stats)
                record["removed"] = _record(removed, stats)
                out["rooted"][f"{gname}/{qname}/{case}"] = record
    return out


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.mark.parametrize(
    "section", ["enumerate", "sme", "owned", "delta", "engines", "rooted"]
)
def test_counters_and_order_match_parent(computed, section):
    golden = json.loads(GOLDENS.read_text())[section]
    got = computed[section]
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    sections = [
        f'"{name}": {{\n'
        + ",\n".join(
            f'"{key}": {json.dumps(record, sort_keys=True)}'
            for key, record in sorted(section.items())
        )
        + "\n}"
        for name, section in sorted(compute().items())
    ]
    GOLDENS.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {GOLDENS}")
