"""Bit-parity goldens for R-Meef, captured from the per-candidate loop.

``tests/data/rmeef_goldens.json`` was written by the recursive
``_expand_unit`` worker (the parent of the block kernel, with the
charge-before-insert cache fix) and is asserted exactly.  What R-Meef
reports *is* the simulation: ``rmeef_ops`` and every RPC move the virtual
clocks, the 16 KiB trie-accounting steps decide ``peak_memory`` and which
allocation raises ``SimulatedMemoryError``, and that in turn decides the
split-and-retry tree — so a rewrite must reproduce, per run, the ordered
embedding list, every ``RunResult`` field, every machine's ``(clock,
daemon_clock, memory_used, peak_memory, counters)`` and the network
message count and byte matrix.

Sections: ``matrix`` is RADS x 12 catalogue queries x 4 graphs x
``memory_mb`` {None, 0.25, 0.0625} x collect {on, off}; the others reach
what the default budgets never do — groups that split and retry after a
simulated OOM (and succeed), starved caches (round-start fetches
evict, pivots are re-fetched on demand), stolen groups whose start
candidates are foreign, flush thresholds of a few nodes, SM-E off, and
the process backend's prebalanced path.

``python tests/test_rmeef_goldens.py`` rewrites the file from whatever
worker is checked out; only do that from a commit whose numbers are the
reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.machine import SimulatedMemoryError
from repro.core.cache import ForeignVertexCache
from repro.core.rads import RADSEngine, _process_group_splitting
from repro.core.rmeef import RMeefWorker
from repro.core.sme import SingleMachineSplit
from repro.graph import community_graph, grid_road_network, powerlaw_cluster
from repro.query import best_execution_plan
from repro.query.patterns import CLIQUE_QUERIES, PAPER_QUERIES
from repro.query.symmetry import symmetry_breaking_constraints
from repro.runtime import ProcessExecutor

GOLDENS = Path(__file__).parent / "data" / "rmeef_goldens.json"
MACHINES = 4

GRAPHS = {
    "road": lambda: grid_road_network(14, 14, extra_edge_prob=0.08, seed=1),
    "powerlaw": lambda: powerlaw_cluster(60, 3, 0.3, seed=7),
    "community": lambda: community_graph(6, 8, intra_prob=0.5, inter_edges=2, seed=3),
    "dense": lambda: powerlaw_cluster(40, 5, 0.3, seed=5),
}
CATALOGUE = {**PAPER_QUERIES, **CLIQUE_QUERIES}
MEMORY_MB = [None, 0.25, 0.0625]
# The regimes beyond the matrix run a few queries with one, two and three
# decomposition units, and a clique (deferred edges on every position).
REGIME_QUERIES = ["q2", "q4", "q5", "q7", "cq2"]
OOM_GRAPHS = ("powerlaw", "dense")
OOM_BUDGETS = [(0.125, 2.0), (0.25, 8.0)]  # (memory_mb, results_budget_fraction)


def _capacity(memory_mb: float | None) -> int | None:
    return None if memory_mb is None else int(memory_mb * 2**20)


def _digest(embeddings) -> dict:
    """The ordered list: its length, first rows and a hash of all of it."""
    rows = np.array(embeddings, dtype=np.int64).reshape(len(embeddings), -1 if embeddings else 0)
    return {
        "count": len(rows),
        "head": rows[:2].tolist(),
        "sha256": hashlib.sha256(rows.tobytes()).hexdigest(),
    }


def _cluster_state(cluster: Cluster) -> dict:
    return {
        "machines": [
            [
                m.clock, m.daemon_clock, m.memory_used, m.peak_memory,
                dict(sorted(m.counters.items())),
            ]
            for m in cluster.machines
        ],
        "messages": int(cluster.network.messages),
        "bytes_sent": cluster.network.bytes_sent.tolist(),
    }


def _engine_record(cluster: Cluster, engine: RADSEngine, pattern, collect, **run) -> dict:
    result = engine.run(cluster, pattern, collect_embeddings=collect, **run)
    # The list is digested as it is; `to_dict` would copy every row first.
    embeddings, result.embeddings = result.embeddings, None
    record = result.to_dict()
    del record["embeddings"]
    record["counters"] = dict(sorted(record["counters"].items()))
    out = {"result": record, **_cluster_state(cluster)}
    if embeddings is not None:
        out["embeddings"] = _digest(embeddings)
    return out


def _worker_record(
    cluster: Cluster, pattern, executor_id: int, group, cache_budget, flush
) -> dict:
    """One region group through one worker, split-and-retry included."""
    plan = best_execution_plan(pattern)
    cons = symmetry_breaking_constraints(pattern)
    worker = RMeefWorker(
        cluster, pattern, plan, cons, executor_id,
        ForeignVertexCache(cache_budget), flush_threshold=flush,
    )
    found: list[tuple[int, ...]] = []
    try:
        count = _process_group_splitting(worker, list(group), True, found)
        failure = None
    except SimulatedMemoryError as exc:
        count, failure = -1, str(exc)
    return {
        "count": count, "failure": failure, "embeddings": _digest(found),
        "cache": [worker._cache.bytes_used, worker._cache.evictions],
        **_cluster_state(cluster),
    }


def _distributed(cluster: Cluster, pattern, t: int) -> list[int]:
    plan = best_execution_plan(pattern)
    cons = symmetry_breaking_constraints(pattern)
    return SingleMachineSplit(pattern, plan, cons).split(cluster.partition.machine(t))[1]


def compute(matrix=lambda gname, memory_mb: True, regimes=REGIME_QUERIES) -> dict:
    """Every golden section, keyed ``graph/query/...``; of the matrix, the
    ``(graph, memory_mb)`` cells that ``matrix`` selects; the regimes
    beyond it, for the queries ``regimes``."""
    out: dict[str, dict] = {
        "matrix": {}, "starved": {}, "stolen": {}, "flush": {}, "nosme": {},
        "process": {}, "oom": {},
    }
    pool = ProcessExecutor(2)
    try:
        for gname, make in GRAPHS.items():
            graph = make()
            clusters = {
                mb: Cluster.create(graph, MACHINES, memory_capacity=_capacity(mb))
                for mb in MEMORY_MB
            }
            for qname, pattern in CATALOGUE.items():
                for mb, base in clusters.items():
                    if not matrix(gname, mb):
                        continue
                    for collect in (True, False):
                        out["matrix"][f"{gname}/{qname}/mb{mb}/c{int(collect)}"] = (
                            _engine_record(base.fresh_copy(), RADSEngine(), pattern, collect)
                        )
            if gname in OOM_GRAPHS:
                # Region groups sized past the capacity: the estimate is
                # wrong on purpose, so groups split and retry (and succeed).
                for qname, pattern in CATALOGUE.items():
                    for mb, fraction in OOM_BUDGETS:
                        base = Cluster.create(graph, MACHINES, memory_capacity=_capacity(mb))
                        out["oom"][f"{gname}/{qname}/mb{mb}/f{fraction}"] = _engine_record(
                            base,
                            RADSEngine(results_budget_fraction=fraction, min_groups_per_machine=1),
                            pattern, True,
                        )
            for qname in regimes:
                pattern = CATALOGUE[qname]
                free, capped = clusters[None], clusters[0.25]
                # A cache of a few hundred bytes: round-start fetches evict
                # each other and pivots are fetched again on demand.
                for fraction in (0.002, 0.0002):
                    out["starved"][f"{gname}/{qname}/engine/f{fraction}"] = _engine_record(
                        capped.fresh_copy(),
                        RADSEngine(cache_budget_fraction=fraction), pattern, True,
                    )
                group = _distributed(free, pattern, 1)
                for budget in (0, 64, 400):
                    # Machine 1's candidates on machine 0: foreign starts.
                    out["starved"][f"{gname}/{qname}/worker/b{budget}"] = _worker_record(
                        free.fresh_copy(), pattern, 0, group, budget, 4 << 20
                    )
                for label, cluster in (("free", free), ("capped", clusters[0.0625])):
                    out["stolen"][f"{gname}/{qname}/{label}"] = _worker_record(
                        cluster.fresh_copy(), pattern, 0, group, None, 4 << 20
                    )
                home = _distributed(free, pattern, 0)
                for flush in (1, 500, 5000):
                    out["flush"][f"{gname}/{qname}/home/t{flush}"] = _worker_record(
                        free.fresh_copy(), pattern, 0, home, None, flush
                    )
                    out["flush"][f"{gname}/{qname}/stolen/t{flush}"] = _worker_record(
                        free.fresh_copy(), pattern, 0, group, 400, flush
                    )
                out["flush"][f"{gname}/{qname}/engine"] = _engine_record(
                    capped.fresh_copy(),
                    RADSEngine(results_budget_fraction=0.002), pattern, True,
                )
                for mb in (None, 0.0625):
                    out["nosme"][f"{gname}/{qname}/mb{mb}"] = _engine_record(
                        clusters[mb].fresh_copy(),
                        RADSEngine(enable_sme=False), pattern, True,
                    )
                    out["process"][f"{gname}/{qname}/mb{mb}"] = _engine_record(
                        clusters[mb].fresh_copy(), RADSEngine(), pattern, True,
                        executor=pool,
                    )
    finally:
        pool.close()
    return out


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.mark.parametrize(
    "section", ["matrix", "starved", "stolen", "flush", "nosme", "process", "oom"]
)
def test_rmeef_matches_the_loop_bit_for_bit(computed, section):
    # Through JSON, as the goldens went: tuples become lists, keys strings.
    golden = json.loads(GOLDENS.read_text())[section]
    got = json.loads(json.dumps(computed[section]))
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


def test_with_every_timeline_built_the_records_are_the_same(monkeypatch):
    """The certificate only ever skips work.  Forced false, every chunk
    builds its entry timeline — where ``_chunk`` asserts that the entries
    sum to the conservation sums — and the loop's records still come out:
    every regime section (less the two six-vertex regime queries, most of
    whose cost is listing 10^5 embeddings) and a thin slice of the matrix
    (all twelve queries, the sparsest and the densest graph, no cap and
    the tightest)."""
    import repro.core.rmeef as rmeef

    monkeypatch.setattr(rmeef, "_within_step", lambda low, high: False)
    golden = json.loads(GOLDENS.read_text())
    thin = compute(
        lambda gname, mb: gname in ("dense", "road") and mb != 0.25,
        regimes=["q2", "q4", "cq2"],
    )
    for section, records in json.loads(json.dumps(thin)).items():
        # 96 matrix records; three of the five regime queries, all of `oom`.
        assert len(records) == 96 or 5 * len(records) >= 3 * len(golden[section])
        for key, record in records.items():
            assert record == golden[section][key], key


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
