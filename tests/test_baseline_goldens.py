"""Bit-parity goldens for Multiway, Crystal and PSgL, captured from the loops.

``tests/data/baseline_goldens.json`` was written by the parent of the block
rewrite — Multiway's per-edge map loop and per-candidate ``extend`` over a
dict-of-dict-of-sets, Crystal's per-core-row ``np.intersect1d`` and nested
``combine``, PSgL's per-tuple ``owner_of`` hops — and is asserted exactly,
in the ``test_join_goldens.py`` idiom (same record, graphs, machine counts
and capacities).  What these baselines report *is* the simulation, so a
rewrite must reproduce, per run, every ``RunResult`` field, every machine's
``(clock, daemon_clock, memory_used, peak_memory, counters)``, the network
message count and byte matrix, and the allocation a capped run dies at.

The embedding list is pinned *ordered* for Crystal and PSgL.  Multiway's
order at the loop was CPython ``set`` iteration order (``for v in cands``
over a ``set[int]``), so its list is pinned *sorted*: every Multiway
counter is order-free.

The matrix is {Multiway, Multiway with a fixed share vector whose grid
(six points) exceeds every machine count, Crystal with a prebuilt
``CliqueIndex``, Crystal building its own, PSgL} x {``q1``-``q8``,
``cq1``-``cq4``, ``triangle``, ``square``, ``star3``} x four graph
families x machines {1, 3, 4} x ``memory_mb`` {None, 0.05} x collect
{on, off}, thinned by :func:`_selected` — every run that ends in a
simulated OOM is kept.  ``star3`` is there for Crystal's single-vertex
core; :func:`test_the_catalogue_reaches_every_core_path` says which query
takes which of its three core paths.

``python tests/test_baseline_goldens.py`` rewrites the file from whatever
engines are checked out; only do that from a commit whose numbers are the
reference.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.distributed import ShardWorker, SocketExecutor
from repro.engines.crystal import CliqueIndex, CrystalEngine, choose_core
from repro.engines.multiway import MultiwayJoinEngine
from repro.engines.psgl import PSgLEngine
from repro.graph import powerlaw_cluster
from repro.query.patterns import PAPER_QUERIES, star
from repro.runtime import ProcessExecutor, SerialExecutor
from test_bigjoin_goldens import GRAPHS, MACHINES, MEMORY_MB
from test_bigjoin_goldens import CATALOGUE as _CATALOGUE
from test_join_goldens import _python_calls, _record

GOLDENS = Path(__file__).parent / "data" / "baseline_goldens.json"

CATALOGUE = {**_CATALOGUE, "star3": star(3)}


class _Sorted:
    """An engine whose collected list is reported sorted (Multiway)."""

    def __init__(self, engine):
        self.engine = engine

    def run(self, *args, **kwargs):
        result = self.engine.run(*args, **kwargs)
        if result.embeddings is not None:
            result.embeddings.sort()
        return result


@lru_cache(maxsize=None)
def _index(graph) -> CliqueIndex:
    """The offline index of ``graph``, built once (amortised, as the paper's)."""
    return CliqueIndex(graph, max_size=4)


#: name -> ``(graph, pattern) -> engine``.  The fixed share vector makes a
#: 3 x 2 grid: several reducer points per machine at every machine count.
ENGINES = {
    "multiway": lambda graph, pattern: _Sorted(MultiwayJoinEngine()),
    "multiway-shares": lambda graph, pattern: _Sorted(
        MultiwayJoinEngine(shares=(3, 2) + (1,) * (pattern.num_vertices - 2))
    ),
    "crystal-index": lambda graph, pattern: CrystalEngine(_index(graph)),
    "crystal": lambda graph, pattern: CrystalEngine(),
    "psgl": lambda graph, pattern: PSgLEngine(),
}


def _cases():
    """``(key, engine, graph name, machines, query, memory_mb, collect)``,
    one cluster's runs together (a remote backend binds per cluster)."""
    for gname in GRAPHS:
        for machines in MACHINES:
            for mb in MEMORY_MB:
                for ename in ENGINES:
                    for qname in CATALOGUE:
                        for collect in (True, False):
                            yield (
                                f"{ename}/{gname}/m{machines}/{qname}"
                                f"/mb{mb}/c{int(collect)}",
                                ename, gname, machines, qname, mb, collect,
                            )


def compute(executor, keys=None) -> dict:
    """The golden record of every case (of ``keys``, when given)."""
    out: dict[str, dict] = {}
    clusters: dict[tuple, Cluster] = {}
    graphs = {name: make() for name, make in GRAPHS.items()}
    for key, ename, gname, machines, qname, mb, collect in _cases():
        if keys is not None and key not in keys:
            continue
        base = clusters.get((gname, machines, mb))
        if base is None:
            capacity = None if mb is None else int(mb * 2**20)
            base = clusters[gname, machines, mb] = Cluster.create(
                graphs[gname], machines, memory_capacity=capacity
            )
        out[key] = _record(
            ENGINES[ename](graphs[gname], CATALOGUE[qname]),
            base.fresh_copy(), CATALOGUE[qname], collect, executor,
        )
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS.read_text())


def _assert_matches(golden: dict, executor, keys) -> None:
    # Through JSON, as the goldens went: tuples become lists, keys strings.
    got = json.loads(json.dumps(compute(executor, keys)))
    assert sorted(got) == sorted(keys)
    for key in keys:
        assert got[key] == golden[key], key


def test_serial_matches_the_loops_bit_for_bit(golden):
    _assert_matches(golden, SerialExecutor(), set(golden))


def _parallel_keys(golden: dict) -> set:
    """What the process and socket backends re-run: Crystal's and PSgL's
    multi-machine collected runs of three queries — their simulated OOMs
    (a failing task's partial delta is merged and re-raised in task order)
    and their uncapped runs.  Multiway never leaves the coordinating
    thread."""
    keys = set()
    for key, record in golden.items():
        ename, _, machines, qname, mb, collect = key.split("/")
        if ename.startswith("multiway") or machines == "m1" or collect == "c0":
            continue
        if qname in ("q4", "cq3", "square") and (
            record["result"]["failed"] or mb == "mbNone"
        ):
            keys.add(key)
    return keys


def test_process_backend_matches_the_loops_bit_for_bit(golden):
    with ProcessExecutor(2) as pool:
        _assert_matches(golden, pool, _parallel_keys(golden))


def test_socket_backend_matches_the_loops_bit_for_bit(golden):
    workers = [ShardWorker().start(), ShardWorker().start()]
    try:
        with SocketExecutor(
            [w.address for w in workers], heartbeat_interval=None
        ) as executor:
            _assert_matches(golden, executor, _parallel_keys(golden))
    finally:
        for worker in workers:
            worker.close()


def test_the_catalogue_reaches_every_core_path():
    """Crystal's core comes off one of three paths; each has its queries."""
    paths = {}
    for qname, pattern in CATALOGUE.items():
        core = sorted(choose_core(pattern)[0])
        if len(core) == 1:
            paths[qname] = "vertex"
        elif all(pattern.has_edge(a, b) for a, b in combinations(core, 2)):
            paths[qname] = "index"
        else:
            paths[qname] = "general"
    assert paths["star3"] == "vertex"
    assert {q for q, path in paths.items() if path == "index"} == {
        "q2", "cq1", "cq2", "triangle",
    }
    assert paths["q4"] == paths["cq4"] == paths["square"] == "general"


@pytest.mark.parametrize("ename", ["multiway", "crystal-index", "psgl"])
def test_calls_per_run_do_not_grow_with_the_graph(ename):
    """``q4`` on twice the vertices: about twice the tuples, and at most
    1.5x the Python calls of a run that makes at most 60 000 — what no
    per-tuple Python can satisfy.  (Crystal's index is built offline, as
    the paper amortises it: outside the counted run.)"""
    pattern = PAPER_QUERIES["q4"]
    calls = {}
    for vertices in (150, 300):
        graph = powerlaw_cluster(vertices, 5, 0.3, seed=3)
        base = Cluster.create(graph, 4)
        engine = ENGINES[ename](graph, pattern)
        calls[vertices] = _python_calls(
            lambda: engine.run(
                base.fresh_copy(), pattern, collect_embeddings=False
            )
        )
    assert max(calls.values()) <= 60_000, calls
    assert calls[300] <= 1.5 * calls[150], calls


def _selected(key: str, record: dict) -> bool:
    """The thinning rule applied when the file is (re)written.

    Every simulated OOM stays.  A run that fits is the same run under
    either capacity, and collecting changes only the final gather, so the
    (query, graph) pairs are dealt round-robin to four slots: uncapped and
    collected at three machines (two slots), count-only at four, collected
    at one; the capped-but-fitting runs stay collected at three machines
    for one slot.  A prebuilt index changes who built it, not a number:
    its fitting runs stay for the index-path queries on two graphs.
    """
    ename, gname, machines, qname, mb, collect = key.split("/")
    if record["result"]["failed"]:
        return True
    if ename == "crystal-index":
        return (
            qname in ("q2", "cq1", "cq2", "triangle")
            and gname in ("er", "community")
            and (machines, mb, collect) == ("m3", "mbNone", "c1")
        )
    slot = (list(CATALOGUE).index(qname) + list(GRAPHS).index(gname)) % 4
    if mb != "mbNone":
        return (machines, collect, slot) == ("m3", "c1", 1)
    return (machines, collect) == [
        ("m3", "c1"), ("m4", "c0"), ("m3", "c1"), ("m1", "c1"),
    ][slot]


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    records = {
        key: record
        for key, record in compute(SerialExecutor()).items()
        if _selected(key, record)
    }
    GOLDENS.write_text(
        "{\n"
        + ",\n".join(
            f'"{key}": {json.dumps(record, sort_keys=True)}'
            for key, record in sorted(records.items())
        )
        + "\n}\n"
    )
    print(f"wrote {len(records)} records to {GOLDENS}")
