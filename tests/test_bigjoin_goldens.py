"""Bit-parity goldens for BigJoin, captured from the per-prefix loop.

``tests/data/bigjoin_goldens.json`` was written by the parent of the
block engine — one Python iteration per in-flight prefix, one
``np.intersect1d`` per hop — and is asserted exactly.  What BigJoin
reports *is* the simulation: ``intersect_ops`` / ``extend_ops`` move the
virtual clocks, the per-task ``allocate`` / ``free`` byte sums decide
``peak_memory`` and which allocation raises ``SimulatedMemoryError``,
and the shuffle payload matrix is the communication volume — so a
rewrite must reproduce, per run, the ordered embedding list, every
``RunResult`` field, every machine's ``(clock, daemon_clock,
memory_used, peak_memory, counters)`` and the network message count and
byte matrix.  BigJoin is schedule-free, so the same record is asserted on
the serial backend, ``ProcessExecutor(2)`` and a socket backend over two
in-process ``ShardWorker`` daemons.

The matrix is BigJoin x {``q1``-``q8``, ``cq1``-``cq4``, ``triangle``,
``square``} x four graph families x machines {1, 3, 4} x ``memory_mb``
{None, 0.05} x collect {on, off}, thinned by :func:`_selected` — every
run that ends in a simulated OOM is kept.

``python tests/test_bigjoin_goldens.py`` rewrites the file from whatever
engine is checked out; only do that from a commit whose numbers are the
reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.distributed import ProcessExecutor, ShardWorker, SocketExecutor
from repro.engines.bigjoin import BigJoinEngine
from repro.graph import (
    community_graph,
    erdos_renyi,
    grid_road_network,
    powerlaw_cluster,
)
from repro.query.patterns import CLIQUE_QUERIES, PAPER_QUERIES, square, triangle
from repro.runtime import SerialExecutor

GOLDENS = Path(__file__).parent / "data" / "bigjoin_goldens.json"

GRAPHS = {
    "er": lambda: erdos_renyi(90, 0.1, seed=41),
    "powerlaw": lambda: powerlaw_cluster(120, 3, seed=42),
    "community": lambda: community_graph(20, 10, 0.6, 2, seed=3),
    "road": lambda: grid_road_network(12, 12, extra_edge_prob=0.1, seed=1),
}
CATALOGUE = {
    **PAPER_QUERIES, **CLIQUE_QUERIES,
    "triangle": triangle(), "square": square(),
}
MACHINES = [1, 3, 4]
MEMORY_MB = [None, 0.05]


def _digest(embeddings) -> dict:
    """The ordered list: its length, first rows and a hash of all of it."""
    rows = np.array(embeddings, dtype=np.int64).reshape(
        len(embeddings), -1 if embeddings else 0
    )
    return {
        "count": len(rows),
        "head": rows[:2].tolist(),
        "sha256": hashlib.sha256(rows.tobytes()).hexdigest(),
    }


def _record(cluster: Cluster, pattern, collect: bool, executor) -> dict:
    result = BigJoinEngine().run(
        cluster, pattern, collect_embeddings=collect, executor=executor
    )
    record = result.to_dict()
    embeddings = record.pop("embeddings")
    record["counters"] = dict(sorted(record["counters"].items()))
    out = {
        "result": record,
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
    if embeddings is not None:
        out["embeddings"] = _digest(embeddings)
    return out


def _cases():
    """``(key, graph name, machines, query, memory_mb, collect)``, one
    cluster's runs together (a remote backend binds per cluster)."""
    for gname in GRAPHS:
        for machines in MACHINES:
            for mb in MEMORY_MB:
                for qname in CATALOGUE:
                    for collect in (True, False):
                        yield (
                            f"{gname}/m{machines}/{qname}/mb{mb}/c{int(collect)}",
                            gname, machines, qname, mb, collect,
                        )


def compute(executor, keys=None) -> dict:
    """The golden record of every case (of ``keys``, when given)."""
    out: dict[str, dict] = {}
    clusters: dict[tuple, Cluster] = {}
    graphs = {name: make() for name, make in GRAPHS.items()}
    for key, gname, machines, qname, mb, collect in _cases():
        if keys is not None and key not in keys:
            continue
        base = clusters.get((gname, machines, mb))
        if base is None:
            capacity = None if mb is None else int(mb * 2**20)
            base = clusters[gname, machines, mb] = Cluster.create(
                graphs[gname], machines, memory_capacity=capacity
            )
        out[key] = _record(
            base.fresh_copy(), CATALOGUE[qname], collect, executor
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


def test_serial_matches_the_loop_bit_for_bit(golden):
    _assert_matches(golden, SerialExecutor(), set(golden))


def _parallel_keys(golden: dict) -> set:
    """What the process and socket backends re-run, of the multi-machine
    runs: every simulated OOM (a failing task's partial delta is merged
    and re-raised in task order) and three queries' collected runs."""
    keys = set()
    for key, record in golden.items():
        _, machines, qname, mb, collect = key.split("/")
        if machines == "m1" or collect == "c0":
            continue
        if record["result"]["failed"] or (
            mb == "mbNone" and qname in ("q4", "cq3", "square")
        ):
            keys.add(key)
    return keys


def test_process_backend_matches_the_loop_bit_for_bit(golden):
    with ProcessExecutor(2) as pool:
        _assert_matches(golden, pool, _parallel_keys(golden))


def test_socket_backend_matches_the_loop_bit_for_bit(golden):
    workers = [ShardWorker().start(), ShardWorker().start()]
    try:
        with SocketExecutor(
            [w.address for w in workers], heartbeat_interval=None
        ) as executor:
            _assert_matches(golden, executor, _parallel_keys(golden))
    finally:
        for worker in workers:
            worker.close()


def _selected(key: str, record: dict) -> bool:
    """The thinning rule applied when the file is (re)written.

    Every simulated OOM stays.  A run that fits is the same run under
    either capacity, and collecting changes only the last step: keep the
    uncapped collected runs, the count-only ones at four machines and
    the capped-but-fitting ones at three.
    """
    _, machines, _, mb, collect = key.split("/")
    if record["result"]["failed"]:
        return True
    if mb == "mbNone":
        return collect == "c1" or machines == "m4"
    return collect == "c1" and machines == "m3"


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
