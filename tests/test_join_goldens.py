"""Bit-parity goldens for TwinTwig and SEED, captured from the tuple loop.

``tests/data/join_goldens.json`` was written by the parent of the columnar
``join_common`` — relations as ``dict[int, list[tuple]]``, a recursive
``descend`` per owned vertex, ``hash(key) % machines`` per tuple, a
triple-nested reduce loop — and is asserted exactly.  What the join
baselines report *is* the simulation: ``unit_ops`` / ``shuffle_ops`` /
``join_ops`` move the virtual clocks, the ``ALLOC_CHUNK`` allocations
decide ``peak_memory`` and which one raises ``SimulatedMemoryError``, and
the grouped-by-key shuffle payload is the communication volume — so a
rewrite must reproduce, per run, the ordered embedding list, every
``RunResult`` field, every machine's ``(clock, daemon_clock,
memory_used, peak_memory, counters)`` and the network message count and
byte matrix.  Both engines are schedule-free, so the same record is
asserted on the serial backend, ``ProcessExecutor(2)`` and a socket
backend over two in-process ``ShardWorker`` daemons.

The matrix is {TwinTwig, cost-oriented TwinTwig, SEED} x {``q1``-``q8``,
``cq1``-``cq4``, ``triangle``, ``square``} x four graph families x
machines {1, 3, 4} x ``memory_mb`` {None, 0.05} x collect {on, off},
thinned by :func:`_selected` — every run that ends in a simulated OOM is
kept.

``python tests/test_join_goldens.py`` rewrites the file from whatever
engine is checked out; only do that from a commit whose numbers are the
reference.

Two guards ride along: the call-count guard (Python calls per run must
not grow with the graph) and the statement that a disconnected pattern
never reaches either decomposition.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import repro
from repro.cluster import Cluster
from repro.distributed import ShardWorker, SocketExecutor
from repro.engines.seed import SEEDEngine
from repro.engines.twintwig import TwinTwigEngine
from repro.graph import community_graph
from repro.query.patterns import PAPER_QUERIES
from repro.runtime import ProcessExecutor, SerialExecutor
from test_bigjoin_goldens import CATALOGUE, GRAPHS, MACHINES, MEMORY_MB, _digest

GOLDENS = Path(__file__).parent / "data" / "join_goldens.json"

ENGINES = {
    "twintwig": TwinTwigEngine,
    "twintwig-co": lambda: TwinTwigEngine(cost_oriented=True),
    "seed": SEEDEngine,
}


def _record(engine, cluster: Cluster, pattern, collect: bool, executor) -> dict:
    result = engine.run(
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
            ENGINES[ename](), base.fresh_copy(), CATALOGUE[qname],
            collect, executor,
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
    collected runs: the simulated OOMs of three queries (a failing task's
    partial delta is merged and re-raised in task order) and the same
    queries' uncapped runs."""
    keys = set()
    for key, record in golden.items():
        _, _, machines, qname, mb, collect = key.split("/")
        if machines == "m1" or collect == "c0":
            continue
        if qname in ("q4", "cq3", "square") and (
            record["result"]["failed"] or mb == "mbNone"
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


def _python_calls(run) -> int:
    """Python + C calls of one ``run()`` after one warm run."""
    run()
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_calls_per_run_do_not_grow_with_the_graph():
    """TwinTwig x q1 on 4x the communities: 4x the tuples, the same calls
    (chunk loops aside) — what no per-tuple Python can satisfy."""
    calls = {}
    for communities in (10, 40):
        base = Cluster.create(
            community_graph(communities, 10, 0.6, 2, seed=3), 4
        )
        calls[communities] = _python_calls(
            lambda: TwinTwigEngine().run(
                base.fresh_copy(), PAPER_QUERIES["q1"],
                collect_embeddings=False,
            )
        )
    assert calls[40] <= 1.5 * calls[10], calls


@pytest.mark.parametrize("engine", ["twintwig", "seed"])
def test_disconnected_pattern_never_reaches_the_decomposition(engine):
    """Why the decompositions carry no disconnected-leftover fallback."""
    session = repro.open(GRAPHS["er"]()).engine(engine)
    with pytest.raises(
        repro.UnknownQueryError, match="pattern is not connected"
    ):
        session.query("a-b, c-d")


def _selected(key: str, record: dict) -> bool:
    """The thinning rule applied when the file is (re)written.

    Every simulated OOM stays.  A run that fits is the same run under
    either capacity, and collecting changes only the final gather: keep
    the uncapped collected runs at three machines, the count-only ones
    at four, every other query's collected run on one machine, and the
    capped-but-fitting collected runs at three.
    """
    _, _, machines, qname, mb, collect = key.split("/")
    if record["result"]["failed"]:
        return True
    if mb == "mbNone" and machines == "m1":
        return collect == "c1" and list(CATALOGUE).index(qname) % 2 == 0
    if mb == "mbNone":
        return (collect == "c1") == (machines == "m3")
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
