"""Extension bench: the Sec. 8 related-work baselines RADS never raced.

The paper dismisses two more families qualitatively; this bench puts
numbers behind both dismissals:

- Afrati-Ullman single-round multiway join [1]: "most edges have to be
  duplicated over several machines in the map phase, hence there is a
  scalability problem when the query pattern is complex".
- Fan et al. d-hop replication [6, 5]: on small-diameter graphs "the
  entire partition of the neighboring machine may have to be fetched",
  straining network and memory.
"""

from conftest import run_once

from repro.api.config import RunConfig
from repro.bench.experiments import bench_graph
from repro.core.rads import RADSEngine
from repro.engines import MultiwayJoinEngine, ReplicationEngine
from repro.query import paper_query

QUERIES = ["q1", "q2", "q4", "q8"]
DATASETS = ["roadnet", "dblp"]


def run_grid():
    rows = []
    for dataset in DATASETS:
        graph = bench_graph(dataset)
        base = RunConfig(machines=10).make_cluster(graph)
        for qname in QUERIES:
            pattern = paper_query(qname)
            engines = {
                "RADS": RADSEngine(),
                "Multiway": MultiwayJoinEngine(),
                "Replication": ReplicationEngine(),
            }
            row = {"dataset": dataset, "query": qname}
            counts = set()
            for label, engine in engines.items():
                result = engine.run(
                    base.fresh_copy(), pattern, collect_embeddings=False
                )
                assert not result.failed, f"{label} failed on {dataset}/{qname}"
                counts.add(result.embedding_count)
                row[label] = {
                    "time": result.makespan,
                    "comm": result.total_comm_bytes,
                    "peak": result.peak_memory,
                }
            assert len(counts) == 1, f"count mismatch on {dataset}/{qname}"
            rows.append(row)
    return rows


def format_rows(rows):
    engines = ["RADS", "Multiway", "Replication"]
    lines = [
        "Extension - related-work baselines (10 machines, simulated)",
        f"{'dataset/query':<16}"
        + "".join(f"{e + ' t(s)/comm(KB)':>28}" for e in engines),
    ]
    for row in rows:
        cells = "".join(
            f"{row[e]['time']:>14.4f}/{row[e]['comm'] / 1024:>12.1f}"
            for e in engines
        )
        lines.append(f"{row['dataset'] + '/' + row['query']:<16}{cells}")
    return "\n".join(lines)


def test_ext_baselines(benchmark, report):
    rows = run_once(benchmark, run_grid)
    report("ext_baselines", format_rows(rows))

    by_key = {(r["dataset"], r["query"]): r for r in rows}
    # Shape 1: multiway replication bites hardest on the most complex
    # query — its traffic on q8 (6 vertices, 9 edges) dwarfs RADS' on
    # every dataset.
    for dataset in DATASETS:
        row = by_key[(dataset, "q8")]
        assert row["Multiway"]["comm"] > 10 * row["RADS"]["comm"]
    # Shape 2: d-hop replication is cheap on the huge-diameter road
    # network but heavy on the dense small-diameter graph.
    road = by_key[("roadnet", "q4")]
    dblp = by_key[("dblp", "q4")]
    assert dblp["Replication"]["comm"] > 2 * dblp["RADS"]["comm"]
    assert (
        dblp["Replication"]["comm"] / (dblp["RADS"]["comm"] + 1)
        > road["Replication"]["comm"] / (road["RADS"]["comm"] + 1)
    )
    # Shape 3: RADS wins or ties on time on the road network, where SM-E
    # absorbs nearly everything.
    for qname in QUERIES:
        row = by_key[("roadnet", qname)]
        assert row["RADS"]["time"] <= 1.5 * min(
            row["Multiway"]["time"], row["Replication"]["time"]
        )
