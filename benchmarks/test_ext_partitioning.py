"""Extension bench: partitioning sensitivity of RADS.

Not a paper figure, but a paper dependency: RADS's SM-E split (Sec. 3.1)
lives or dies by partition locality — border distance must reach the query
span for a candidate to stay out of the distributed phase.  The paper
simply uses METIS; this bench quantifies what that choice buys by racing
the METIS-like multilevel partitioner against hash partitioning (no
locality) and label propagation (cheap locality) on the same graphs.
"""

from conftest import run_once

from repro.bench.experiments import bench_graph
from repro.cluster import Cluster
from repro.core.rads import RADSEngine
from repro.partition.label_propagation import LabelPropagationPartitioner
from repro.partition.metis_like import MetisLikePartitioner
from repro.partition.partitioner import HashPartitioner, edge_cut
from repro.query import paper_query

DATASETS = ["roadnet", "dblp"]
QUERY = "q4"
PARTITIONERS = {
    "metis-like": lambda: MetisLikePartitioner(seed=0),
    "label-prop": lambda: LabelPropagationPartitioner(seed=0),
    "hash": lambda: HashPartitioner(seed=0),
}


def run_grid():
    rows = []
    pattern = paper_query(QUERY)
    for dataset in DATASETS:
        graph = bench_graph(dataset)
        row = {"dataset": dataset}
        counts = set()
        for label, factory in PARTITIONERS.items():
            cluster = Cluster.create(graph, 10, partitioner=factory())
            partition = cluster.partition
            borders = sum(len(m.border_vertices) for m in partition.machines())
            result = RADSEngine().run(
                cluster, pattern, collect_embeddings=False
            )
            assert not result.failed
            counts.add(result.embedding_count)
            sme = result.counters.get("sme_embeddings", 0)
            row[label] = {
                "cut": edge_cut(graph, partition.owner) / max(1, graph.num_edges),
                "border": borders / max(1, graph.num_vertices),
                "time": result.makespan,
                "comm": result.total_comm_bytes,
                "sme": sme,
                "total": result.embedding_count,
            }
        assert len(counts) == 1, "partitioner changed the result set"
        rows.append(row)
    return rows


def format_rows(rows):
    lines = [
        f"Extension - partitioning sensitivity (RADS, {QUERY}, 10 machines)",
        f"{'dataset':<12}{'partitioner':<13}{'cut%':>7}{'border%':>9}"
        f"{'SM-E%':>8}{'time(s)':>10}{'comm(KB)':>11}",
    ]
    for row in rows:
        for label in PARTITIONERS:
            cell = row[label]
            sme_pct = 100.0 * cell["sme"] / max(1, cell["total"])
            lines.append(
                f"{row['dataset']:<12}{label:<13}"
                f"{100 * cell['cut']:>7.1f}{100 * cell['border']:>9.1f}"
                f"{sme_pct:>8.1f}{cell['time']:>10.4f}"
                f"{cell['comm'] / 1024:>11.1f}"
            )
    return "\n".join(lines)


def test_ext_partitioning(benchmark, report):
    rows = run_once(benchmark, run_grid)
    report("ext_partitioning", format_rows(rows))

    for row in rows:
        # Locality-aware partitioners cut fewer edges than hashing...
        assert row["metis-like"]["cut"] < row["hash"]["cut"]
        # ...which shows up as less RADS traffic.
        assert row["metis-like"]["comm"] < row["hash"]["comm"]
    # On the road network the effect is dramatic: hash partitioning makes
    # nearly every vertex a border vertex, killing SM-E entirely.
    road = rows[0]
    assert road["metis-like"]["border"] < 0.5
    assert road["hash"]["border"] > 0.9
    assert road["metis-like"]["sme"] > road["hash"]["sme"]
