"""Ablation bench: proximity region grouping vs. naive random grouping.

Paper Sec. 6 (Fig. 6): random grouping "may put vertices that are
dissimilar to each other into the same group, potentially resulting in
more network communication cost", while proximity grouping maximises the
sharing of edge verifications and foreign-vertex fetches inside a group.

The foreign-vertex cache is throttled here: a generous cache also captures
*cross*-group sharing, which would mask the grouping signal this ablation
isolates.
"""

from conftest import run_once

from repro.api.config import RunConfig
from repro.bench.experiments import bench_graph
from repro.core.rads import RADSEngine
from repro.query import paper_query

QUERIES = ["q2", "q4", "q5"]
DATASETS = ["dblp", "livejournal"]
TINY_CACHE = 1e-9


def run_grid():
    rows = []
    for dataset in DATASETS:
        graph = bench_graph(dataset)
        base = RunConfig(machines=10).make_cluster(graph)
        for qname in QUERIES:
            pattern = paper_query(qname)
            row = {"dataset": dataset, "query": qname}
            counts = set()
            for label, strategy in (
                ("proximity", "proximity"), ("random", "random")
            ):
                engine = RADSEngine(
                    grouping=strategy, cache_budget_fraction=TINY_CACHE
                )
                result = engine.run(
                    base.fresh_copy(), pattern, collect_embeddings=False
                )
                assert not result.failed
                counts.add(result.embedding_count)
                row[label] = {
                    "time": result.makespan,
                    "comm": result.total_comm_bytes,
                }
            assert len(counts) == 1, "grouping changed the result set"
            rows.append(row)
    return rows


def format_rows(rows):
    lines = [
        "Ablation - region grouping strategy (cache throttled)",
        f"{'dataset/query':<20}{'proximity t/comm(KB)':>24}"
        f"{'random t/comm(KB)':>24}{'comm ratio':>12}",
    ]
    for row in rows:
        ratio = row["random"]["comm"] / max(1, row["proximity"]["comm"])
        lines.append(
            f"{row['dataset'] + '/' + row['query']:<20}"
            f"{row['proximity']['time']:>12.4f}/"
            f"{row['proximity']['comm'] / 1024:>9.1f}"
            f"{row['random']['time']:>14.4f}/"
            f"{row['random']['comm'] / 1024:>9.1f}"
            f"{ratio:>12.2f}"
        )
    return "\n".join(lines)


def test_ablation_grouping(benchmark, report):
    rows = run_once(benchmark, run_grid)
    report("ablation_grouping", format_rows(rows))

    # Proximity grouping never loses on traffic, and wins in aggregate.
    total_proximity = sum(r["proximity"]["comm"] for r in rows)
    total_random = sum(r["random"]["comm"] for r in rows)
    assert total_proximity < total_random
    for row in rows:
        assert row["proximity"]["comm"] <= 1.1 * row["random"]["comm"]
