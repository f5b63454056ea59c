"""Ablation bench: how much each RADS design choice contributes.

Not a paper figure: this bench isolates three RADS design choices — SM-E
(Sec. 3.1), the foreign-vertex cache (Sec. 3.2/Appendix B) and
checkR/shareR work stealing — each on the dataset where it should matter
most.
"""

from conftest import run_once

from repro.api.config import RunConfig
from repro.bench.experiments import bench_graph
from repro.core.rads import RADSEngine
from repro.query import paper_query


def run_variants():
    variants = {
        "full": RADSEngine(),
        "no-SM-E": RADSEngine(enable_sme=False),
        "no-steal": RADSEngine(enable_work_stealing=False),
        "no-cache": RADSEngine(cache_budget_fraction=1e-9),
    }
    rows = []
    for dataset_name, qname in (("roadnet", "q1"), ("dblp", "q5")):
        graph = bench_graph(dataset_name)
        base = RunConfig(machines=10).make_cluster(graph)
        row = {"dataset": dataset_name, "query": qname}
        counts = set()
        for label, engine in variants.items():
            result = engine.run(
                base.fresh_copy(), paper_query(qname),
                collect_embeddings=False,
            )
            counts.add(result.embedding_count)
            row[label] = {
                "time": result.makespan,
                "comm": result.total_comm_bytes,
                "peak": result.peak_memory,
            }
        assert len(counts) == 1, "ablations changed the result set"
        rows.append(row)
    return rows


def format_rows(rows):
    variants = ["full", "no-SM-E", "no-steal", "no-cache"]
    lines = ["Ablation - RADS design choices (time s / comm KB / peak MB)"]
    lines.append(
        f"{'dataset/query':<18}"
        + "".join(f"{v:>26}" for v in variants)
    )
    for row in rows:
        cells = "".join(
            f"{row[v]['time']:>10.4f}/{row[v]['comm'] / 1024:>7.1f}"
            f"/{row[v]['peak'] / 1e6:>6.1f}"
            for v in variants
        )
        lines.append(f"{row['dataset'] + '/' + row['query']:<18}{cells}")
    return "\n".join(lines)


def test_ablation_rads(benchmark, report):
    rows = run_once(benchmark, run_variants)
    report("ablation_rads", format_rows(rows))

    road = rows[0]
    # SM-E is the headline win on road networks: interior candidates are
    # communication-free either way, but SM-E streams their results instead
    # of paying R-Meef's trie/verification machinery — time and peak memory
    # must rise without it.
    # (At this simulation scale the time delta is within noise — the
    # memory delta is the robust signal.)
    assert road["no-SM-E"]["time"] >= road["full"]["time"] * 0.99
    assert road["no-SM-E"]["peak"] > road["full"]["peak"]
    # The cache is what keeps fetch traffic down (Exp-2's explanation).
    assert road["no-cache"]["comm"] > 1.5 * road["full"]["comm"]
    dblp = rows[1]
    assert dblp["no-cache"]["comm"] > 1.05 * dblp["full"]["comm"]
