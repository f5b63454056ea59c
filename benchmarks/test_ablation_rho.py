"""Ablation bench: the score-function exponent rho (paper Sec. 4.3).

Eq. 3 weights verification edges by ``1 / (i+1)^rho``; the paper states
"in our experiments we use rho = 1" without justification.  This bench
sweeps rho and records what that choice costs or buys: rho = 0 ignores
round position entirely, large rho cares only about the first round.
"""

from conftest import run_once

from repro.api.config import RunConfig
from repro.bench.experiments import bench_graph
from repro.core.rads import RADSEngine
from repro.query import paper_query
from repro.query.plan import best_execution_plan

RHOS = [0.0, 0.5, 1.0, 2.0, 4.0]
QUERIES = ["q4", "q5", "q6", "q7", "q8"]
DATASET = "dblp"


def run_sweep():
    graph = bench_graph(DATASET)
    base = RunConfig(machines=10).make_cluster(graph)
    table: dict[float, dict[str, float]] = {}
    counts: dict[str, set[int]] = {q: set() for q in QUERIES}
    for rho in RHOS:
        row: dict[str, float] = {}
        for qname in QUERIES:
            engine = RADSEngine(
                plan_provider=lambda p, _rho=rho: best_execution_plan(p, _rho)
            )
            result = engine.run(
                base.fresh_copy(), paper_query(qname),
                collect_embeddings=False,
            )
            assert not result.failed
            counts[qname].add(result.embedding_count)
            row[qname] = result.makespan
        table[rho] = row
    for qname, seen in counts.items():
        assert len(seen) == 1, f"rho changed the result set on {qname}"
    return table


def format_table(table):
    lines = [
        f"Ablation - plan score exponent rho ({DATASET}, RADS time in ms)",
        f"{'rho':>6}" + "".join(f"{q:>10}" for q in QUERIES)
        + f"{'total':>10}",
    ]
    for rho, row in table.items():
        total = sum(row.values())
        lines.append(
            f"{rho:>6.1f}"
            + "".join(f"{row[q] * 1e3:>10.3f}" for q in QUERIES)
            + f"{total * 1e3:>10.3f}"
        )
    return "\n".join(lines)


def test_ablation_rho(benchmark, report):
    table = run_once(benchmark, run_sweep)
    report("ablation_rho", format_table(table))

    totals = {rho: sum(row.values()) for rho, row in table.items()}
    # The paper's rho = 1 must be competitive: within 25% of the best
    # exponent in aggregate.  (It need not win outright — the sweep is the
    # point of the ablation.)
    assert totals[1.0] <= 1.25 * min(totals.values())
