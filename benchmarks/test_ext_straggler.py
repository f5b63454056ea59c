"""Extension bench: straggler tolerance (the asynchrony argument).

The paper's Sec. 1 motivates RADS with: synchronous systems "suffer from
synchronization delay [...] making the overall performance equivalent to
that of the slowest machine".  This bench slows one of ten machines by
1x/2x/4x/8x and tracks each engine's makespan.
"""

from conftest import run_once

from repro.api.config import RunConfig
from repro.bench.experiments import bench_graph
from repro.core.rads import RADSEngine
from repro.engines import PSgLEngine, SEEDEngine, TwinTwigEngine
from repro.query import paper_query

SLOWDOWNS = [1.0, 2.0, 4.0, 8.0]
QUERY = "q4"
DATASET = "dblp"


def run_sweep():
    graph = bench_graph(DATASET)
    base = RunConfig(machines=10).make_cluster(graph)
    engines = {
        "RADS": RADSEngine,
        "PSgL": PSgLEngine,
        "TwinTwig": TwinTwigEngine,
        "SEED": SEEDEngine,
    }
    pattern = paper_query(QUERY)
    table: dict[str, dict[float, float]] = {name: {} for name in engines}
    for name, engine_cls in engines.items():
        for slowdown in SLOWDOWNS:
            cluster = base.fresh_copy()
            cluster.set_speed_factor(0, 1.0 / slowdown)
            result = engine_cls().run(
                cluster, pattern, collect_embeddings=False
            )
            assert not result.failed
            table[name][slowdown] = result.makespan
    return table


def format_table(table):
    lines = [
        f"Extension - straggler sweep ({DATASET}, {QUERY}, machine 0 slowed)",
        f"{'engine':<12}" + "".join(f"{s:>12.0f}x" for s in SLOWDOWNS)
        + f"{'penalty(8x)':>16}",
    ]
    for name, row in table.items():
        penalty = row[8.0] - row[1.0]
        lines.append(
            f"{name:<12}"
            + "".join(f"{row[s]:>13.4f}" for s in SLOWDOWNS)
            + f"{penalty:>16.4f}"
        )
    return "\n".join(lines)


def test_ext_straggler(benchmark, report):
    table = run_once(benchmark, run_sweep)
    report("ext_straggler", format_table(table))

    # RADS stays fastest at every slowdown level...
    for slowdown in SLOWDOWNS:
        for other in ("PSgL", "TwinTwig", "SEED"):
            assert table["RADS"][slowdown] < table[other][slowdown]
    # ...and pays the smallest absolute penalty for the 8x straggler.
    penalties = {
        name: row[8.0] - row[1.0] for name, row in table.items()
    }
    for other in ("PSgL", "TwinTwig", "SEED"):
        assert penalties["RADS"] <= penalties[other]
    # Makespans are monotone in the slowdown for every engine.
    for row in table.values():
        makespans = [row[s] for s in SLOWDOWNS]
        assert all(a <= b * 1.001 for a, b in zip(makespans, makespans[1:]))
