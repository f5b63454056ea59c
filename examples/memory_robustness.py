#!/usr/bin/env python
"""Memory robustness demo — the paper's 8G-cap experiment (Exp-4).

The paper caps per-machine memory and shows Crystal crashing while RADS
finishes, thanks to region groups (Sec. 6): RADS splits the start
candidates into proximity groups sized to the budget and processes them
sequentially, trading peak memory for extra rounds.

This script sweeps the simulated memory cap downwards with one
`repro.api` session per cap (``memory_mb`` is a RunConfig knob) and
reports, for each engine, whether it survives and what its peak usage was.

Run:  python examples/memory_robustness.py [scale]

``scale`` (default 0.2, which is what the smoke test runs) sizes the
UK2002-like graph; the story is the same at 0.1.
"""

import sys

import repro
from repro.bench.datasets import uk2002_like

#: Per-machine caps in MiB; None = unlimited.
CAPS = [None, 32, 4, 1]


def main(scale: float = 0.2) -> None:
    graph = uk2002_like(scale=scale)
    pattern = "q6"  # triangle-free: no Crystal index shortcut
    print(f"graph: {graph}; query: {pattern}\n")

    session = repro.open(graph).query(pattern)
    engine_names = [
        spec.name for spec in session.registry.specs(paper=True)
    ]
    header = f"{'cap':>10}" + "".join(f"{name:>14}" for name in engine_names)
    print(header)
    for cap in CAPS:
        session.with_cluster(machines=4, memory_mb=cap)
        cells = []
        for name in engine_names:
            result = session.engine(name).run()
            if result.failed:
                cells.append(f"{'OOM':>14}")
            else:
                cells.append(f"{result.peak_memory / 1e6:>11.2f} MB")
        label = "unlimited" if cap is None else f"{cap} MB"
        print(f"{label:>10}" + "".join(cells))

    print(
        "\nRADS keeps finishing long after the baselines crash because "
        "region groups (and final-round result streaming) bound its "
        "working set; the baselines must hold their full intermediate "
        "results.  Below the cost of a single region group RADS finally "
        "hits its own floor."
    )


if __name__ == "__main__":
    main(*map(float, sys.argv[1:2]))
