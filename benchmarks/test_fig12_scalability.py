"""Fig. 12: scalability ratio t(5 nodes)/t(m nodes) for m in {5, 10, 15}.

Paper shape: RADS scales near-linearly on RoadNet (SM-E keeps the machines
independent) and well on DBLP; ideal linear speedup would be ratio m/5.
"""

from conftest import run_once

from repro.bench.experiments import exp_scalability


def format_ratios(name, ratios):
    machines = sorted(next(iter(ratios.values())).keys())
    lines = [f"Fig. 12 - scalability ratio over {name} (t5/tm)"]
    lines.append(f"{'engine':<10}" + "".join(f"{m:>8}" for m in machines))
    for engine, per_m in ratios.items():
        lines.append(
            f"{engine:<10}"
            + "".join(f"{per_m[m]:>8.2f}" for m in machines)
        )
    return "\n".join(lines)


def test_fig12_scalability_roadnet(benchmark, report):
    ratios = run_once(benchmark, lambda: exp_scalability("roadnet"))
    report("fig12_scalability_roadnet", format_ratios("roadnet", ratios))
    rads = ratios["RADS"]
    # Monotone speedup; ideal at 15/5 would be 3.0, and the scaled-down
    # simulation keeps a solid fraction of it.
    assert rads[5] == 1.0
    assert rads[5] < rads[10] <= rads[15] * 1.02
    assert rads[15] > 1.5

def test_fig12_scalability_dblp(benchmark, report):
    ratios = run_once(benchmark, lambda: exp_scalability("dblp"))
    report("fig12_scalability_dblp", format_ratios("dblp", ratios))
    rads = ratios["RADS"]
    assert rads[10] > 1.2
    assert rads[15] >= rads[10] * 0.9  # no collapse at higher node counts


def test_fig12_scalability_livejournal(benchmark, report):
    # Paper Fig. 12(c): only Crystal and RADS scale to this dataset; the
    # dense graphs run at a reduced scale to keep the bench tractable.
    # Known scale artifact, a deviation from the paper (committing the
    # figure's record is ROADMAP item 4): with zero SM-E on
    # this small-diameter graph, RADS's per-machine compute shrinks with
    # the node count while its fetch/verify message costs grow, so its
    # curve is flat-to-declining here; Crystal's speedup reproduces.
    ratios = run_once(
        benchmark, lambda: exp_scalability("livejournal", scale=1.5)
    )
    report(
        "fig12_scalability_livejournal",
        format_ratios("livejournal", ratios),
    )
    assert ratios["Crystal"][15] > 1.5
    rads = ratios["RADS"]
    assert rads[5] == 1.0
    assert rads[15] > 0.4  # bounded decline, no collapse


def test_fig12_scalability_uk2002(benchmark, report):
    # Paper Fig. 12(d): Crystal and RADS only (same scale caveat as
    # LiveJournal above).
    ratios = run_once(
        benchmark, lambda: exp_scalability("uk2002", scale=1.5)
    )
    report("fig12_scalability_uk2002", format_ratios("uk2002", ratios))
    assert ratios["Crystal"][15] > 1.2
    rads = ratios["RADS"]
    assert rads[5] == 1.0
    assert rads[15] > 0.4
