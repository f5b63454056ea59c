"""Bit-parity goldens for region grouping, captured from the per-candidate loop.

``tests/data/region_goldens.json`` was written by the parent of the
O(degree) grouper — a rescan of every remaining candidate per addition,
one ``proximity`` generator per probed vertex — and is asserted exactly.
The group *lists* are the simulation's input: which candidates share a
group decides every foreign fetch, verification batch and OOM split
downstream, so a rewrite must reproduce them and leave the grouper's rng
where the loop left it (the record's ``next`` is ``rng.integers(1 << 30)``
drawn after the call).  Both depend on CPython's set iteration order
(see the ``repro.core.region`` module docstring), hence on Python 3.11.

The matrix is five graph families x candidate subsets x estimator
calibrated / not x budget = total estimate / {1, 4, 40} x {proximity,
random} x ``max_probe`` {96, 5} (the ``random`` strategy never probes, so
it runs at 96 only); empty and single-candidate inputs run under one
estimator and budget.  On the dense power-law graph the frontier outgrows
96 and is sampled (:func:`test_the_sampled_branch_is_covered`).

``python tests/test_region_goldens.py`` rewrites the file from whatever
grouper is checked out; only do that from a commit whose lists are the
reference.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import region
from repro.core.region import MemoryEstimator, RegionGrouper
from repro.graph import (
    community_graph,
    erdos_renyi,
    grid_road_network,
    powerlaw_cluster,
)

GOLDENS = Path(__file__).parent / "data" / "region_goldens.json"

GRAPHS = {
    "road": lambda: grid_road_network(16, 16, extra_edge_prob=0.04, seed=1),
    "er": lambda: erdos_renyi(220, 0.03, seed=41),
    "sparse": lambda: powerlaw_cluster(260, 2, 0.3, seed=42),
    "dense": lambda: powerlaw_cluster(320, 12, 0.3, seed=43),
    "community": lambda: community_graph(20, 10, 0.6, 2, seed=3),
}
SUBSETS = ["all", "even", "third", "shuffled", "empty", "single"]
MIN_GROUPS = [1, 4, 40]
MAX_PROBE = [96, 5]
SAMPLED = ["dense/all/cal1/g1/proximity/p96", "dense/all/cal1/g4/proximity/p96"]


def _candidates(graph, subset: str) -> list[int]:
    n = graph.num_vertices
    rng = np.random.default_rng(7)
    if subset == "even":
        return list(range(0, n, 2))
    if subset == "third":
        return sorted(rng.choice(n, size=n // 3, replace=False).tolist())
    if subset == "shuffled":
        return rng.permutation(n).tolist()
    return {"all": list(range(n)), "empty": [], "single": [n // 2]}[subset]


def _groups(graph, candidates, calibrated, min_groups, strategy, max_probe):
    """One ``_phase1_task``-shaped call: ``(group lists, next rng draw)``."""
    estimator = MemoryEstimator(num_unit_leaves=2)
    if calibrated:
        estimator.calibrate(trie_nodes=400, start_vertices=100)
    total = sum(estimator.estimate_bytes(graph.degree(v)) for v in candidates)
    grouper = RegionGrouper(
        graph, estimator, max(1.0, total / min_groups),
        seed=11, strategy=strategy,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(region, "MAX_PROBE", max_probe)
        groups = grouper.groups(candidates)
    return groups, int(grouper._rng.integers(1 << 30))


def _cases():
    for gname in GRAPHS:
        for subset in SUBSETS:
            trivial = subset in ("empty", "single")
            for calibrated in (True, False)[: 1 if trivial else 2]:
                for min_groups in MIN_GROUPS[: 1 if trivial else 3]:
                    for strategy, probes in (
                        ("proximity", MAX_PROBE), ("random", MAX_PROBE[:1])
                    ):
                        for max_probe in probes:
                            yield (
                                f"{gname}/{subset}/cal{int(calibrated)}"
                                f"/g{min_groups}/{strategy}/p{max_probe}",
                                gname, subset, calibrated, min_groups,
                                strategy, max_probe,
                            )


def compute() -> dict:
    """The golden record of every case."""
    graphs = {name: make() for name, make in GRAPHS.items()}
    out = {}
    for key, gname, subset, *knobs in _cases():
        graph = graphs[gname]
        groups, nxt = _groups(graph, _candidates(graph, subset), *knobs)
        out[key] = {"groups": groups, "next": nxt}
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS.read_text())


def test_groups_and_rng_match_the_loop_bit_for_bit(golden):
    got = compute()
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


def test_the_sampled_branch_is_covered(golden):
    """With no probe cap these cases draw less: one group, then four."""
    graph = GRAPHS["dense"]()
    for key, min_groups in zip(SAMPLED, (1, 4)):
        groups, nxt = _groups(
            graph, _candidates(graph, "all"), True, min_groups, "proximity", 1 << 30
        )
        assert nxt != golden[key]["next"]
        assert (groups != golden[key]["groups"]) == (min_groups == 4)


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    records = compute()
    GOLDENS.write_text(
        "{\n"
        + ",\n".join(
            f'"{key}": {json.dumps(record)}'
            for key, record in sorted(records.items())
        )
        + "\n}\n"
    )
    print(f"wrote {len(records)} records to {GOLDENS}")
