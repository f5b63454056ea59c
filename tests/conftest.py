"""Shared fixtures for the test suite, and a per-file CPU summary.

Every run ends with the 15 test files that spent the most CPU in this
process (``time.process_time()`` over each test's setup, call and
teardown).  CPU spent in child processes — forked shard workers, CLI
subprocesses — is not counted.  The sum is less exposed to a shared
machine's load than wall time, so a change can attribute its tier-1 cost.
"""

from __future__ import annotations

import time
from collections import defaultdict

import pytest

from repro.cluster import Cluster
from repro.graph import (
    community_graph,
    erdos_renyi,
    grid_road_network,
    powerlaw_cluster,
)


@pytest.fixture(scope="session")
def er_graph():
    """Small Erdos-Renyi graph used across correctness tests."""
    return erdos_renyi(100, 0.08, seed=5)


@pytest.fixture(scope="session")
def grid_graph():
    """Small road-network analogue."""
    return grid_road_network(12, 12, extra_edge_prob=0.1, seed=1)


@pytest.fixture(scope="session")
def powerlaw_graph():
    """Small heavy-tailed graph."""
    return powerlaw_cluster(150, 4, seed=7)


@pytest.fixture(scope="session")
def community_graph_small():
    """Small community (DBLP-like) graph."""
    return community_graph(12, 10, intra_prob=0.5, inter_edges=2, seed=3)


@pytest.fixture()
def er_cluster(er_graph):
    """Fresh 4-machine cluster over the ER graph."""
    return Cluster.create(er_graph, 4)


@pytest.fixture()
def grid_cluster(grid_graph):
    """Fresh 4-machine cluster over the grid graph."""
    return Cluster.create(grid_graph, 4)


#: CPU seconds per test file, summed over its tests' setup/call/teardown.
_CPU_BY_FILE: "defaultdict[str, float]" = defaultdict(float)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    started = time.process_time()
    yield
    _CPU_BY_FILE[item.location[0]] += time.process_time() - started


def pytest_terminal_summary(terminalreporter):
    if not _CPU_BY_FILE:
        return
    terminalreporter.section("CPU seconds per test file (this process)")
    ranked = sorted(_CPU_BY_FILE.items(), key=lambda kv: -kv[1])
    for path, seconds in ranked[:15]:
        terminalreporter.write_line(f"{seconds:8.2f}  {path}")
    terminalreporter.write_line(
        f"{sum(_CPU_BY_FILE.values()):8.2f}  total over "
        f"{len(_CPU_BY_FILE)} files"
    )
