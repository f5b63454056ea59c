"""Extension: parallel execution runtime — serial vs process backend.

Runs the RADS grid over RoadNet under the serial backend and under the
shared-memory process backend (4 workers), asserting that the two report
identical embedding counts, and reporting real wall-clock for both.
(Simulated stats differ slightly here because RADS's reactive work
stealing is schedule driven; the steal-free bit-parity guarantee is
covered by tests/test_runtime.py.)  The speedup assertion only applies
when the host actually has enough cores for the workers to run
concurrently — on a single-core CI box a process pool can only lose.
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.api.config import RunConfig
from repro.bench.experiments import bench_graph
from repro.bench.harness import run_query_grid
from repro.core.rads import RADSEngine

QUERIES = ["q1", "q2", "q4", "q5"]
WORKERS = 4


def _available_cores() -> int:
    """Cores the pool can actually use: affinity capped by cgroup quota.

    A container started with a CPU quota (``--cpus=1``) can still expose
    an 8-wide affinity mask; asserting parallel speedup there would fail
    spuriously.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    for quota_file, read in (
        # cgroup v2: "<quota|max> <period>"
        ("/sys/fs/cgroup/cpu.max", lambda parts: (parts[0], parts[1])),
        # cgroup v1: quota in its own file (-1 = unlimited), period fixed
        ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", lambda parts: (parts[0], "100000")),
    ):
        try:
            with open(quota_file) as fh:
                quota, period = read(fh.read().split())
            if quota not in ("max", "-1"):
                cores = min(cores, max(1, int(quota) // int(period)))
            break
        except (OSError, ValueError, IndexError):
            continue
    return cores


def _grid(graph, workers: int):
    return run_query_grid(
        graph,
        "roadnet",
        QUERIES,
        engines={"RADS": RADSEngine()},
        config=RunConfig(machines=10, workers=workers),
        check_consistency=False,
    )


def test_ext_parallel_runtime(benchmark, report):
    graph = bench_graph("roadnet")

    def experiment():
        t0 = time.perf_counter()
        serial = _grid(graph, workers=0)
        t1 = time.perf_counter()
        parallel = _grid(graph, workers=WORKERS)
        t2 = time.perf_counter()
        return serial, parallel, t1 - t0, t2 - t1

    serial, parallel, serial_s, parallel_s = run_once(benchmark, experiment)

    # The backends must agree on every count (the correctness contract).
    for q in QUERIES:
        rs, rp = serial.get("RADS", q), parallel.get("RADS", q)
        assert rs is not None and rp is not None
        assert not rs.failed and not rp.failed, q
        assert rs.embedding_count == rp.embedding_count, q

    cores = _available_cores()
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    lines = [
        f"Parallel runtime — roadnet, RADS, {len(QUERIES)} queries "
        f"({cores} cores available)",
        f"  serial backend:            {serial_s:8.2f} s",
        f"  process backend (x{WORKERS}):      {parallel_s:8.2f} s",
        f"  wall-clock speedup:        {speedup:8.2f}x",
        "  embedding counts:          identical",
    ]
    report("ext_parallel_runtime", "\n".join(lines))

    if cores >= WORKERS:
        # With real cores behind the pool the phase-2 fan-out must pay off.
        assert speedup >= 1.5, (
            f"process backend speedup {speedup:.2f}x < 1.5x "
            f"on a {cores}-core host"
        )
