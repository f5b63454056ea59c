"""Distributed shard runtime walkthrough: workers, recovery, parity.

Spawns two real ``repro worker`` daemon *processes* on localhost, runs a
query across them through the socket backend, kills one worker with
SIGKILL mid-roster, and shows the coordinator recovering — the surviving
shard re-executes the dead one's outstanding tasks and the result stays
bit-identical to a serial run (the ``distributed.*`` counters record the
fault).  The data graph is never written to disk: the coordinator ships
it to each worker once, cached by ``Graph.fingerprint()``.

Run from the repository root::

    python examples/distributed_demo.py
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys

import repro
from repro.distributed import stop_worker
from repro.graph import powerlaw_cluster

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def spawn_worker() -> tuple[subprocess.Popen, str]:
    """Start one `repro worker` daemon; returns (process, host:port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    # The daemon's first line is the readiness line: "worker serving on H:P"
    line = proc.stdout.readline().strip()
    address = line.rsplit(" ", 1)[-1]
    print(f"  spawned worker pid={proc.pid} at {address}")
    return proc, address


def main() -> int:
    graph = powerlaw_cluster(200, 3, seed=13)
    print(f"data graph: {graph}")

    print("spawning two local shard workers ...")
    workers = [spawn_worker() for _ in range(2)]
    shards = [address for _, address in workers]

    try:
        session = (
            repro.open(graph)
            .with_cluster(machines=4)
            .backend("socket", shards=shards)
            .engine("rads")
            .query("q4")
        )
        reference = (
            repro.open(graph).with_cluster(machines=4)
            .engine("rads").query("q4").run()
        )

        print("\nrunning q4 across both shards ...")
        healthy = session.run()
        print(f"  {healthy.summary()}")
        # Counts and simulated stats are backend-independent.
        assert healthy.embedding_count == reference.embedding_count
        assert healthy.makespan == reference.makespan
        assert healthy.total_comm_bytes == reference.total_comm_bytes
        print("  count, makespan and traffic identical to the serial backend")

        victim_proc, victim_addr = workers[0]
        print(f"\nkilling worker {victim_addr} (pid={victim_proc.pid}) "
              f"with SIGKILL ...")
        victim_proc.send_signal(signal.SIGKILL)
        victim_proc.wait()

        print("running q4 again on the degraded roster ...")
        recovered = session.run()
        print(f"  {recovered.summary()}")
        faults = {
            key: value
            for key, value in recovered.counters.items()
            if key.startswith("distributed.")
        }
        print(f"  fault counters: {faults}")
        assert recovered.embedding_count == reference.embedding_count
        # Resubmission must not skew the simulation: the degraded run's
        # stats equal the healthy socket run's, bit for bit.
        assert recovered.makespan == healthy.makespan
        assert recovered.total_comm_bytes == healthy.total_comm_bytes
        assert faults.get("distributed.lost_workers") == 1
        print("  survivor re-executed the lost shard's tasks; "
              "result unchanged")
        session.close()
        return 0
    finally:
        for proc, address in workers:
            if proc.poll() is None:
                stop_worker(address)
                proc.wait(timeout=30)
        print("\nworkers stopped")


if __name__ == "__main__":
    sys.exit(main())
