"""Child processes of the benchmark: a shard worker or a query server.

Run as ``python children.py worker`` or ``python children.py serve GRAPH
STORE_DIR MACHINES THREADS``.  The child prints one ``ready HOST:PORT``
line, serves until its protocol ``shutdown`` op, and exits at once when
its standard input closes, so that a benchmark killed outright leaves no
process behind.

The parent-side helpers (:func:`spawn`, :func:`reap_all`) and the
``/proc`` readers for CPU seconds and peak memory live here too.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_live: list["Child"] = []


class Child:
    """One spawned child: its process and the address it serves on."""

    def __init__(self, proc: subprocess.Popen, address: str):
        self.proc = proc
        self.address = address
        self.pid = proc.pid

    def reap(self, timeout: float = 10.0) -> None:
        """Wait for the child to end; kill it if it does not."""
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        if self in _live:
            _live.remove(self)


def spawn(mode: str, *args: str) -> Child:
    """Start a child and wait for its readiness line."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "children.py"), mode, *map(str, args)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("ready "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{mode} child did not start: {line!r}")
    child = Child(proc, line.split(" ", 1)[1])
    _live.append(child)
    return child


def reap_all() -> None:
    """Stop every child still alive (closing stdin makes it exit)."""
    for child in list(_live):
        child.reap(timeout=5.0)


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # The command name may hold spaces; fields resume after ")".
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """High-water resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- the child side -------------------------------------------------------
def _exit_when_parent_goes() -> None:
    def watch() -> None:
        sys.stdin.read()
        os._exit(0)

    threading.Thread(target=watch, daemon=True).start()


def _main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    mode = argv[0]
    _exit_when_parent_goes()
    if mode == "worker":
        from repro.distributed import ShardWorker

        server = ShardWorker(port=0)
    elif mode == "serve":
        import repro

        graph_path, store_dir, machines, threads = argv[1:5]
        server = (
            repro.open(graph_path)
            .with_cluster(machines=int(machines))
            .serve(threads=int(threads), store_dir=store_dir, start=False)
        )
    else:
        raise SystemExit(f"unknown child mode {mode!r}")
    host, port = server.address
    print(f"ready {host}:{port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
