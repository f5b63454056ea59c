"""Per-request resource profiling: CPU, memory, GC, and the flame table.

Tracing (:mod:`repro.obs.trace`) answers *where* a request's wall time
went; a profile answers *why* — CPU burned vs. memory allocated vs. time
merely waited.  :class:`Profiler` wraps one request (``Session.run`` or
a scheduler execution) and records:

- wall seconds (:func:`time.perf_counter`) and CPU seconds — whole
  process (:func:`time.process_time`) and the running thread
  (:func:`time.thread_time`), so "CPU-bound here" vs. "waiting on
  workers" is one subtraction;
- peak and net-allocated bytes via :mod:`tracemalloc` (started
  refcounted while any profile is active: the instrument is
  process-global, so concurrent profiled requests share its view —
  peaks are the process's, not the request's, under concurrency);
- GC deltas (collections/collected/uncollectable summed over
  generations);
- a *flame table* aggregated from the request's span tree — per span
  name: occurrence count, total seconds, and **self** seconds (duration
  minus direct children, with concurrent children rescaled into their
  parent's wall time), so ``round.* / executor.batch / worker.task``
  hot spots rank without reading raw trees.  Self times telescope: they
  sum to the root duration, which is the acceptance bound profiled runs
  are tested against;
- per-worker CPU attribution for socket-backed runs: a profiled run
  always traces, and a shard worker puts its own
  :func:`resource.getrusage` delta per task (``utime``, ``stime``,
  ``maxrss_kb``) on the ``worker.task`` span it ships back, so the
  profile's ``workers`` rows are summed from the span tree, as the flame
  table is — they say which shard spent the CPU.

Profiles observe, never perturb: counts and stats are bit-identical with
profiling on or off, and results served from the cache/store never carry
one (the byte-stability discipline).
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Any

try:
    import tracemalloc as _tracemalloc
except ImportError:  # pragma: no cover - minimal builds
    _tracemalloc = None  # type: ignore[assignment]

__all__ = ["Profiler", "flame_table", "worker_rows"]

# tracemalloc is process-global: refcount starts/stops so overlapping
# profiled requests share one tracing window instead of fighting over it.
_TM_LOCK = threading.Lock()
_TM_USERS = 0


def _tracemalloc_acquire() -> bool:
    global _TM_USERS
    if _tracemalloc is None:
        return False
    with _TM_LOCK:
        if _TM_USERS == 0 and not _tracemalloc.is_tracing():
            _tracemalloc.start()
        _TM_USERS += 1
    return True


def _tracemalloc_release() -> None:
    global _TM_USERS
    if _tracemalloc is None:
        return
    with _TM_LOCK:
        _TM_USERS = max(0, _TM_USERS - 1)
        if _TM_USERS == 0 and _tracemalloc.is_tracing():
            _tracemalloc.stop()


def _gc_totals() -> tuple[int, int, int]:
    collections = collected = uncollectable = 0
    for generation in gc.get_stats():
        collections += generation.get("collections", 0)
        collected += generation.get("collected", 0)
        uncollectable += generation.get("uncollectable", 0)
    return collections, collected, uncollectable


class Profiler:
    """Measures one request between ``__enter__`` and ``__exit__``.

    Entering snapshots the clocks; exiting computes the deltas.
    :meth:`result` then assembles the JSON-safe profile record, folding in
    the request's span tree for the flame table and the worker rows.
    """

    def __init__(self) -> None:
        self._tracing_memory = False
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._thread0 = 0.0
        self._mem0 = 0
        self._gc0 = (0, 0, 0)
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.thread_seconds = 0.0
        self.peak_bytes: int | None = None
        self.allocated_bytes: int | None = None
        self.gc_deltas = (0, 0, 0)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        self._tracing_memory = _tracemalloc_acquire()
        if self._tracing_memory:
            current, _ = _tracemalloc.get_traced_memory()
            self._mem0 = current
            # Peaks are measured from here; under concurrent profiled
            # requests the reset is shared (documented above).
            _tracemalloc.reset_peak()
        self._gc0 = _gc_totals()
        self._cpu0 = time.process_time()
        self._thread0 = time.thread_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall_seconds = time.perf_counter() - self._wall0
        self.cpu_seconds = time.process_time() - self._cpu0
        self.thread_seconds = time.thread_time() - self._thread0
        gc1 = _gc_totals()
        self.gc_deltas = tuple(
            after - before for after, before in zip(gc1, self._gc0)
        )
        if self._tracing_memory:
            current, peak = _tracemalloc.get_traced_memory()
            self.peak_bytes = peak
            self.allocated_bytes = current - self._mem0
            _tracemalloc_release()
            self._tracing_memory = False

    # ------------------------------------------------------------------
    def result(self, tree: "dict[str, Any] | None") -> dict[str, Any]:
        """The JSON-safe profile record of the request whose span tree is
        ``tree`` (call after ``__exit__``)."""
        collections, collected, uncollectable = self.gc_deltas
        record: dict[str, Any] = {
            "wall_seconds": self.wall_seconds,
            "cpu": {
                "process_seconds": self.cpu_seconds,
                "thread_seconds": self.thread_seconds,
            },
            "memory": {
                "peak_bytes": self.peak_bytes,
                "allocated_bytes": self.allocated_bytes,
            },
            "gc": {
                "collections": collections,
                "collected": collected,
                "uncollectable": uncollectable,
            },
            "flame": flame_table(tree),
            "workers": worker_rows(tree),
        }
        return record


def worker_rows(tree: "dict[str, Any] | None") -> list[dict[str, Any]]:
    """Per-worker usage summed from a span tree's ``worker.task`` spans,
    one row per (shard, pid, mode), busiest (CPU) first.

    A shard worker puts its rusage delta across each task on the task's
    span; ``tasks`` counts the spans, ``utime`` / ``stime`` sum and
    ``maxrss_kb`` is the largest.  A tree without worker spans (a serial
    run) has no rows.
    """
    rows: dict[tuple, dict[str, Any]] = {}

    def visit(node: dict[str, Any]) -> None:
        attributes = node.get("attributes") or {}
        if node["name"] == "worker.task" and "utime" in attributes:
            key = (attributes["shard"], attributes["pid"], attributes["mode"])
            row = rows.setdefault(key, {
                "shard": key[0], "pid": key[1], "mode": key[2],
                "tasks": 0, "utime": 0.0, "stime": 0.0, "maxrss_kb": 0,
            })
            row["tasks"] += 1
            row["utime"] += attributes["utime"]
            row["stime"] += attributes["stime"]
            row["maxrss_kb"] = max(row["maxrss_kb"], attributes["maxrss_kb"])
        for child in node.get("children", ()):
            visit(child)

    if tree:
        visit(tree)
    return sorted(rows.values(), key=lambda r: r["utime"] + r["stime"], reverse=True)


# ----------------------------------------------------------------------
# Flame table
# ----------------------------------------------------------------------
def flame_table(
    tree: "dict[str, Any] | None",
) -> list[dict[str, Any]]:
    """Self-time aggregation of a span tree, hottest names first.

    One row per span name: ``count`` occurrences, ``total`` seconds
    (summed raw durations) and ``self`` seconds — the wall time
    attributed to the span itself after handing out its children's
    shares.  Children that sum past their parent's duration (shard
    tasks run *concurrently* under one ``executor.batch`` span; cross
    -host clocks jitter) are rescaled proportionally so they divide
    exactly the parent's wall time between them.  Every node therefore
    hands out no more time than it was handed, which makes the ``self``
    column telescope: it sums to the root duration exactly — the
    acceptance bound profiled runs are tested against.  ``total`` stays
    the unscaled sum, so concurrency still shows (a row's total may
    exceed the root; self never does).
    """
    if not tree:
        return []
    totals: dict[str, list[float]] = {}

    def visit(node: dict[str, Any], scale: float) -> None:
        raw = node.get("duration") or 0.0
        children = node.get("children", ())
        raw_children = sum((c.get("duration") or 0.0) for c in children)
        child_scale = scale
        if raw_children > raw:
            child_scale = scale * (raw / raw_children) if raw > 0 else 0.0
        for child in children:
            visit(child, child_scale)
        duration = raw * scale
        row = totals.setdefault(node["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += raw
        row[2] += max(0.0, duration - raw_children * child_scale)

    visit(tree, 1.0)
    table = [
        {"name": name, "count": int(count), "total": total, "self": own}
        for name, (count, total, own) in totals.items()
    ]
    table.sort(key=lambda r: (-r["self"], r["name"]))
    return table
