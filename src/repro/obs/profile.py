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
- per-worker CPU attribution for socket-backed runs: shard workers
  measure their own :func:`resource.getrusage` delta per task and ship
  it back on task responses (exactly like ``remote_span``); the
  coordinator accumulates them and the executor folds them into the
  active profiler via :func:`attach_worker_usage` — the profile's
  ``workers`` rows say which shard spent the CPU.

Propagation mirrors tracing: a context variable holds the active
:class:`Profiler` (``None`` = profiling off, the only cost the disabled
path pays), so executors and coordinators ask :func:`profile_active`
without any constructor threading.  Profiles observe, never perturb:
counts and stats are bit-identical with profiling on or off, results
served from the cache/store never carry one (the byte-stability
discipline), and the disabled path is guarded by
``benchmarks/test_ext_profiling_overhead``.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from contextvars import ContextVar
from typing import Any

try:  # Unix only; profiles degrade gracefully elsewhere.
    import resource as _resource
except ImportError:  # pragma: no cover - non-posix
    _resource = None  # type: ignore[assignment]

try:
    import tracemalloc as _tracemalloc
except ImportError:  # pragma: no cover - minimal builds
    _tracemalloc = None  # type: ignore[assignment]

__all__ = [
    "Profiler",
    "attach_worker_usage",
    "current_profiler",
    "flame_table",
    "profile_active",
    "task_rusage",
    "worker_usage",
]

#: The active profiler of the current context (``None`` = profiling off).
_CURRENT: ContextVar["Profiler | None"] = ContextVar(
    "repro_obs_profiler", default=None
)

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

    Entering installs this profiler as the context's active one (so
    downstream executors attribute worker usage to it) and snapshots the
    clocks; exiting computes the deltas.  :meth:`result` then assembles
    the JSON-safe profile record, optionally folding in a span tree for
    the flame table.
    """

    def __init__(self) -> None:
        self._token = None
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
        self._usage_lock = threading.Lock()
        #: (shard, pid, mode) -> accumulated rusage row.
        self._workers: dict[tuple, dict[str, Any]] = {}

    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        self._token = _CURRENT.set(self)
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
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None

    # ------------------------------------------------------------------
    def add_worker_usage(
        self, usages: "list[dict[str, Any]] | None"
    ) -> None:
        """Fold per-task worker rusage rows into the per-worker totals."""
        if not usages:
            return
        with self._usage_lock:
            for usage in usages:
                key = (
                    usage.get("shard"),
                    usage.get("pid"),
                    usage.get("mode"),
                )
                row = self._workers.get(key)
                if row is None:
                    row = self._workers[key] = {
                        "shard": usage.get("shard"),
                        "pid": usage.get("pid"),
                        "mode": usage.get("mode"),
                        "tasks": 0,
                        "utime": 0.0,
                        "stime": 0.0,
                        "maxrss_kb": 0,
                    }
                row["tasks"] += 1
                row["utime"] += float(usage.get("utime", 0.0))
                row["stime"] += float(usage.get("stime", 0.0))
                row["maxrss_kb"] = max(
                    row["maxrss_kb"], int(usage.get("maxrss_kb", 0))
                )

    def worker_rows(self) -> list[dict[str, Any]]:
        """Accumulated per-worker usage, busiest (CPU) first."""
        with self._usage_lock:
            rows = [dict(row) for row in self._workers.values()]
        rows.sort(key=lambda r: r["utime"] + r["stime"], reverse=True)
        return rows

    # ------------------------------------------------------------------
    def result(
        self, tree: "dict[str, Any] | None" = None
    ) -> dict[str, Any]:
        """The JSON-safe profile record (call after ``__exit__``)."""
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
            "workers": self.worker_rows(),
        }
        return record


# ----------------------------------------------------------------------
# Module-level surface (mirrors repro.obs.trace)
# ----------------------------------------------------------------------
def current_profiler() -> "Profiler | None":
    """The context's active profiler (``None`` = profiling off)."""
    return _CURRENT.get()


def profile_active() -> bool:
    """Whether a profiler is active in this context (one ContextVar read)."""
    return _CURRENT.get() is not None


def attach_worker_usage(usages: "list[dict[str, Any]] | None") -> None:
    """Fold shipped-back worker rusage rows into the active profiler."""
    profiler = _CURRENT.get()
    if profiler is not None:
        profiler.add_worker_usage(usages)


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


# ----------------------------------------------------------------------
# Worker-side rusage measurement (no Profiler object on the worker)
# ----------------------------------------------------------------------
def task_rusage() -> Any:
    """Snapshot this process's rusage (``None`` where unsupported).

    The shard worker takes one before executing a profiled task and
    hands it to :func:`worker_usage` afterwards.
    """
    if _resource is None:  # pragma: no cover - non-posix
        return None
    return _resource.getrusage(_resource.RUSAGE_SELF)


def worker_usage(
    before: Any, *, shard: str, mode: str
) -> dict[str, Any]:
    """One task's JSON-safe usage row from a :func:`task_rusage` baseline.

    ``utime``/``stime`` are the worker process's CPU delta across the
    task, which ran in that process (``mode`` says so: ``"inline"``).
    """
    row: dict[str, Any] = {
        "shard": shard,
        "pid": os.getpid(),
        "mode": mode,
        "utime": 0.0,
        "stime": 0.0,
        "maxrss_kb": 0,
    }
    if _resource is None or before is None:  # pragma: no cover - non-posix
        return row
    after = _resource.getrusage(_resource.RUSAGE_SELF)
    row["utime"] = after.ru_utime - before.ru_utime
    row["stime"] = after.ru_stime - before.ru_stime
    # ru_maxrss is KiB on Linux (bytes on macOS; close enough for a gauge).
    row["maxrss_kb"] = int(after.ru_maxrss)
    return row
