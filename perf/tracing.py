"""Harness-side spans: recorded around calls *into* the program.

Nothing here touches ``src/``: a span is opened by the benchmark around a
public call (``Session.run``, ``client.submit``, ``Executor.run_tasks`` ...),
kept in memory and written out when the run ends.  A span's *self time* is
its duration minus the part of it that its children cover; where children
overlap (two client threads under one pass) their subtrees are scaled to
the covered wall time, so self times always sum to the root's duration.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager

_now = time.perf_counter


class Recorder:
    """In-memory span list with a per-thread parent stack.

    ``enabled`` is False for end-to-end runs: ``span`` then yields at once
    and records nothing.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        #: Stamped on every span: 0 during set-up, 1.. for the passes.
        self.pass_id: int | None = None
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, parent: int | None) -> None:
        """Make ``parent`` the root of the calling thread's stack."""
        self._local.stack = [] if parent is None else [parent]

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        record = {
            "name": name,
            "parent": stack[-1] if stack else None,
            "pass": self.pass_id,
            **attrs,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = _now()
        try:
            yield record
        finally:
            record["end"] = _now()
            stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _clusters(intervals: list[tuple[float, float]]) -> list[list[int]]:
    """Indices of ``intervals`` grouped into runs that overlap in time."""
    order = sorted(range(len(intervals)), key=lambda i: intervals[i])
    clusters: list[list[int]] = []
    end = float("-inf")
    for i in order:
        lo, hi = intervals[i]
        if clusters and lo < end:
            clusters[-1].append(i)
        else:
            clusters.append([i])
        end = max(end, hi)
    return clusters


def self_times(spans: list[dict], root: int) -> dict[int, float]:
    """Self time of every span under ``root`` (span id -> seconds).

    Children are clipped to their parent.  Children that overlap each
    other (two client threads) share the wall time they cover: their
    subtrees are scaled by covered / summed duration, so the returned
    values sum to the root's duration.
    """
    children: dict[int, list[dict]] = {}
    for record in spans:
        if record["parent"] is not None and "end" in record:
            children.setdefault(record["parent"], []).append(record)
    out: dict[int, float] = {}

    def visit(record: dict, scale: float) -> None:
        lo, hi = record["start"], record["end"]
        kids = children.get(record["id"], [])
        clipped = [
            (min(max(k["start"], lo), hi), max(min(k["end"], hi), lo))
            for k in kids
        ]
        covered_total = 0.0
        for cluster in _clusters(clipped):
            summed = sum(clipped[i][1] - clipped[i][0] for i in cluster)
            covered = (max(clipped[i][1] for i in cluster)
                       - min(clipped[i][0] for i in cluster))
            covered_total += covered
            share = covered / summed if summed > 0 else 1.0
            for i in cluster:
                a, b = clipped[i]
                visit({**kids[i], "start": a, "end": b}, scale * share)
        out[record["id"]] = (hi - lo - covered_total) * scale

    visit(spans[root], 1.0)
    return out


def layer_table(spans: list[dict], roots: list[int]) -> dict[str, float]:
    """Mean self seconds per root, grouped by span name."""
    totals: dict[str, float] = {}
    for root in roots:
        for span_id, seconds in self_times(spans, root).items():
            name = spans[span_id]["name"]
            totals[name] = totals.get(name, 0.0) + seconds
    return {
        name: seconds / len(roots) for name, seconds in sorted(totals.items())
    }


#: ``Executor.run_tasks`` task functions -> the layer whose work the batch
#: is.  Anything unlisted is charged to ``runtime.batch``.
BATCH_LAYERS = {"_phase1_task": "core.sme", "_phase2_task": "core.rmeef"}


def patch_executors(active) -> list:
    """Wrap ``run_tasks`` of the public executor classes with a span.

    This is the harness's executor wrapper: the sessions build their
    executors internally, so the span goes on the classes.  ``active()``
    returns the recorder to use at call time.  Returns the undo list for
    :func:`unpatch`.  A class that is missing or has no ``run_tasks`` is
    skipped — its batches then show up as the caller's self time.
    """
    import repro

    undo = []
    for cls_name in ("SerialExecutor", "ProcessExecutor", "SocketExecutor"):
        try:
            cls = getattr(repro, cls_name)
            original = cls.__dict__["run_tasks"]
        except (AttributeError, KeyError):
            continue

        def make(original):
            @functools.wraps(original)
            def run_tasks(self, cluster, fn, tasks):
                name = BATCH_LAYERS.get(
                    getattr(fn, "__name__", ""), "runtime.batch"
                )
                with active().span(
                    name, fn=getattr(fn, "__name__", "?"), tasks=len(tasks)
                ):
                    return original(self, cluster, fn, tasks)

            return run_tasks

        cls.run_tasks = make(original)
        undo.append((cls, original))
    return undo


def unpatch(undo: list) -> None:
    for cls, original in undo:
        cls.run_tasks = original
