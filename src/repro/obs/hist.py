"""Fixed-bucket timing histograms and the slow-query ring buffer.

:class:`Histogram` is the service tier's latency instrument: a fixed set
of upper-bound buckets (seconds, Prometheus ``le`` semantics — each
bucket counts observations ``<=`` its bound, with a final ``+inf``
catch-all) chosen once at construction so recording an observation is a
lock, a linear scan over ~a dozen floats, and an increment.  No
per-observation allocation, no unbounded reservoir: the memory cost is
``len(buckets) + 3`` numbers regardless of traffic, which is what lets
the scheduler keep one per instrument for the life of the process.

Quantiles (:meth:`Histogram.percentile`) interpolate linearly inside the
bucket containing the target rank — the standard fixed-bucket estimate:
exact bucket membership, approximate position within it.  The default
bucket ladder spans 100µs to 60s in roughly 1-2.5-5 steps, wide enough
for both sub-millisecond cache lookups and multi-second distributed
enumerations.

:class:`SlowQueryLog` is a bounded ring of the slowest recent requests —
pattern, engine, tenant, duration, and (when the request was traced) the
full span tree — so "what was slow and where did its time go" is one
``metrics`` call, not a log-diving expedition.
"""

from __future__ import annotations

import math
import threading
from typing import Any

__all__ = ["DEFAULT_BUCKETS", "Histogram", "SlowQueryLog"]

#: Upper bounds (seconds) of every histogram's latency ladder.  ``+inf`` is
#: implicit as a final catch-all bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: The percentiles every snapshot reports.
SNAPSHOT_PERCENTILES = (50.0, 95.0, 99.0)

#: Requests a :class:`SlowQueryLog` keeps.
SLOW_QUERIES = 16


class Histogram:
    """Thread-safe fixed-bucket histogram of seconds-valued observations."""

    def __init__(self, name: str):
        bounds = tuple(sorted(float(b) for b in DEFAULT_BUCKETS))
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError(f"buckets must be positive, got {DEFAULT_BUCKETS!r}")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds in {DEFAULT_BUCKETS!r}")
        self.name = name
        self.bounds = bounds
        self._lock = threading.Lock()
        # counts[i] pairs with bounds[i]; counts[-1] is the +inf bucket.
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._min = math.inf

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp to zero)."""
        value = max(0.0, float(value))
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            if value < self._min:
                self._min = value

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (0 with no observations).

        Linear interpolation within the bucket holding the target rank;
        the open-ended ``+inf`` bucket reports the observed maximum (the
        best finite statement the histogram can make).  Estimates are
        clamped to the observed ``[min, max]`` range, so a single sample
        (or any sparse bucket) reports a value that was actually seen —
        never a below-minimum interpolation artifact, never negative.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            maximum = self._max
            minimum = self._min
        if total == 0:
            return 0.0
        rank = q / 100.0 * total
        cumulative = 0
        for i, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count:
                if i == len(self.bounds):  # +inf bucket
                    return maximum
                low = self.bounds[i - 1] if i else 0.0
                high = self.bounds[i]
                fraction = (rank - previous) / count
                estimate = low + (high - low) * min(1.0, max(0.0, fraction))
                return min(max(estimate, minimum), maximum)
        return maximum

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-safe view: count/sum/min/max, p50/p95/p99, cumulative buckets."""
        percentiles = {
            f"p{p:g}": self.percentile(p) for p in SNAPSHOT_PERCENTILES
        }
        with self._lock:
            counts = list(self._counts)
            total = self._count
            observed_sum = self._sum
            maximum = self._max
            minimum = self._min
        buckets: list[dict[str, Any]] = []
        cumulative = 0
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            buckets.append({"le": bound, "count": cumulative})
        buckets.append({"le": math.inf, "count": total})
        return {
            "name": self.name,
            "count": total,
            "sum": observed_sum,
            "min": 0.0 if total == 0 else minimum,
            "max": maximum,
            **percentiles,
            "buckets": buckets,
        }


class SlowQueryLog:
    """Bounded ring of the slowest recent requests (threshold-free).

    Every completed execution is offered; the log keeps the
    ``SLOW_QUERIES`` slowest seen since startup, ordered slowest-first in
    :meth:`snapshot`.  Entries are plain JSON-safe dicts — the scheduler
    records pattern/engine/tenant/duration and, for traced requests, the
    span tree, so the metrics surface can show *where* a slow query's
    time went, not just that it was slow.
    """

    def __init__(self):
        if SLOW_QUERIES <= 0:
            raise ValueError(f"capacity must be positive, got {SLOW_QUERIES}")
        self.capacity = SLOW_QUERIES
        self._lock = threading.Lock()
        self._entries: list[dict[str, Any]] = []

    def record(self, entry: dict[str, Any]) -> None:
        """Offer one completed request (must carry ``duration`` seconds)."""
        duration = float(entry.get("duration", 0.0))
        with self._lock:
            if (
                len(self._entries) >= self.capacity
                and duration <= self._entries[-1].get("duration", 0.0)
            ):
                return  # faster than everything retained: not slow news
            self._entries.append(dict(entry))
            self._entries.sort(
                key=lambda e: e.get("duration", 0.0), reverse=True
            )
            del self._entries[self.capacity:]

    def snapshot(self) -> list[dict[str, Any]]:
        """Retained entries, slowest first."""
        with self._lock:
            return [dict(e) for e in self._entries]
