"""The calibration tick: a fixed piece of work timed beside every pass.

The reference container's speed drifts: identical passes run 5% slower or
faster from one minute to the next, and now and then 30% slower for a
whole run, with CPU seconds moving exactly as wall seconds do — the host,
not preemption.  A fixed 40 ms loop timed before and after each pass
drifts the same way, so CPU seconds are reported as

    calibrated seconds = seconds / tick seconds * TICK_REF_S

where the tick seconds are the mean of the ticks on either side of the
pass.  Wall seconds are rescaled only for the part of the pass in which a
processor was busy (``min(wall, cpu)``): time spent waiting on a socket
timer does not follow host speed, and rescaling it made ``sharded_batch``
(53% busy) worse, not better.  Measured on a 10-minute series of 795
identical ``enum_skewed`` passes cut into run-sized windows of 14: the raw
window medians spread 5.3% between their quartiles (range 32%), the
calibrated ones 2.1% (range 9%).  On 383 ``sharded_batch`` passes in
windows of 8: raw 2.9% (range 9%), all of the wall rescaled 3.1% (range
19%), the busy part rescaled 2.8% (range 11%).

The tick mixes what the program's hot paths mix — bytecode, dict and list
traffic, reads scattered over a few MiB of heap, tiny-array numpy calls —
and calls nothing from the program, so no change to ``src/`` moves it.
"""

from __future__ import annotations

import time

import numpy as np

#: Median tick on the quiet reference container; calibrated seconds read
#: as wall seconds there.  Frozen: changing it rescales every time metric.
TICK_REF_S = 0.0430

_TABLE = list(range(1 << 17))
_ARRAY = np.arange(4096, dtype=np.int64)


def tick() -> float:
    """Run the fixed work once; returns its wall seconds."""
    start = time.perf_counter()
    head = _ARRAY[:64]
    acc = 0
    seen: dict[int, object] = {}
    for i in range(30000):
        acc += int(head[i & 63])
        seen[i & 255] = acc
        if not i & 15:
            np.intersect1d(head[:8], head[4:12])
    table = _TABLE
    j = 1
    for i in range(24000):
        j = (j * 1103515245 + 12345) & 0x1FFFF
        acc += table[j]
        seen[j & 4095] = (acc, i)
        if not i & 31:
            k = j & 1023
            np.intersect1d(_ARRAY[k:k + 8], _ARRAY[k + 4:k + 12])
    return time.perf_counter() - start


def calibrated(seconds: float, tick_before: float, tick_after: float) -> float:
    """CPU ``seconds`` rescaled by the ticks measured on either side."""
    return seconds / ((tick_before + tick_after) / 2.0) * TICK_REF_S


def calibrated_wall(wall: float, cpu: float, tick_before: float,
                    tick_after: float) -> float:
    """``wall`` seconds with their busy part, ``min(wall, cpu)``, rescaled."""
    busy = min(wall, cpu)
    return wall - busy + calibrated(busy, tick_before, tick_after)
