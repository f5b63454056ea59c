"""The one registry of ``RunResult.counters`` names and namespaces.

Counters accumulate in two distinct layers, distinguishable by the dot:

- **Namespaced** (``layer.name``) — attached by infrastructure *around*
  an enumeration: the service tier's cache/dedup/store annotations, the
  distributed backend's fault counters, the streaming layer's drop
  accounting.  Every namespaced counter any layer may emit is spelled
  here, and tier-1 tests assert emitted names against this registry, so
  a typo'd key fails CI instead of silently forking a new time series.
- **Engine-level** (no dot, ``snake_case``) — per-machine operation and
  allocation counters charged inside the simulated cluster
  (``machine.charge_ops(ops, "join_ops")`` …) and merged across machines
  into ``RunResult.counters``.  These are open-ended by design (each
  engine names its own phases) and are constrained by *shape* only:
  :data:`ENGINE_COUNTER_PATTERN`.

The names are spelled literally rather than imported from their owning
modules: this module must stay importable from anywhere (including the
modules that own the constants) without cycles.
``tests/test_counter_registry.py`` pins each literal to its
source-of-truth constant, so the two spellings cannot drift.
"""

from __future__ import annotations

import re
from typing import Iterable

__all__ = [
    "DISTRIBUTED_COUNTERS",
    "ENGINE_COUNTER_PATTERN",
    "KNOWN_COUNTERS",
    "SERVICE_COUNTERS",
    "WATCH_COUNTERS",
    "unknown_counters",
]

#: Service tier (``repro.service.cache`` / ``scheduler`` /
#: ``repro.store``): cache and store annotations stamped onto served
#: results.  ``service.cache_hit``, ``service.dedup`` and
#: ``service.store_hit`` are per-request flags (0/1); the ``…_hits`` /
#: ``…_misses`` / ``…_evictions`` trio are cumulative cache totals at
#: serve time.
SERVICE_COUNTERS = frozenset({
    "service.cache_hit",
    "service.cache_hits",
    "service.cache_misses",
    "service.cache_evictions",
    "service.dedup",
    "service.store_hit",
})

#: Distributed socket backend (``repro.distributed.coordinator``):
#: fault-path counters, attached only when they advanced during the run
#: (a healthy run carries neither key — bit-parity with local backends).
DISTRIBUTED_COUNTERS = frozenset({
    "distributed.resubmits",
    "distributed.lost_workers",
})

#: Streaming continuous queries (``repro.streaming.continuous``):
#: deltas that never reached a watch (quota rejection or pending-queue
#: overflow).  Reserved spelling for the ``dropped`` count surfaced by
#: the ``poll`` op and ``Watch.describe()``.
WATCH_COUNTERS = frozenset({
    "watch.dropped",
})

#: Every namespaced counter the system may emit.
KNOWN_COUNTERS = SERVICE_COUNTERS | DISTRIBUTED_COUNTERS | WATCH_COUNTERS

#: Engine-level (machine) counters: dotless snake_case, one namespace
#: per simulated cluster — e.g. ``join_ops``, ``sme_embeddings``,
#: ``alloc_bytes``, ``daemon_ops``.
ENGINE_COUNTER_PATTERN = re.compile(r"^[a-z][a-z0-9_]*$")


def unknown_counters(names: Iterable[str]) -> list[str]:
    """Counter names that belong to no documented layer (sorted).

    A namespaced (dotted) name must appear in :data:`KNOWN_COUNTERS`
    verbatim; a dotless name must match :data:`ENGINE_COUNTER_PATTERN`.
    An empty return means every name is accounted for.
    """
    bad = set()
    for name in names:
        if "." in name:
            if name not in KNOWN_COUNTERS:
                bad.add(name)
        elif not ENGINE_COUNTER_PATTERN.match(name):
            bad.add(name)
    return sorted(bad)
