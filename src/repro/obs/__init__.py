"""Observability: tracing, timing histograms, metrics exposition.

Zero-dependency instrumentation threaded through every layer of the
system (PR 9):

- :mod:`repro.obs.trace` — nested spans with context propagation.
  ``Session.run(trace=True)`` or a ``submit`` op carrying
  ``trace: true`` opens a root span; engines open per-round spans via
  :meth:`~repro.engines.base.EnumerationEngine.round_span`; executors
  open per-batch spans; the distributed protocol carries the trace
  context on ``task`` messages so shard workers emit child spans that
  ship back beside results and reassemble into one tree.  Off by
  default: the disabled path is a single context-variable read.
- :mod:`repro.obs.hist` — fixed-bucket latency/queue-wait/cache-lookup
  histograms (p50/p95/p99 in the ``metrics`` op) and the slow-query
  ring buffer.
- :mod:`repro.obs.expo` — Prometheus-style text exposition of the
  metrics document (``metrics`` op with ``format: "text"``).
- :mod:`repro.obs.counters` — the registry of every
  ``RunResult.counters`` namespace, asserted by tier-1 tests.
- :mod:`repro.obs.profile` — per-request resource profiles (PR 10):
  ``Session.run(profile=True)`` or a ``submit`` op carrying
  ``profile: true`` measures CPU/memory/GC around the request, folds
  the span tree into a flame table (self-time by span name), and
  attributes CPU to shard workers from the rusage their task spans
  carry.
- :mod:`repro.obs.events` — the structured event journal: a bounded
  ring of leveled, JSON-safe records emitted at every state transition
  that previously only bumped a counter (worker lost/joined/stale,
  batch resubmit/retry, quota/admission rejections, cache evictions,
  disk-spill errors, graph rebinds, watch drops), served by the
  ``events`` op and ``repro events``.
- :mod:`repro.obs.health` — declarative SLO rules over the metrics
  snapshot (p95 latency, error rate, queue depth, stale shards, disk
  errors, unreplaced worker loss) behind the ``health`` op and
  ``repro health``.

See the "Observability" sections of docs/api.md for the span, profile,
event and health schemas, histogram buckets, and exposition format.
"""

from repro.obs.counters import KNOWN_COUNTERS, unknown_counters
from repro.obs.events import EventJournal, KNOWN_KINDS, emit, journal
from repro.obs.expo import render_text
from repro.obs.health import HealthEngine
from repro.obs.hist import DEFAULT_BUCKETS, Histogram, SlowQueryLog
from repro.obs.profile import Profiler, flame_table
from repro.obs.trace import (
    Span,
    Tracer,
    attach_spans,
    current_span,
    remote_span,
    span,
    span_names,
    wire_context,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "EventJournal",
    "HealthEngine",
    "Histogram",
    "KNOWN_COUNTERS",
    "KNOWN_KINDS",
    "Profiler",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "attach_spans",
    "current_span",
    "emit",
    "flame_table",
    "journal",
    "remote_span",
    "render_text",
    "span",
    "span_names",
    "unknown_counters",
    "wire_context",
]
