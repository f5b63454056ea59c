"""Query service layer: scheduler, result cache, socket server and client.

- :class:`~repro.service.scheduler.QueryScheduler` — concurrent
  submissions over one graph: a priority queue and worker threads over the
  engines, an admission budget from :attr:`RunConfig.memory_mb`,
  deduplication of identical in-flight queries, timeout and cancellation.
- :class:`~repro.service.cache.ResultCache` — LRU + TTL, keyed by ``(graph
  fingerprint, pattern.canonical_key(), engine, config digest, collect)``:
  an *isomorphic* rewrite hits, its embeddings remapped.
- :class:`~repro.service.server.QueryServer` /
  :class:`~repro.service.client.ServiceClient` — JSON lines over TCP
  (``repro serve`` / ``repro submit``; ``Session.serve()`` /
  ``repro.connect()``).

docs/protocol.md has the wire schema, docs/api.md the cache key and the
eviction policy.  Exports resolve on first access (name -> (module,
attribute)), so importing one submodule loads none of the others.
"""

from __future__ import annotations

from repro import _lazy

_EXPORTS = {name: (f"{__name__}.{module}", name) for module, names in {
    "cache": ("ResultCache", "cache_key", "config_digest", "key_digest", "remap_embeddings"),
    "client": ("ServiceClient", "ServiceError", "Subscription", "connect"),
    "protocol": ("PROTOCOL_VERSION", "ProtocolError"),
    "scheduler": (
        "AdmissionError", "QueryScheduler", "QueryTicket", "QuotaExceeded",
        "SchedulerClosed", "ServiceTimeout",
    ),
    "server": ("QueryServer",),
    "tenancy": ("TenantLedger", "TenantQuota"),
    "transport": ("wait_until_serving",),
}.items() for name in names}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
