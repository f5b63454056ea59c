"""Query service layer: scheduler + result cache + socket server/client.

This package turns the library into a long-running service (PR 4 of the
ROADMAP's march toward serving heavy traffic):

- :class:`~repro.service.scheduler.QueryScheduler` — concurrent
  submissions over one graph: priority queue + worker threads over the
  existing engines/executors, admission-control memory budget derived
  from :attr:`RunConfig.memory_mb`, deduplication of identical in-flight
  queries, per-request timeout and cancellation.
- :class:`~repro.service.cache.ResultCache` — LRU + TTL result cache
  keyed by ``(graph fingerprint, pattern.canonical_key(), engine, config
  digest, collect)``; a hit for any *isomorphic* rewrite of a cached
  query serves the stored result with embeddings correctly remapped.
- :class:`~repro.service.server.QueryServer` /
  :class:`~repro.service.client.ServiceClient` — a JSON-lines TCP
  transport reusing ``RunResult.to_dict()`` / ``QueryExplanation.to_dict()``
  (``repro serve`` / ``repro submit`` on the CLI;
  ``Session.serve()`` / ``repro.connect()`` in the API).

See docs/protocol.md for the wire schema and docs/api.md for the
cache-key definition and the eviction policy.
"""

from repro.service.cache import (
    ResultCache,
    cache_key,
    config_digest,
    key_digest,
    remap_embeddings,
)
from repro.service.client import (
    ServiceClient,
    ServiceError,
    Subscription,
    connect,
)
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError
from repro.service.scheduler import (
    AdmissionError,
    QueryScheduler,
    QueryTicket,
    QuotaExceeded,
    SchedulerClosed,
    ServiceTimeout,
)
from repro.service.server import QueryServer
from repro.service.tenancy import TenantLedger, TenantQuota
from repro.service.transport import wait_until_serving

__all__ = [
    "AdmissionError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryScheduler",
    "QueryServer",
    "QueryTicket",
    "QuotaExceeded",
    "ResultCache",
    "SchedulerClosed",
    "ServiceClient",
    "ServiceError",
    "Subscription",
    "ServiceTimeout",
    "TenantLedger",
    "TenantQuota",
    "cache_key",
    "config_digest",
    "connect",
    "key_digest",
    "remap_embeddings",
    "wait_until_serving",
]
