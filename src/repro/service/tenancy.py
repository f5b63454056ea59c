"""Per-tenant quotas for the query service: rate, memory, fair share.

A production serving tier cannot let one caller starve the rest.  This
module adds the accounting half of multi-tenancy to
:class:`~repro.service.scheduler.QueryScheduler`:

- **Token-bucket rate limits** — each tenant's submissions drain a
  bucket of ``burst`` tokens refilled at ``rate`` tokens/second; an
  empty bucket rejects the submission loudly at submit time with
  :class:`QuotaExceeded` (cache hits and dedup riders consume tokens
  too: the rate shapes *request* rate, not compute).
- **Per-tenant memory budgets** — a tenant's concurrently *running*
  admission cost (the same ``machines x memory_mb`` estimate the global
  budget meters) may not exceed ``memory_mb``; a request that can never
  fit is rejected at submit time, one that merely has to wait is
  deferred at claim time without blocking other tenants.
- **Weighted fair share** — among runnable queued requests of equal
  priority, the scheduler picks the tenant with the least reserved
  memory per unit ``weight`` (FIFO within a tenant), so a heavy tenant
  cannot monopolize the worker pool by submitting first.

:class:`TenantLedger` holds the per-tenant state; quotas come from an
explicit ``{tenant: TenantQuota}`` mapping plus an optional ``default``
applied to tenants not listed.  Tenants without any quota (and the
anonymous ``tenant=None``) are tracked for stats and fairness but never
rejected.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.api.config import MIB

__all__ = ["QuotaExceeded", "TenantLedger", "TenantQuota"]


class QuotaExceeded(RuntimeError):
    """A tenant's token bucket is empty (submission rate limit)."""


@dataclass(frozen=True)
class TenantQuota:
    """Serving limits for one tenant (all knobs optional).

    - ``rate``: submissions per second refilled into the bucket
      (``None`` = unmetered).
    - ``burst``: bucket capacity — how many submissions may arrive
      back-to-back (default: ``ceil(rate)``, at least 1).
    - ``memory_mb``: cap on the tenant's concurrently reserved admission
      cost, in MiB (``None`` = only the global budget applies).
    - ``weight``: fair-share weight — a tenant with weight 2 is allowed
      twice the reserved memory of a weight-1 tenant before the
      scheduler prefers the other.
    """

    rate: float | None = None
    burst: int | None = None
    memory_mb: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.rate is not None and not (
            isinstance(self.rate, (int, float)) and self.rate > 0
        ):
            raise ValueError(
                f"rate must be positive or None, got {self.rate!r}"
            )
        if self.burst is not None and not (
            isinstance(self.burst, int) and self.burst >= 1
        ):
            raise ValueError(
                f"burst must be an integer >= 1 or None, got {self.burst!r}"
            )
        if self.memory_mb is not None and not (
            isinstance(self.memory_mb, (int, float)) and self.memory_mb > 0
        ):
            raise ValueError(
                f"memory_mb must be positive or None, got {self.memory_mb!r}"
            )
        if not (isinstance(self.weight, (int, float)) and self.weight > 0):
            raise ValueError(
                f"weight must be positive, got {self.weight!r}"
            )

    @property
    def bucket_size(self) -> float | None:
        """Effective bucket capacity (``None`` when rate is unmetered)."""
        if self.rate is None:
            return None
        return float(self.burst if self.burst is not None
                     else max(1, math.ceil(self.rate)))

    @property
    def memory_bytes(self) -> int | None:
        """The memory budget in bytes (what admission accounts in)."""
        return None if self.memory_mb is None else int(self.memory_mb * MIB)


class _TenantState:
    """Mutable accounting for one tenant (bucket + reservations + stats)."""

    __slots__ = (
        "quota", "tokens", "refilled_at", "reserved", "running", "stats",
    )

    def __init__(self, quota: "TenantQuota | None", now: float):
        self.quota = quota
        size = None if quota is None else quota.bucket_size
        self.tokens = 0.0 if size is None else size
        self.refilled_at = now
        self.reserved = 0
        self.running = 0
        self.stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cache_hits": 0,
            "deduped": 0,
            "rejected_rate": 0,
            "rejected_memory": 0,
        }


class TenantLedger:
    """Thread-safe per-tenant accounting behind the scheduler.

    ``quotas`` maps tenant names to their :class:`TenantQuota`;
    ``default`` applies to any other named tenant.  The anonymous tenant
    (``None``) is tracked but never limited.  ``clock`` is injectable
    for deterministic token-bucket tests.
    """

    def __init__(
        self,
        quotas: "Mapping[str, TenantQuota] | None" = None,
        *,
        default: "TenantQuota | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._quotas = dict(quotas or {})
        for tenant, quota in self._quotas.items():
            if not isinstance(tenant, str) or not tenant:
                raise ValueError(
                    f"tenant names must be non-empty strings, got {tenant!r}"
                )
            if not isinstance(quota, TenantQuota):
                raise TypeError(
                    f"quota for {tenant!r} must be a TenantQuota, "
                    f"got {quota!r}"
                )
        self._default = default
        self._clock = clock
        self._lock = threading.Lock()
        self._states: dict[Any, _TenantState] = {}

    # ------------------------------------------------------------------
    def quota_for(self, tenant: "str | None") -> "TenantQuota | None":
        """The quota governing ``tenant`` (the anonymous tenant has none)."""
        if tenant is None:
            return None
        return self._quotas.get(tenant, self._default)

    def _state(self, tenant: "str | None") -> _TenantState:
        """The tenant's state record (caller holds the lock)."""
        state = self._states.get(tenant)
        if state is None:
            state = _TenantState(self.quota_for(tenant), self._clock())
            self._states[tenant] = state
        return state

    def _refill(self, state: _TenantState, now: float) -> None:
        quota = state.quota
        if quota is None or quota.rate is None:
            return
        elapsed = max(0.0, now - state.refilled_at)
        state.tokens = min(
            quota.bucket_size or 0.0, state.tokens + elapsed * quota.rate
        )
        state.refilled_at = now

    # ------------------------------------------------------------------
    def admit(self, tenant: "str | None") -> None:
        """Charge one submission token; raises :class:`QuotaExceeded`."""
        with self._lock:
            state = self._state(tenant)
            quota = state.quota
            if quota is None or quota.rate is None:
                return
            self._refill(state, self._clock())
            if state.tokens < 1.0:
                state.stats["rejected_rate"] += 1
                raise QuotaExceeded(
                    f"tenant {tenant!r} exceeded its submission rate of "
                    f"{quota.rate}/s (burst {int(quota.bucket_size or 0)}); "
                    f"retry later"
                )
            state.tokens -= 1.0

    def memory_bytes(self, tenant: "str | None") -> "int | None":
        """The tenant's concurrent-memory budget in bytes (None = uncapped)."""
        quota = self.quota_for(tenant)
        return None if quota is None else quota.memory_bytes

    def reject_memory(self, tenant: "str | None") -> None:
        """Count a never-fits memory rejection for ``tenant``."""
        with self._lock:
            self._state(tenant).stats["rejected_memory"] += 1

    def has_headroom(self, tenant: "str | None", cost: int) -> bool:
        """Would running a ``cost``-byte request keep the tenant in budget?"""
        budget = self.memory_bytes(tenant)
        if budget is None:
            return True
        with self._lock:
            return self._state(tenant).reserved + cost <= budget

    def reserve(self, tenant: "str | None", cost: int) -> None:
        """Charge a claimed execution's cost against the tenant."""
        with self._lock:
            state = self._state(tenant)
            state.reserved += cost
            state.running += 1

    def release(self, tenant: "str | None", cost: int) -> None:
        """Return a finished execution's cost to the tenant."""
        with self._lock:
            state = self._state(tenant)
            state.reserved -= cost
            state.running -= 1

    def fair_key(self, tenant: "str | None") -> float:
        """Reserved bytes per unit weight — lower claims first."""
        with self._lock:
            state = self._states.get(tenant)
            if state is None:
                return 0.0
            weight = 1.0 if state.quota is None else state.quota.weight
            return state.reserved / weight

    def note(self, tenant: "str | None", counter: str) -> None:
        """Bump one per-tenant stat counter."""
        with self._lock:
            self._state(tenant).stats[counter] += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, Any]]:
        """JSON-safe per-tenant usage (the ``metrics`` op's tenant view).

        The anonymous tenant is reported under ``"*"`` when it has any
        activity; named tenants under their own names.
        """
        with self._lock:
            snapshot: dict[str, dict[str, Any]] = {}
            for tenant, state in self._states.items():
                name = "*" if tenant is None else str(tenant)
                quota = state.quota
                snapshot[name] = dict(state.stats)
                snapshot[name].update({
                    "reserved_bytes": state.reserved,
                    "running": state.running,
                    "rate": None if quota is None else quota.rate,
                    "memory_mb": None if quota is None else quota.memory_mb,
                    "weight": 1.0 if quota is None else quota.weight,
                })
            return snapshot
