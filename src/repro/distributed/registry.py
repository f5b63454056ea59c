"""Dynamic shard registry: workers announce themselves, rosters follow.

:class:`ShardRegistry` is the membership book behind the elastic socket
backend.  Shard workers started with ``repro worker --announce host:port``
periodically send an ``announce`` op to the query server; the server
records each announcement here, and every
:class:`~repro.distributed.coordinator.ShardCoordinator` built with
``registry=`` reconciles its connection roster against the book at batch
boundaries — so the roster grows when a worker announces, shrinks when
one withdraws (or goes stale), and a replacement worker joins a running
server without a restart.

The registry is deliberately passive: it never opens connections itself.
It answers three questions —

- :meth:`addresses`: which workers are currently announced (non-stale)?
- :meth:`snapshot`: per-worker health (announce counts, heartbeat age,
  held graphs) for the ``metrics`` op;
- :meth:`version`: a membership edit counter, bumped on joins and
  withdrawals (re-announcements refresh timestamps without bumping), so
  pollers can skip reconciliation cheaply.

Entries older than ``stale_after`` seconds (roughly three announce
intervals by default) stop being offered to coordinators but stay in
:meth:`snapshot` flagged ``stale`` until they re-announce or are
withdrawn — an operator looking at metrics should see a silent worker,
not a vanished one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.service.protocol import format_address, parse_address

__all__ = ["ShardRegistry"]

#: Default staleness horizon — three times the default worker
#: re-announce interval (see ``ShardWorker(announce_interval=...)``).
DEFAULT_STALE_AFTER = 45.0


@dataclass
class _Entry:
    """One announced worker: liveness timestamps plus advertised state."""

    address: str
    first_seen: float
    last_seen: float
    announces: int = 0
    graphs: tuple[str, ...] = ()
    workers: int | None = None
    pid: int | None = None
    extra: dict[str, Any] = field(default_factory=dict)


class ShardRegistry:
    """Thread-safe book of announced shard workers.

    ``stale_after`` (seconds, ``None`` = never) bounds how long a worker
    is offered to coordinators after its last announcement; ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        stale_after: float | None = DEFAULT_STALE_AFTER,
        clock: Callable[[], float] = time.monotonic,
    ):
        if stale_after is not None and stale_after <= 0:
            raise ValueError(
                f"stale_after must be positive or None, got {stale_after}"
            )
        self.stale_after = stale_after
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}
        self._version = 0

    # ------------------------------------------------------------------
    def announce(
        self,
        address: "tuple[str, int] | str | int",
        *,
        graphs: Iterable[str] = (),
        workers: int | None = None,
        pid: int | None = None,
        **extra: Any,
    ) -> int:
        """Record one announcement; returns the registry version.

        A new address is a membership edit (version bump); a re-announce
        refreshes the entry's timestamp and advertised state in place.
        """
        name = format_address(*parse_address(address))
        now = self._clock()
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                entry = _Entry(address=name, first_seen=now, last_seen=now)
                self._entries[name] = entry
                self._version += 1
            entry.last_seen = now
            entry.announces += 1
            entry.graphs = tuple(graphs)
            entry.workers = workers
            entry.pid = pid
            entry.extra = dict(extra)
            return self._version

    def withdraw(self, address: "tuple[str, int] | str | int") -> bool:
        """Remove a worker from the book (polite scale-down, not a fault)."""
        name = format_address(*parse_address(address))
        with self._lock:
            if self._entries.pop(name, None) is None:
                return False
            self._version += 1
            return True

    # ------------------------------------------------------------------
    def _stale(self, entry: _Entry, now: float) -> bool:
        return (
            self.stale_after is not None
            and now - entry.last_seen >= self.stale_after
        )

    def addresses(self) -> list[str]:
        """Announced, non-stale worker addresses in announce order."""
        now = self._clock()
        with self._lock:
            return [
                entry.address
                for entry in self._entries.values()
                if not self._stale(entry, now)
            ]

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-safe health view of every entry (stale ones flagged)."""
        now = self._clock()
        with self._lock:
            return [
                {
                    "address": entry.address,
                    "age_seconds": round(max(0.0, now - entry.last_seen), 3),
                    "announces": entry.announces,
                    "graphs": list(entry.graphs),
                    "workers": entry.workers,
                    "pid": entry.pid,
                    "stale": self._stale(entry, now),
                }
                for entry in self._entries.values()
            ]

    def announces(self, address: str) -> int:
        """Total announcements seen for ``address`` (0 when unknown).

        Coordinators use this as a clock-free rejoin signal: a dead
        roster member whose announce count advanced has restarted (or
        been replaced) and is worth reconnecting.
        """
        with self._lock:
            entry = self._entries.get(address)
            return 0 if entry is None else entry.announces

    def version(self) -> int:
        """Membership edit count (joins + withdrawals)."""
        with self._lock:
            return self._version

    def __len__(self) -> int:
        """Announced, non-stale worker count."""
        return len(self.addresses())
