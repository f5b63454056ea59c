"""Declarative SLO rules over the service's metrics snapshot.

:class:`HealthEngine` turns the ``metrics`` payload the query server
already assembles — histogram snapshots, scheduler counters, cache
stats, the shard-registry health view — into one operational verdict:
``ok``, ``degraded`` or ``critical``, together with the rules that are
firing and the evidence each one fired on.  The rules are *declarative*
in the sense that each is a named threshold over fields the snapshot
already carries; nothing here measures anything new, so evaluating is
cheap enough for ``repro health --watch`` to poll.

Built-in rules (each threshold is a module constant):

- ``latency_p95`` — the ``latency`` histogram's p95 exceeds the ceiling
  (only once ``min_samples`` requests have completed, so a cold server
  is not judged on one slow warmup query);
- ``error_rate`` — failed / (completed + failed) exceeds the budget,
  again gated on ``min_samples`` finished requests;
- ``queue_depth`` — more requests queued than the backlog bound
  (admission control is about to hurt);
- ``stale_shards`` — announced workers that stopped heartbeating
  (``stale`` flags in the registry snapshot);
- ``disk_errors`` — the cache's disk-tier error counter exceeded its
  budget (spills are failing; the persistent tier is lying down);
- ``worker_loss`` — a ``worker.lost`` event with no later
  ``worker.joined``: a roster member died and no replacement has
  announced yet.  This is the one event-sourced rule — losses are
  transitions, not gauges, so the journal is their system of record.

``critical`` is reserved for rules whose firing means answers are being
refused or lost (error rate); everything else degrades.  Transitions are
journaled: the engine emits ``health.rule_fired`` when a rule starts
firing and ``health.rule_cleared`` when it stops, so the event journal
records *when* the service crossed each line, not just that it is
currently over it.
"""

from __future__ import annotations

from typing import Any

from repro.obs import events as _events

__all__ = ["HealthEngine", "STATUSES"]

#: Verdict ladder, healthiest first.
STATUSES = ("ok", "degraded", "critical")

#: ``latency_p95``'s ceiling, in seconds.
P95_LATENCY_SECONDS = 30.0
#: Finished requests before ``latency_p95`` and ``error_rate`` judge.
MIN_SAMPLES = 16
#: ``error_rate``'s budget: the failed fraction of finished requests.
ERROR_RATE = 0.5
#: ``queue_depth``'s bound on queued requests.
QUEUE_DEPTH = 64
#: Stale announced workers at which ``stale_shards`` fires.
STALE_SHARDS = 1
#: ``disk_errors``'s budget on the cache's disk-tier error counter.
DISK_ERROR_BUDGET = 8


def _shed(metrics: dict, *path: str) -> Any:
    """``metrics[a][b]...`` with missing/None segments collapsing to None."""
    node: Any = metrics
    for key in path:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


class HealthEngine:
    """Evaluates the SLO rule set against one metrics snapshot.

    The thresholds are the module constants; :meth:`evaluate` is stateless
    apart from remembering which rules were firing last time (to emit
    fired/cleared transition events into ``journal``, the process
    default when omitted).
    """

    def __init__(self, *, journal: "_events.EventJournal | None" = None):
        self._journal = journal if journal is not None else _events.journal()
        self._firing: set[str] = set()

    # ------------------------------------------------------------------
    def _rules(self, metrics: dict) -> list[dict[str, Any]]:
        rules: list[dict[str, Any]] = []

        latency = _shed(metrics, "histograms", "latency") or {}
        samples = int(latency.get("count") or 0)
        p95 = float(latency.get("p95") or 0.0)
        rules.append({
            "name": "latency_p95",
            "severity": "degraded",
            "firing": (
                samples >= MIN_SAMPLES
                and p95 > P95_LATENCY_SECONDS
            ),
            "evidence": {
                "p95_seconds": p95,
                "ceiling_seconds": P95_LATENCY_SECONDS,
                "samples": samples,
            },
        })

        completed = int(_shed(metrics, "scheduler", "completed") or 0)
        failed = int(_shed(metrics, "scheduler", "failed") or 0)
        finished = completed + failed
        rate = (failed / finished) if finished else 0.0
        rules.append({
            "name": "error_rate",
            "severity": "critical",
            "firing": (
                finished >= MIN_SAMPLES and rate > ERROR_RATE
            ),
            "evidence": {
                "rate": rate,
                "budget": ERROR_RATE,
                "failed": failed,
                "finished": finished,
            },
        })

        queued = int(_shed(metrics, "scheduler", "queued") or 0)
        rules.append({
            "name": "queue_depth",
            "severity": "degraded",
            "firing": queued > QUEUE_DEPTH,
            "evidence": {"queued": queued, "bound": QUEUE_DEPTH},
        })

        registry = _shed(metrics, "shards", "registry") or []
        stale = [
            entry["address"]
            for entry in registry
            if isinstance(entry, dict) and entry.get("stale")
        ]
        rules.append({
            "name": "stale_shards",
            "severity": "degraded",
            "firing": len(stale) >= STALE_SHARDS,
            "evidence": {
                "stale": stale,
                "announced": len(registry),
                "bound": STALE_SHARDS,
            },
        })

        disk_errors = int(_shed(metrics, "cache", "disk", "errors") or 0)
        rules.append({
            "name": "disk_errors",
            "severity": "degraded",
            "firing": disk_errors > DISK_ERROR_BUDGET,
            "evidence": {
                "errors": disk_errors,
                "budget": DISK_ERROR_BUDGET,
            },
        })

        # Event-sourced: a loss with no later join means a dead roster
        # member nobody has replaced.  Sequence order, not wall time —
        # the journal's seq is the one total order both kinds share.
        lost = self._journal.last(_events.WORKER_LOST)
        joined = self._journal.last(_events.WORKER_JOINED)
        lost_unreplaced = lost is not None and (
            joined is None or joined["seq"] < lost["seq"]
        )
        evidence: dict[str, Any] = {
            "lost_seq": None if lost is None else lost["seq"],
            "joined_seq": None if joined is None else joined["seq"],
        }
        if lost_unreplaced:
            evidence["address"] = lost.get("address")
            if "trace_id" in lost:
                evidence["trace_id"] = lost["trace_id"]
        rules.append({
            "name": "worker_loss",
            "severity": "degraded",
            "firing": lost_unreplaced,
            "evidence": evidence,
        })

        return rules

    # ------------------------------------------------------------------
    def evaluate(self, metrics: dict) -> dict[str, Any]:
        """The health verdict for one metrics snapshot (JSON-safe).

        Returns ``{"status", "rules", "firing"}`` where ``rules`` lists
        every rule with its ``firing`` flag and evidence and ``firing``
        names just the active ones.  Rule transitions since the previous
        call are emitted into the journal.
        """
        rules = self._rules(metrics)
        firing = {rule["name"] for rule in rules if rule["firing"]}
        for rule in rules:
            name = rule["name"]
            if rule["firing"] and name not in self._firing:
                self._journal.emit(
                    "warning",
                    "health",
                    _events.HEALTH_RULE_FIRED,
                    rule=name,
                    severity=rule["severity"],
                )
            elif not rule["firing"] and name in self._firing:
                self._journal.emit(
                    "info",
                    "health",
                    _events.HEALTH_RULE_CLEARED,
                    rule=name,
                )
        self._firing = firing

        status = "ok"
        for rule in rules:
            if not rule["firing"]:
                continue
            if rule["severity"] == "critical":
                status = "critical"
                break
            status = "degraded"
        return {
            "status": status,
            "rules": rules,
            "firing": sorted(firing),
        }
