"""Every emitted counter name is pinned to the one registry.

:mod:`repro.obs.counters` spells each namespaced counter literally (it
must stay importable without cycles), so these tests do the cross-check
the module itself cannot: each owning module's source-of-truth constant
must appear in :data:`KNOWN_COUNTERS` verbatim, and real workloads
through the service tier and the socket backend must emit only
registered names.  A typo'd counter key fails here instead of silently
forking a new time series.
"""

from __future__ import annotations

import pytest

from repro.api import RunConfig, Session
from repro.distributed import coordinator
from repro.obs.counters import (
    DISTRIBUTED_COUNTERS,
    ENGINE_COUNTER_PATTERN,
    KNOWN_COUNTERS,
    SERVICE_COUNTERS,
    WATCH_COUNTERS,
    unknown_counters,
)
from repro.service import cache as service_cache
from repro.service.scheduler import QueryScheduler
from repro.store import STORE_HIT_COUNTER


class TestRegistryPinsSourceConstants:
    """The literal spellings cannot drift from their owning modules."""

    def test_cache_constants_are_registered(self):
        assert service_cache.HIT_COUNTER in SERVICE_COUNTERS
        assert service_cache.DEDUP_COUNTER in SERVICE_COUNTERS

    def test_store_hit_spelling_is_shared_and_registered(self):
        # One spelling (repro.service.cache), re-exported by repro.store.
        assert STORE_HIT_COUNTER in SERVICE_COUNTERS

    def test_distributed_fault_counters_are_registered(self):
        assert coordinator.RESUBMITS in DISTRIBUTED_COUNTERS
        assert coordinator.LOST_WORKERS in DISTRIBUTED_COUNTERS

    def test_watch_dropped_reservation(self):
        assert "watch.dropped" in WATCH_COUNTERS

    def test_union_covers_every_namespace(self):
        assert KNOWN_COUNTERS == (
            SERVICE_COUNTERS | DISTRIBUTED_COUNTERS | WATCH_COUNTERS
        )
        # Namespaced names are dotted; the engine shape check is for
        # the dotless layer only.
        assert all("." in name for name in KNOWN_COUNTERS)


class TestEventMirrorParity:
    """Event kinds that mirror counters stay pinned to both registries.

    PR 10's journal records the *same* transitions some counters count;
    :data:`repro.obs.events.MIRRORED_COUNTERS` spells the pairing.  Each
    side must match its source of truth, so an event can never claim to
    mirror a counter that drifted or was never registered.
    """

    def test_mirrored_pairs_pin_the_coordinator_constants(self):
        from repro.obs import events

        assert (
            events.MIRRORED_COUNTERS[events.WORKER_LOST]
            == coordinator.LOST_WORKERS
        )
        assert (
            events.MIRRORED_COUNTERS[events.BATCH_RESUBMIT]
            == coordinator.RESUBMITS
        )

    def test_mirrored_names_exist_in_both_registries(self):
        from repro.obs import events

        assert set(events.MIRRORED_COUNTERS) <= events.KNOWN_KINDS
        assert set(events.MIRRORED_COUNTERS.values()) <= KNOWN_COUNTERS


class TestUnknownCounters:
    def test_registered_and_engine_names_pass(self):
        assert unknown_counters([]) == []
        assert unknown_counters(
            ["service.cache_hit", "join_ops", "sme_embeddings", "alloc_bytes"]
        ) == []

    def test_typod_namespace_is_flagged(self):
        assert unknown_counters(["service.cache_hitt"]) == [
            "service.cache_hitt"
        ]

    def test_bad_engine_shape_is_flagged(self):
        assert unknown_counters(["JoinOps", "2fast", "has space"]) == [
            "2fast",
            "JoinOps",
            "has space",
        ]
        assert ENGINE_COUNTER_PATTERN.match("join_ops")
        assert not ENGINE_COUNTER_PATTERN.match("Join_ops")


class TestRealWorkloadsEmitOnlyRegisteredNames:
    @pytest.mark.parametrize("engine", ["rads", "seed"])
    def test_session_run_counters_are_accounted_for(
        self, er_graph, engine
    ):
        session = Session(er_graph, RunConfig(machines=3))
        result = session.query("a-b, b-c, c-a").engine(engine).run()
        assert result.counters  # non-trivial workload
        assert unknown_counters(result.counters) == []

    def test_scheduler_served_counters_are_accounted_for(self, er_graph):
        with QueryScheduler(
            er_graph, RunConfig(machines=3), threads=2
        ) as scheduler:
            # Twice: the repeat comes back via cache/dedup annotations,
            # exercising the service.* namespace end to end.
            for _ in range(2):
                ticket = scheduler.submit("a-b, b-c, c-a", engine="rads")
                result = ticket.result(timeout=60)
                assert unknown_counters(result.counters) == []
            assert any(
                name in SERVICE_COUNTERS for name in result.counters
            )
