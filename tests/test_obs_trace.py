"""Unit coverage for the observability toolkit (:mod:`repro.obs`).

Spans and propagation (:mod:`repro.obs.trace`): nesting through the
context variable, the allocation-free disabled path, tree assembly with
orphan re-rooting, and the wire-context round trip shard workers use.
Histograms and the slow-query ring (:mod:`repro.obs.hist`): bucket
placement, interpolated percentiles, snapshot shape.  Text exposition
(:mod:`repro.obs.expo`): gauge and histogram family rendering.
"""

from __future__ import annotations

import json
import re
import threading

import pytest

from repro.obs.expo import render_text
from repro.obs import hist as hist_module
from repro.obs.hist import DEFAULT_BUCKETS, Histogram, SlowQueryLog
from repro.obs.trace import (
    Tracer,
    attach_spans,
    current_span,
    remote_span,
    span,
    span_names,
    wire_context,
)


# ----------------------------------------------------------------------
# Spans and context propagation
# ----------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_assemble_into_one_tree(self):
        tracer = Tracer()
        with tracer.root("run", engine="rads"):
            with span("round.one", machines=4):
                with span("batch"):
                    pass
            with span("round.two"):
                pass
        tree = tracer.tree()
        assert tree["name"] == "run"
        assert tree["parent"] is None
        assert tree["attributes"] == {"engine": "rads"}
        assert [child["name"] for child in tree["children"]] == [
            "round.one",
            "round.two",
        ]
        [batch] = tree["children"][0]["children"]
        assert batch["name"] == "batch"
        assert batch["parent"] == tree["children"][0]["span_id"]
        # Every span shares the trace id and carries a duration.
        for name_count, node in enumerate(
            [tree, *tree["children"], batch]
        ):
            assert node["trace_id"] == tracer.trace_id
            assert node["duration"] >= 0.0
        assert name_count == 3
        # The whole tree is JSON-safe (it rides protocol responses).
        json.dumps(tree)

    def test_disabled_path_is_shared_noop(self):
        assert current_span() is None
        first = span("anything", key="value")
        second = span("other")
        assert first is second  # the shared no-op instance
        with first:
            assert current_span() is None
        assert wire_context() is None
        attach_spans([{"span_id": "x"}])  # swallowed, no trace active

    def test_durations_nest_and_children_sort_by_start(self):
        tracer = Tracer()
        with tracer.root("root"):
            with span("b"):
                pass
            with span("a"):
                pass
        tree = tracer.tree()
        # Start order, not name order.
        assert [c["name"] for c in tree["children"]] == ["b", "a"]
        assert sum(c["duration"] for c in tree["children"]) <= (
            tree["duration"]
        )

    def test_exception_is_recorded_and_span_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.root("root"):
                with span("failing"):
                    raise RuntimeError("boom")
        tree = tracer.tree()
        [child] = tree["children"]
        assert "boom" in child["attributes"]["error"]
        assert current_span() is None  # context fully unwound

    def test_orphan_spans_reroot_instead_of_vanishing(self):
        tracer = Tracer()
        with tracer.root("root"):
            pass
        tracer.attach([
            {
                "trace_id": tracer.trace_id,
                "span_id": "dead-parent-child",
                "parent": "never-recorded",
                "name": "worker.task",
                "start": 0.0,
                "duration": 0.1,
                "attributes": {},
            }
        ])
        tree = tracer.tree()
        assert [c["name"] for c in tree["children"]] == ["worker.task"]

    def test_span_names_walks_depth_first(self):
        tracer = Tracer()
        with tracer.root("root"):
            with span("a"):
                with span("a.a"):
                    pass
            with span("b"):
                pass
        assert list(span_names(tracer.tree())) == [
            "root", "a", "a.a", "b",
        ]
        assert list(span_names(None)) == []


class TestWirePropagation:
    def test_wire_context_round_trip(self):
        tracer = Tracer()
        with tracer.root("root") as root:
            context = wire_context()
            assert context == {
                "trace_id": tracer.trace_id,
                "parent": root.span_id,
            }
            json.dumps(context)  # rides a JSON task message
            # The "remote worker": builds finished dicts, no Tracer.
            shipped = remote_span(
                context, "worker.task", 1.5, 0.25,
                shard="127.0.0.1:7471", mode="inline",
            )
            attach_spans([shipped])
        tree = tracer.tree()
        [leaf] = tree["children"]
        assert leaf["name"] == "worker.task"
        assert leaf["parent"] == tree["span_id"]
        assert leaf["duration"] == 0.25
        assert leaf["attributes"]["shard"] == "127.0.0.1:7471"

    def test_spans_from_other_threads_fold_in(self):
        tracer = Tracer()

        def remote(context):
            return remote_span(context, "worker.task", 0.0, 0.1, pid=1)

        with tracer.root("root"):
            with span("executor.batch") as batch:
                context = wire_context()
                assert context["parent"] == batch.span_id
                results = []
                worker = threading.Thread(
                    target=lambda: results.append(remote(context))
                )
                worker.start()
                worker.join()
                attach_spans(results)
        tree = tracer.tree()
        [batch_node] = tree["children"]
        [leaf] = batch_node["children"]
        assert leaf["name"] == "worker.task"


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
class TestHistogram:
    def test_buckets_are_cumulative_le_semantics(self, monkeypatch):
        monkeypatch.setattr(hist_module, "DEFAULT_BUCKETS", (0.1, 1.0, 10.0))
        hist = Histogram("t")
        for value in (0.05, 0.1, 0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert [b["count"] for b in snap["buckets"]] == [2, 3, 4, 5]
        assert snap["buckets"][-1]["le"] == float("inf")
        assert snap["count"] == 5
        assert snap["max"] == 50.0
        assert snap["sum"] == pytest.approx(55.65)

    def test_percentiles_interpolate_within_the_bucket(self, monkeypatch):
        monkeypatch.setattr(hist_module, "DEFAULT_BUCKETS", (1.0, 2.0))
        hist = Histogram("t")
        for _ in range(100):
            hist.observe(1.5)
        # All mass in (1.0, 2.0]: the median interpolates inside it.
        assert 1.0 < hist.percentile(50.0) <= 2.0
        snap = hist.snapshot()
        assert set(snap) >= {"p50", "p95", "p99"}
        assert snap["p50"] <= snap["p95"] <= snap["p99"]

    def test_overflow_bucket_percentile_reports_observed_max(self, monkeypatch):
        monkeypatch.setattr(hist_module, "DEFAULT_BUCKETS", (0.001,))
        hist = Histogram("t")
        hist.observe(42.0)
        assert hist.percentile(99.0) == 42.0

    def test_empty_and_negative_observations(self):
        hist = Histogram("t")
        assert hist.percentile(50.0) == 0.0
        hist.observe(-5.0)  # clamps to zero, lands in the first bucket
        assert hist.snapshot()["buckets"][0]["count"] == 1

    def test_default_ladder_spans_cache_lookup_to_long_enumeration(self):
        assert DEFAULT_BUCKETS[0] <= 0.0001
        assert DEFAULT_BUCKETS[-1] >= 60.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_invalid_buckets_are_rejected(self, monkeypatch):
        for buckets in ((), (0.0, 1.0), (1.0, 1.0)):
            monkeypatch.setattr(hist_module, "DEFAULT_BUCKETS", buckets)
            with pytest.raises(ValueError):
                Histogram("t")


class TestSlowQueryLog:
    def test_keeps_the_slowest_sorted_desc(self, monkeypatch):
        monkeypatch.setattr(hist_module, "SLOW_QUERIES", 3)
        log = SlowQueryLog()
        for duration in (0.1, 0.5, 0.2, 0.9, 0.05):
            log.record({"pattern": "q", "duration": duration})
        assert [e["duration"] for e in log.snapshot()] == [0.9, 0.5, 0.2]

    def test_fast_requests_do_not_displace_slow_ones(self, monkeypatch):
        monkeypatch.setattr(hist_module, "SLOW_QUERIES", 2)
        log = SlowQueryLog()
        log.record({"duration": 1.0})
        log.record({"duration": 2.0})
        log.record({"duration": 0.5})
        assert [e["duration"] for e in log.snapshot()] == [2.0, 1.0]

    def test_entries_are_copied_not_aliased(self):
        log = SlowQueryLog()
        entry = {"duration": 1.0, "pattern": "q"}
        log.record(entry)
        entry["pattern"] = "mutated"
        assert log.snapshot()[0]["pattern"] == "q"

    def test_capacity_must_be_positive(self, monkeypatch):
        monkeypatch.setattr(hist_module, "SLOW_QUERIES", 0)
        with pytest.raises(ValueError):
            SlowQueryLog()


# ----------------------------------------------------------------------
# Text exposition
# ----------------------------------------------------------------------
class TestRenderText:
    def test_numeric_leaves_become_prefixed_gauges(self):
        text = render_text({
            "scheduler": {"submitted": 3, "running": 0},
            "uptime_seconds": 1.25,
            "graph": "abcdef",          # strings skipped
            "shards": {"configured": []},  # plain lists skipped
            "cache": None,              # nulls skipped
        })
        assert "# TYPE repro_scheduler_submitted gauge" in text
        assert "repro_scheduler_submitted 3" in text.splitlines()
        assert "repro_uptime_seconds 1.25" in text.splitlines()
        assert "abcdef" not in text
        assert text.endswith("\n")

    def test_histogram_snapshot_renders_buckets_sum_count_quantiles(
        self, monkeypatch
    ):
        monkeypatch.setattr(hist_module, "DEFAULT_BUCKETS", (0.1, 1.0))
        hist = Histogram("latency")
        hist.observe(0.05)
        hist.observe(0.5)
        text = render_text({"histograms": {"latency": hist.snapshot()}})
        family = "repro_histograms_latency_seconds"
        assert f"# TYPE {family} histogram" in text
        assert f'{family}_bucket{{le="0.1"}} 1' in text.splitlines()
        assert f'{family}_bucket{{le="+Inf"}} 2' in text.splitlines()
        assert f"{family}_count 2" in text.splitlines()
        assert re.search(rf'^{family}{{quantile="0\.5"}} ', text, re.M)

    def test_weird_key_characters_are_sanitized(self):
        text = render_text({"a b/c": {"x-y": 1}})
        assert "repro_a_b_c_x_y 1" in text.splitlines()
