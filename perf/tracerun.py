"""The traced run: ``run.py --workload NAME --trace 1``.

Separate from the end-to-end run, which never imports this module.  It
sets the workload up once, alternates traced and untraced passes (their
ratio is the tracing overhead), folds the spans into a self-time table,
counts Python calls in one extra pass, then runs the per-layer probes on
the workload's own graph.  Spans are kept in memory and written to
``perf/out/trace_<workload>.json`` at the end.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import threading
import time

import children
import probes
import run as harness
import tracing
from workloads import WORKLOADS

TRACED_PASSES = 5     # and as many untraced ones, alternating
SIBLING_PASSES = 2    # passes of each other workload run as a probe
SIBLING_ROUNDS = 6    # request rounds per pass when served_hot is a probe

_now = time.perf_counter


def count_calls(fn) -> int:
    """Python and C calls made by ``fn()``, in every thread it starts."""
    box = [0]

    def tick(frame, event, arg):
        if event == "call" or event == "c_call":
            box[0] += 1

    threading.setprofile(tick)
    sys.setprofile(tick)
    try:
        fn()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return box[0]


def traced_passes(workload, recorder, first_index: int, count: int):
    """``count`` traced passes; returns their accounting and root spans."""
    passes, roots = [], []
    for offset in range(count):
        recorder.pass_id = first_index + offset
        with recorder.span("harness.pass") as root:
            passes.append(probes.timed_pass(workload, first_index + offset))
        roots.append(root["id"])
    return passes, roots


def run_sibling(kind: str, graph, seed: int, tmp, active: list) -> dict:
    """Run workload ``kind`` on ``graph`` as a probe of its layers."""
    recorder = tracing.Recorder(True)
    workload = None
    try:
        workload = WORKLOADS[kind](seed, tmp, recorder, graph=graph)
        if kind == "served_hot":
            workload.truncate(SIBLING_ROUNDS)
        active[0] = recorder
        recorder.pass_id = 0
        with recorder.span("harness.setup"):
            workload.setup()
        passes, _ = traced_passes(workload, recorder, 1, SIBLING_PASSES)
        metrics = probes.PASS_LAYERS[kind](workload, recorder, passes)
        if workload.failed:
            raise RuntimeError("; ".join(workload.errors) or "failed checks")
        return metrics
    finally:
        if workload is not None:
            workload.teardown()


def measure(name: str, seed: int, *, smoke: bool = False) -> dict:
    harness.import_program()
    tmp = harness.make_tmp()
    recorder = tracing.Recorder(True)
    active = [recorder]
    undo = tracing.patch_executors(lambda: active[0])
    workload = None
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    stages: dict[str, float] = {}
    clock = _now()

    def stage(label: str) -> None:
        nonlocal clock
        stages[label] = _now() - clock
        clock = _now()

    try:
        workload = WORKLOADS[name](seed, tmp, recorder)
        recorder.pass_id = 0
        with recorder.span("harness.setup"):
            workload.setup()
        stage("setup")
        recorder.enabled = False
        workload.run_pass(1)
        index = 2
        traced, roots, plain = [], [], []
        for _ in range(1 if smoke else TRACED_PASSES):
            recorder.enabled = True
            one, root = traced_passes(workload, recorder, index, 1)
            traced += one
            roots += root
            recorder.enabled = False
            start = _now()
            workload.run_pass(index + 1)
            plain.append(_now() - start)
            index += 2
        # Pair by pair: each traced pass against the untraced one right
        # after it, so that host drift falls out of the ratio.
        values["obs.trace_overhead_ratio"] = statistics.median(
            one["wall"] / other for one, other in zip(traced, plain))
        stage("passes")
        calls = count_calls(lambda: workload.run_pass(index))
        values["api.py_calls_per_pass"] = calls
        index += 1
        stage("py_calls")

        # Layers that only show through a running pass: from this
        # workload's own traced passes, or by running the sibling
        # workload on this workload's graph.
        recorder.enabled = True
        graph = workload.graphs[0]
        for kind, extract in probes.PASS_LAYERS.items():
            try:
                if kind == name:
                    got = extract(workload, recorder, traced)
                else:
                    got = run_sibling(kind, graph, seed, tmp, active)
            except Exception as exc:  # a probe must never stop the run
                got = {}
                reasons[kind] = f"{type(exc).__name__}: {exc}"
            finally:
                active[0] = recorder
            values.update(got)
            stage(f"probe:{kind}")
        recorder.enabled = False

        direct, why = probes.run_all(probes.Context(graph, tmp, seed))
        values.update(direct)
        reasons.update(why)
        stage("probe:direct")

        table = tracing.layer_table(recorder.spans, roots)
        pass_wall = statistics.mean(p["wall"] for p in traced)
        harness.OUT.mkdir(parents=True, exist_ok=True)
        recorder.write(harness.OUT / f"trace_{name}.json")
        metrics = {}
        for metric, unit in METRICS.items():
            value = values.get(metric)
            metrics[metric] = {"value": value, "unit": unit}
            if value is None:
                layer = next(
                    (k for k in probes.PASS_LAYERS
                     if metric in PASS_LAYER_METRICS[k]), None)
                reasons.setdefault(
                    metric, reasons.get(layer, "not reported"))
        return harness.run_record(
            workload, setups=1, passes=len(traced), metrics=metrics,
            reasons={m: r for m, r in reasons.items() if m in METRICS},
            layers={"pass_s": pass_wall, "self_s": table},
            stages=stages,
        )
    finally:
        tracing.unpatch(undo)
        try:
            if workload is not None:
                workload.teardown()
        finally:
            children.reap_all()
            shutil.rmtree(tmp, ignore_errors=True)


def print_layers(run: dict) -> None:
    """The self-time table of the traced passes and the null reasons."""
    layers = run["layers"]
    total = sum(layers["self_s"].values())
    print(f"  traced pass {layers['pass_s']:.4f} s; span self times sum to "
          f"{total:.4f} s ({total / layers['pass_s']:.1%})")
    for span, seconds in sorted(
            layers["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {span:<34} {seconds:>10.4f} s "
              f"{seconds / layers['pass_s']:>7.1%}")
    for metric, reason in run["reasons"].items():
        print(f"  null: {metric}: {reason}")
    print("  traced run stages: " + ", ".join(
        f"{label} {seconds:.1f} s" for label, seconds in run["stages"].items()))


#: Every per-layer metric and its unit (the list in BENCHMARK.json).
METRICS = {
    "graph.build_s": "s", "graph.neighbors_us": "us",
    "graph.apply_batch_s": "s",
    "partition.build_s": "s", "partition.edge_cut": "count",
    "query.plan_s": "s", "query.canonical_key_s": "s", "query.parse_s": "s",
    "enumeration.backtrack_s": "s", "enumeration.embeddings_per_s": "1/s",
    "enumeration.candidates_scanned": "count",
    "enumeration.intersections": "count",
    "enumeration.recursive_calls": "count", "enumeration.seeded_s": "s",
    "core.sme_s": "s", "core.rmeef_s": "s", "core.sme_share": "ratio",
    "core.sme_ops": "count", "core.rmeef_ops": "count",
    "core.grouping_ops": "count", "core.trie_bytes": "bytes",
    "core.cache_bytes": "bytes",
    "cluster.makespan_s": "s", "cluster.comm_mb": "MB",
    "cluster.peak_mem_mb": "MiB",
    "engines.run_s.bigjoin": "s", "engines.run_s.twintwig": "s",
    "engines.run_s.rads": "s", "engines.result_json_s": "s",
    "runtime.batch_s": "s", "runtime.batches": "count",
    "runtime.tasks": "count", "runtime.delta_s": "s",
    "distributed.coord_cpu_s": "s", "distributed.worker_cpu_s": "s",
    "distributed.pack_s": "s", "distributed.unpack_s": "s",
    "distributed.payload_kb": "KiB", "distributed.vs_serial_ratio": "ratio",
    "distributed.bind_s": "s", "distributed.resubmits": "count",
    "distributed.lost_workers": "count",
    **{f"service.req_s.{cls}.{q}": "s"
       for cls in probes.SERVICE_CLASSES for q in ("p50", "p99")},
    "service.req_per_s": "1/s", "service.sched_hit_s": "s",
    "service.codec_s": "s", "service.cache_get_s": "s",
    "service.cache_hit_ratio": "ratio", "service.riders": "count",
    "service.server_cpu_s": "s",
    "store.page_s": "s", "store.lookup_s": "s", "store.build_s": "s",
    "store.bytes_per_embedding": "bytes",
    "streaming.ingest_s.small": "s", "streaming.ingest_s.large": "s",
    "streaming.delta_s": "s", "streaming.rebind_s": "s",
    "streaming.delta_embeddings": "count",
    "api.session_overhead_s": "s", "api.open_s": "s",
    "api.py_calls_per_pass": "count",
    "obs.trace_overhead_ratio": "ratio", "obs.trace_flag_ratio": "ratio",
    "cli.import_s": "s",
}

#: Which metrics each pass-level probe is responsible for.
PASS_LAYER_METRICS = {
    "sharded_batch": {m for m in METRICS if m.startswith(
        ("engines.run_s.", "runtime.batch", "runtime.tasks",
         "distributed.coord", "distributed.worker", "distributed.vs_",
         "distributed.bind", "distributed.resub", "distributed.lost"))},
    "served_hot": {m for m in METRICS if m.startswith(
        ("service.req_", "service.server_cpu", "service.cache_hit",
         "service.riders"))},
    "stream_delta": {m for m in METRICS if m.startswith(
        ("streaming.ingest_s", "streaming.delta_embeddings"))},
}
