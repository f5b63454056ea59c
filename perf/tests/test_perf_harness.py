"""Self-tests of the benchmark harness (``python -m pytest perf/tests -q``)."""

import json
import pathlib
import subprocess
import sys
import time

import pytest

import compare
import probes
import tracing
import workloads
from tracing import Recorder

PERF = pathlib.Path(__file__).resolve().parent.parent


def build(name, seed, tmp_path):
    return workloads.WORKLOADS[name](seed, tmp_path, Recorder(False))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    first, again, other = (
        build(name, seed, tmp_path) for seed in (7, 7, 8))
    assert first.fingerprints() == again.fingerprints()
    assert first.script_digest() == again.script_digest()
    assert first.fingerprints() != other.fingerprints()
    if first.script_digest():
        assert first.script_digest() != other.script_digest()


def test_stream_pass_restores_the_graph(tmp_path):
    workload = build("stream_delta", 3, tmp_path)
    try:
        workload.setup()  # runs one full pass, checks included
        assert workload.failed == 0, workload.errors
        assert (workload.session.graph.fingerprint()
                == workload.graphs[0].fingerprint())
        assert workload.attempted == len(workload.script) + 1
    finally:
        workload.teardown()


def span(ident, parent, start, end, name="x"):
    return {"id": ident, "parent": parent, "start": start, "end": end,
            "name": name, "pass": 1}


def test_self_times_telescope_to_the_root():
    spans = [
        span(0, None, 0.0, 10.0, "root"),
        span(1, 0, 1.0, 4.0, "a"),
        span(2, 1, 2.0, 3.0, "a.child"),
        # two overlapping children, as two client threads make them
        span(3, 0, 5.0, 9.0, "b"),
        span(4, 0, 6.0, 10.0, "b"),
        span(5, 4, 7.0, 8.0, "b.child"),
    ]
    selfs = tracing.self_times(spans, 0)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 5.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    # b and b overlap: 8 s of spans cover 5 s of wall, scaled by 5/8.
    assert selfs[3] == pytest.approx(4.0 * 5 / 8)
    assert selfs[5] == pytest.approx(1.0 * 5 / 8)
    assert sum(selfs.values()) == pytest.approx(10.0)
    table = tracing.layer_table(spans, [0])
    assert sum(table.values()) == pytest.approx(10.0)


def test_recorder_off_records_nothing():
    recorder = Recorder(False)
    with recorder.span("x") as got:
        pass
    assert got is None and recorder.spans == []


def runs(workload, values, failed=0):
    return [
        {"workload": workload, "attempted": 100, "failed": failed,
         "metrics": {"pass_s.p50": {"value": v, "unit": "s"}}}
        for v in values
    ]


def test_compare_verdicts():
    bounds = {"pass_s.p50": (0.10, "lower")}
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    rows, passed = compare.compare(
        runs("w", steady), runs("w", [v * 1.03 for v in steady]), bounds)
    assert rows[0]["verdict"] == "ok" and passed
    rows, passed = compare.compare(
        runs("w", steady), runs("w", [v * 1.15 for v in steady]), bounds)
    assert rows[0]["verdict"] == "regressed" and not passed
    noisy = [0.8, 1.0, 1.25, 0.9, 1.1]
    rows, passed = compare.compare(runs("w", noisy), runs("w", noisy), bounds)
    assert rows[0]["verdict"] == "unresolved" and passed
    # Wide spread, yet every run of B beats every run of A: resolved.
    rows, _ = compare.compare(
        runs("w", noisy), runs("w", [v * 0.5 for v in noisy]), bounds)
    assert rows[0]["verdict"] == "ok"
    # More failed operations fail the comparison whatever the timings.
    _, passed = compare.compare(
        runs("w", steady), runs("w", steady, failed=1), bounds)
    assert not passed
    # --aa: a median difference above half the bound is a finding.
    rows, passed = compare.compare(
        runs("w", steady), runs("w", [v * 1.06 for v in steady]), bounds,
        aa=True)
    assert rows[0]["verdict"] == "bound-too-tight" and not passed


def test_broken_probe_yields_null(monkeypatch):
    def broken(ctx):
        raise AttributeError("module 'repro' has no attribute 'gone'")

    monkeypatch.setattr(
        probes, "_PROBES", [(("x.one", "x.two"), broken),
                            (("y.ok", "y.missing"), lambda ctx: {"y.ok": 1.5})])
    values, reasons = probes.run_all(None)
    assert values == {"x.one": None, "x.two": None,
                      "y.ok": 1.5, "y.missing": None}
    assert "no attribute 'gone'" in reasons["x.one"]
    assert "y.ok" not in reasons and "y.missing" in reasons


def test_benchmark_json_names_what_the_harness_reports():
    import tracerun

    with open(PERF.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(tracerun.METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "pass_s.p50", "cpu_s_per_pass", "peak_rss_mb"]
    for metric in spec["per_layer"]:
        assert metric["unit"] == tracerun.METRICS[metric["name"]]


def test_smoke_run_of_every_workload():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--all", "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout
    assert "0 failed operations" in done.stdout
    assert elapsed < 25, f"smoke run took {elapsed:.1f} s"
