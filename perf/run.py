#!/usr/bin/env python3
"""The benchmark's one command.

    python perf/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]
    python perf/run.py --all [--repeat N] [--out FILE]

One run generates the workload's inputs from the seed, sets the program up
cold three times, warms up, times passes for ``--seconds`` seconds, checks
every output, and prints every metric by name with its unit.  Times are
calibrated against a fixed tick timed beside each pass (calibration.py).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of a separate traced run).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import children  # noqa: E402  (harness modules; none imports the program)
from calibration import calibrated, calibrated_wall, tick  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUPS = 3          # cold set-ups per run; the median is reported
WARM_PASSES = 2     # untimed passes before the clock starts
MIN_PASSES = 8      # timed passes, however short --seconds is

_now = time.perf_counter


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import the program under test: {exc}")
    origin = pathlib.Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(
            f"'repro' resolved to {origin}, outside {ROOT / 'src'}; "
            f"the benchmark only measures its own checkout"
        )
    return repro


def total_cpu(workload) -> float:
    """CPU seconds so far of the harness plus the workload's children."""
    return time.process_time() + sum(
        children.cpu_seconds(child.pid) for child in workload.children()
    )


def total_peak_rss_mb(workload) -> float:
    return children.peak_rss_mb() + sum(
        children.peak_rss_mb(child.pid) for child in workload.children()
    )


def make_tmp() -> pathlib.Path:
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    return tmp


def measure(name: str, seed: int, seconds: float, *, smoke: bool = False,
            verify: bool = False) -> dict:
    """One end-to-end run of one workload, tracing off."""
    import_program()
    tmp = make_tmp()
    workload = None
    try:
        workload = WORKLOADS[name](seed, tmp, Recorder(False), verify=verify)
        tick()  # first call warms the tick itself
        setups, raw_setups = [], []
        for _ in range(1 if smoke else SETUPS):
            workload.teardown()
            before = tick()
            cpu0 = time.process_time()
            start = _now()
            workload.setup()
            elapsed = _now() - start
            # The children were born inside this set-up: all their CPU
            # seconds so far belong to it.
            cpu = total_cpu(workload) - cpu0
            raw_setups.append(elapsed)
            setups.append(calibrated_wall(elapsed, cpu, before, tick()))
        index = 1
        for _ in range(0 if smoke else WARM_PASSES):
            workload.run_pass(index)
            index += 1
        # Survivors of set-up and warm-up leave the collector's sight, so
        # that no full collection lands inside a timed pass.
        gc.collect()
        gc.freeze()
        walls, cpus, raw_walls = [], [], []
        began = _now()
        before = tick()
        while (
            len(walls) < 2 if smoke
            else len(walls) < MIN_PASSES or _now() - began < seconds
        ):
            cpu0 = total_cpu(workload)
            start = _now()
            workload.run_pass(index)
            wall = _now() - start
            cpu = total_cpu(workload) - cpu0
            after = tick()
            raw_walls.append(wall)
            walls.append(calibrated_wall(wall, cpu, before, after))
            cpus.append(calibrated(cpu, before, after))
            before = after
            index += 1
        rss = total_peak_rss_mb(workload)
        return run_record(
            workload, setups=len(setups), passes=len(walls),
            raw={
                "setup_s": statistics.median(raw_setups),
                "pass_s.p50": statistics.median(raw_walls),
            },
            metrics={
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "pass_s.p50": {"value": statistics.median(walls), "unit": "s"},
                "cpu_s_per_pass": {
                    "value": statistics.median(cpus), "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MiB"},
            },
        )
    finally:
        try:
            if workload is not None:
                workload.teardown()
        finally:
            children.reap_all()
            shutil.rmtree(tmp, ignore_errors=True)


def run_record(workload, *, setups: int, passes: int, metrics: dict,
               **extra) -> dict:
    """What one run reports, end-to-end or traced."""
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors,
        "samples": {"setups": setups, "passes": passes},
        "controls": {
            "nproc": os.cpu_count(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "children": len(workload.children()),
        },
        "metrics": metrics,
        **extra,
    }


def print_run(run: dict) -> None:
    samples = run["samples"]
    print(f"{run['workload']}  seed={run['seed']}  "
          f"operations={run['attempted']} failed={run['failed']}  "
          f"nproc={run['controls']['nproc']} "
          f"children={run['controls']['children']}")
    raw = run.get("raw", {})
    counts = {"setup_s": f"median of {samples['setups']} cold set-ups",
              "pass_s.p50": f"median of {samples['passes']} passes",
              "cpu_s_per_pass": f"median of {samples['passes']} passes",
              "peak_rss_mb": "high-water mark at run end"}
    for metric, cell in run["metrics"].items():
        note = counts.get(metric, "")
        if metric in raw:
            note += f", calibrated (raw wall {raw[metric]:.4f} s)"
        value = cell["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<36} {shown:>12} {cell['unit']:<6} {note}")
    for error in run["errors"]:
        print(f"  FAILED: {error}")


def last_line(run: dict) -> str:
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    })


def run_all(args) -> int:
    """Every workload, each in its own process; optional result file."""
    runs = []
    status = 0
    began = _now()
    for repeat in range(args.repeat):
        for name in WORKLOADS:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed + repeat),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            command += ["--smoke"] if args.smoke else []
            command += ["--verify"] if args.verify else []
            start = _now()
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            print(f"  ({_now() - start:.1f} s)")
            if done.returncode != 0:
                status = 1
                continue
            record = json.loads(lines[-1])
            record.update(workload=name, seed=args.seed + repeat)
            runs.append(record)
            if not record["correct"]:
                status = 1
    print(f"{len(runs)} runs in {_now() - began:.1f} s, "
          f"{sum(r['failed'] for r in runs)} failed operations")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs}, fh, indent=1)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1 set-up and 2 passes, all checks on")
    parser.add_argument("--verify", action="store_true",
                        help="recompute the goldens with the oracle engine")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: runs per workload (seed, seed+1, ..)")
    parser.add_argument("--out", help="with --all: write the runs as JSON")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give --workload NAME or --all")

    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order and string hashes are part of the program's
        # behaviour; pin them (children inherit the environment).
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.all:
        return run_all(args)
    if args.trace:
        import tracerun

        run = tracerun.measure(args.workload, args.seed, smoke=args.smoke)
    else:
        run = measure(args.workload, args.seed, args.seconds,
                      smoke=args.smoke, verify=args.verify)
    print_run(run)
    if args.trace:
        tracerun.print_layers(run)
    print(last_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
