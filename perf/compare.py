#!/usr/bin/env python3
"""Apply the benchmark's bounds to two sets of runs.

    python perf/compare.py A.json B.json     # A = parent, B = change
    python perf/compare.py --aa NOISE.json   # two sets of the same code

Each file is what ``run.py --all --repeat N --out FILE`` wrote.  One row
per workload x end-to-end metric: both medians, both quartile ranges and a
verdict —

- ``regressed``: B's median is worse than A's by more than the bound;
- ``unresolved``: not regressed, but a side's run-to-run spread
  (interquartile range over median) is wider than the bound and the two
  sides' runs overlap, so "no change" cannot be claimed either;
- ``ok``: otherwise.

Exit status is non-zero on any ``regressed`` row or when B failed a larger
share of its operations than A.  ``--aa`` reads ``{"sets": [A, B]}`` and
additionally requires every bound to be at least twice the difference
between the two sets' medians.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_bounds(path: pathlib.Path = ROOT / "BENCHMARK.json") -> dict:
    """metric -> (bound, better) for the end-to-end metrics."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def cells(runs: list[dict]) -> dict:
    """(workload, metric) -> the values of every run, in order."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for metric, cell in run["metrics"].items():
            if cell["value"] is not None:
                out.setdefault((run["workload"], metric), []).append(
                    cell["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], bound: float,
            better: str = "lower") -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "regressed"
    spread = max((q3a - q1a) / abs(med_a), (q3b - q1b) / abs(med_b))
    apart = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread > bound and not apart:
        return "unresolved"
    return "ok"


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(a_runs: list[dict], b_runs: list[dict], bounds: dict,
            aa: bool = False) -> tuple[list[dict], bool]:
    """Rows plus whether the comparison passes."""
    a_cells, b_cells = cells(a_runs), cells(b_runs)
    rows = []
    passed = True
    for (workload, metric), a_values in sorted(a_cells.items()):
        if metric not in bounds or (workload, metric) not in b_cells:
            continue
        bound, better = bounds[metric]
        b_values = b_cells[(workload, metric)]
        q1a, med_a, q3a = quartiles(a_values)
        q1b, med_b, q3b = quartiles(b_values)
        row = {
            "workload": workload, "metric": metric, "bound": bound,
            "a": (q1a, med_a, q3a), "b": (q1b, med_b, q3b),
            "change": (med_b - med_a) / abs(med_a),
            "verdict": verdict(a_values, b_values, bound, better),
        }
        if aa and abs(row["change"]) * 2 > bound:
            row["verdict"] = "bound-too-tight"
        if row["verdict"] in ("regressed", "bound-too-tight"):
            passed = False
        rows.append(row)
    if failed_share(b_runs) > failed_share(a_runs):
        passed = False
    return rows, passed


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<14} {'metric':<15} {'A q1/med/q3':>28} "
          f"{'B q1/med/q3':>28} {'change':>8} {'bound':>6}  verdict")
    for row in rows:
        a = "/".join(f"{v:.4g}" for v in row["a"])
        b = "/".join(f"{v:.4g}" for v in row["b"])
        print(f"{row['workload']:<14} {row['metric']:<15} {a:>28} {b:>28} "
              f"{row['change']:>+8.1%} {row['bound']:>6.0%}  "
              f"{row['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--aa", action="store_true",
                        help="one file holding two sets of the same code")
    args = parser.parse_args(argv)
    if args.aa:
        if len(args.files) != 1:
            parser.error("--aa takes one file")
        with open(args.files[0], encoding="utf-8") as fh:
            a_runs, b_runs = (s["runs"] for s in json.load(fh)["sets"])
    else:
        if len(args.files) != 2:
            parser.error("give A.json and B.json")
        loaded = []
        for path in args.files:
            with open(path, encoding="utf-8") as fh:
                loaded.append(json.load(fh)["runs"])
        a_runs, b_runs = loaded
    rows, passed = compare(a_runs, b_runs, load_bounds(), aa=args.aa)
    print_rows(rows)
    print(f"failed-operation share: A {failed_share(a_runs):.4%}, "
          f"B {failed_share(b_runs):.4%}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
