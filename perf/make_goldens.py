#!/usr/bin/env python3
"""Recompute ``goldens.json``: embedding counts on the frozen structures.

Run after changing a size in ``workloads.py``.  Counts come from the
single-machine ``oracle`` engine and hold under every ``--seed``, because
a seed only relabels the vertices.
"""

from __future__ import annotations

import json
import sys

import run

run.import_program()
import workloads as w  # noqa: E402  (needs the program importable)


def main() -> int:
    table = {
        "enum_sparse": {q: None for q in w.SPARSE_QUERIES},
        "enum_skewed": {q: None for q in w.SKEWED_QUERIES},
        "sharded_batch": {f"{e}:{q}": None for e, q in w.SHARDED_SCRIPT},
        "served_hot": {q: None for q in w.SERVED_QUERIES},
        "stream_delta": {},
    }
    for name, cells in table.items():
        for key in cells:
            cells[key] = w.oracle_count(w.base_graph(name), key.split(":")[-1])
            print(name, key, cells[key])
    with open(w.HERE / "goldens.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
