#!/usr/bin/env bash
# CLI smoke (repro.api entry points).
#
# Guards the redesigned entry points end to end: registry
# resolution (case-insensitive alias), session-backed enumerate,
# the --json record, the explain subcommand (query DSL +
# QueryExplanation JSON schema), and --workers: BigJoin x q4 on
# two forked local shard workers must match serial (--workers 0),
# and the CLI must have stopped its forked workers before the
# interpreter exits (multiprocessing's exit hook would otherwise
# hide a close() that stops nothing).
#
# Run from the repository root: bash tests/smoke/cli.sh
set -e

# What this step writes, from an earlier run: start clean.
rm -rf /tmp/road.npz /tmp/workers-2.json /tmp/workers-0.json

PYTHONPATH=src python -m repro generate \
  --dataset roadnet --scale 0.05 --out /tmp/road.npz
PYTHONPATH=src python -m repro enumerate --graph /tmp/road.npz \
  --query Q2 --engine rads --machines 3 --json \
  | python -c "import json,sys; r=json.load(sys.stdin); \
assert not r['failed'] and r['engine']=='RADS', r"
PYTHONPATH=src python -m repro explain --graph /tmp/road.npz \
  --query "a-b, b-c, c-a, a-d, b-e, d-e" --engine rads --json \
  | python -c "import json,sys; e=json.load(sys.stdin); \
assert e['engine']=='RADS' and e['rounds'] \
  and e['matching_order'] and e['symmetry_conditions'], e"
for workers in 2 0; do
  PYTHONPATH=src timeout 120 python -c "import multiprocessing, sys; \
from repro.cli import main; code = main(sys.argv[1:]); \
assert not multiprocessing.active_children(), 'a forked shard worker outlived its run'; \
sys.exit(code)" enumerate \
    --graph /tmp/road.npz --query q4 --engine bigjoin \
    --machines 4 --workers "$workers" --json \
    > "/tmp/workers-$workers.json"
done
python -c "import json; \
forked, serial = (json.load(open(f'/tmp/workers-{n}.json')) \
                  for n in (2, 0)); \
assert not forked['failed'] and not serial['failed'], (forked, serial); \
assert forked['config']['workers'] == 2, forked['config']; \
assert forked['embedding_count'] == serial['embedding_count'], \
  (forked['embedding_count'], serial['embedding_count'])"
