#!/usr/bin/env bash
# Store smoke (collect=store / repro page / repro lookup).
#
# End-to-end persistence of an enumerated set: serve the toy
# graph with an embedding store attached, submit a store-mode
# query (the set is persisted as trie columns; only counts come
# back over the wire) plus an isomorphic rewrite that must key
# to the same stored set, read a page and a vertex lookup
# through the order-based indexes, then *restart* the server
# over the same directory and assert the page is answered
# byte-identically from disk with store "hit" — the store, not
# the process, owns the results.
#
# Run from the repository root: bash tests/smoke/store.sh
set -e

# What this step writes, from an earlier run: start clean.
rm -rf /tmp/emb-store /tmp/store-first.json /tmp/store-iso.json \
  /tmp/store-page.json /tmp/store-page2.json

timeout 180 bash -c '
set -e
PYTHONPATH=src python -m repro serve --graph /tmp/road.npz \
  --port 7468 --machines 3 --threads 2 \
  --store-dir /tmp/emb-store &
SERVER=$!
PYTHONPATH=src python - <<EOF
from repro.service import wait_until_serving
wait_until_serving(("127.0.0.1", 7468), timeout=30)
EOF
PYTHONPATH=src python -m repro submit --port 7468 \
  --query q1 --store --json > /tmp/store-first.json
PYTHONPATH=src python -m repro submit --port 7468 \
  --query "w-x, x-y, y-z, z-w" --store --json \
  > /tmp/store-iso.json
python - <<EOF
import json
first = json.load(open("/tmp/store-first.json"))
iso = json.load(open("/tmp/store-iso.json"))
assert not first["failed"] and first["store"] == "stored", first
assert iso["store"] == "hit", iso
assert iso["embedding_count"] == first["embedding_count"]
EOF
PYTHONPATH=src python -m repro page --port 7468 --query q1 \
  --limit 5 --offset 3 --json > /tmp/store-page.json
PYTHONPATH=src python -m repro lookup --port 7468 --query q1 \
  --vertex 0 --json \
  | python -c "import json,sys; f=json.load(sys.stdin); \
assert f[\"count\"] <= f[\"total\"] \
  and all(0 in e for e in f[\"embeddings\"]), f"
PYTHONPATH=src python -m repro submit --port 7468 --shutdown
wait "$SERVER"
# Restart over the same store directory: the page must come
# back byte-identical without re-enumerating anything.
PYTHONPATH=src python -m repro serve --graph /tmp/road.npz \
  --port 7468 --machines 3 --threads 2 \
  --store-dir /tmp/emb-store &
SERVER=$!
PYTHONPATH=src python - <<EOF
from repro.service import wait_until_serving
wait_until_serving(("127.0.0.1", 7468), timeout=30)
EOF
PYTHONPATH=src python -m repro page --port 7468 --query q1 \
  --limit 5 --offset 3 --json > /tmp/store-page2.json
cmp /tmp/store-page.json /tmp/store-page2.json
PYTHONPATH=src python -m repro submit --port 7468 \
  --query q1 --store --json \
  | python -c "import json,sys; r=json.load(sys.stdin); \
assert r[\"store\"] == \"hit\", r"
PYTHONPATH=src python -m repro submit --port 7468 --shutdown
wait "$SERVER"
'
