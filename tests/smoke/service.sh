#!/usr/bin/env bash
# Service smoke (repro serve / repro submit).
#
# End-to-end over a real socket: serve a toy graph with a disk
# cache tier and an announced shard worker, submit a query and an
# isomorphic duplicate (canonical-pattern cache hit), read the
# metrics op (announced roster + disk-tier counters), shut the
# server down via the protocol, then *restart* it over the same
# cache directory and assert the original query is served as a
# hit from the persisted tier.
#
# Run from the repository root: bash tests/smoke/service.sh
set -e

# What this step writes, from an earlier run: start clean.
rm -rf /tmp/result-cache /tmp/requests.jsonl /tmp/w-announce.log \
  /tmp/first.json /tmp/second.json /tmp/restarted.json

PYTHONPATH=src python -m repro serve --graph /tmp/road.npz \
  --port 7463 --machines 3 --threads 4 \
  --cache-dir /tmp/result-cache --log /tmp/requests.jsonl &
SERVER_PID=$!
PYTHONPATH=src python - <<'EOF'
from repro.service import wait_until_serving
wait_until_serving(("127.0.0.1", 7463), timeout=30)
EOF
PYTHONPATH=src python -m repro worker --port 7475 \
  --announce 127.0.0.1:7463 > /tmp/w-announce.log 2>&1 &
ANNOUNCED_PID=$!
PYTHONPATH=src python -m repro submit --port 7463 \
  --query "a-b, b-c, c-a" --json > /tmp/first.json
PYTHONPATH=src python -m repro submit --port 7463 \
  --query "x-y, y-z, z-x" --json > /tmp/second.json
python - <<'EOF'
import json
first = json.load(open("/tmp/first.json"))
second = json.load(open("/tmp/second.json"))
assert not first["failed"] and first["cache"] == "miss", first
assert second["cache"] == "hit", second
assert second["embedding_count"] == first["embedding_count"]
EOF
PYTHONPATH=src python - <<'EOF'
import time
from repro.service import connect
deadline = time.monotonic() + 30
while True:
    with connect(("127.0.0.1", 7463), timeout=10) as client:
        metrics = client.metrics()
    roster = [e["address"] for e in metrics["shards"]["registry"]]
    if "127.0.0.1:7475" in roster:
        break
    if time.monotonic() >= deadline:
        raise SystemExit(f"worker never announced: {roster}")
    time.sleep(0.2)
assert metrics["scheduler"]["submitted"] >= 2, metrics
assert metrics["cache"]["disk"]["writes"] >= 1, metrics
EOF
PYTHONPATH=src python -m repro submit --port 7463 --metrics \
  | python -c "import json,sys; m=json.load(sys.stdin); \
assert m['protocol_version'] >= 1 and 'tenants' in m, m"
PYTHONPATH=src python -m repro submit --port 7463 --shutdown
wait "$SERVER_PID"
python -c "import sys; \
lines = open('/tmp/requests.jsonl').read().splitlines(); \
assert len(lines) == 2, lines"
# Restart over the same cache directory: the persisted tier
# must serve the very first query as a hit, byte-identical.
PYTHONPATH=src python -m repro serve --graph /tmp/road.npz \
  --port 7463 --machines 3 --threads 4 \
  --cache-dir /tmp/result-cache &
SERVER_PID=$!
PYTHONPATH=src python - <<'EOF'
from repro.service import wait_until_serving
wait_until_serving(("127.0.0.1", 7463), timeout=30)
EOF
PYTHONPATH=src python -m repro submit --port 7463 \
  --query "a-b, b-c, c-a" --json > /tmp/restarted.json
python - <<'EOF'
import json
first = json.load(open("/tmp/first.json"))
restarted = json.load(open("/tmp/restarted.json"))
assert restarted["cache"] == "hit", restarted
assert restarted["embedding_count"] == first["embedding_count"]
assert restarted["makespan"] == first["makespan"]
EOF
PYTHONPATH=src python -m repro submit --port 7463 --shutdown
wait "$SERVER_PID"
PYTHONPATH=src python - <<'EOF'
from repro.distributed import stop_worker
assert stop_worker(7475)
EOF
wait "$ANNOUNCED_PID"
