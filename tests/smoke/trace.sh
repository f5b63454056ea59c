#!/usr/bin/env bash
# Trace smoke (repro submit --trace / repro metrics).
#
# End-to-end observability over a real socket: serve the toy
# graph, submit a traced query and assert the returned span
# tree names the engine's rounds (the tree rides the --json
# record under "trace"), then read the live metrics pipeline —
# one --watch poll of the JSON snapshot and the Prometheus-style
# text exposition with latency-histogram sample lines.
#
# Run from the repository root: bash tests/smoke/trace.sh
set -e

# What this step writes, from an earlier run: start clean.
rm -rf /tmp/traced.json

timeout 180 bash -c '
set -e
PYTHONPATH=src python -m repro serve --graph /tmp/road.npz \
  --port 7469 --machines 3 --threads 2 &
SERVER=$!
PYTHONPATH=src python - <<EOF
from repro.service import wait_until_serving
wait_until_serving(("127.0.0.1", 7469), timeout=30)
EOF
PYTHONPATH=src python -m repro submit --port 7469 \
  --query q2 --engine rads --trace --json > /tmp/traced.json
python - <<EOF
import json
traced = json.load(open("/tmp/traced.json"))
assert not traced["failed"], traced
tree = traced["trace"]
def names(node):
    yield node["name"]
    for child in node["children"]:
        yield from names(child)
seen = list(names(tree))
assert tree["name"] == "service.execute", seen
assert any(n.startswith("round.") for n in seen), seen
EOF
PYTHONPATH=src python -m repro metrics --port 7469 \
  --watch --count 1 \
  | python -c "import json,sys; m=json.load(sys.stdin); \
assert m[\"histograms\"][\"latency\"][\"count\"] >= 1 \
  and m[\"histograms\"][\"latency\"][\"p50\"] > 0, m"
PYTHONPATH=src python -m repro metrics --port 7469 \
  --format text | grep -q "^repro_histograms_latency_seconds_bucket"
PYTHONPATH=src python -m repro submit --port 7469 --shutdown
wait "$SERVER"
'
