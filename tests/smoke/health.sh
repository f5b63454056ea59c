#!/usr/bin/env bash
# Health smoke (repro events / repro health).
#
# End-to-end failure visibility: serve the toy graph over the
# socket backend with one announced shard worker, SIGKILL the
# worker, and assert the episode is *visible* — the event
# journal records worker.lost carrying the blocked request's
# trace id, `repro health` exits nonzero while the roster is
# broken, and a replacement announce both completes the blocked
# query and returns health to ok (exit 0).
#
# Run from the repository root: bash tests/smoke/health.sh
set -e

# What this step writes, from an earlier run: start clean.
rm -rf /tmp/hw1.log /tmp/hw2.log /tmp/health-blocked.json /tmp/health-events.jsonl

timeout 300 bash -c '
set -e
PYTHONPATH=src python -m repro serve --graph /tmp/road.npz \
  --port 7481 --machines 3 --threads 2 --backend socket &
SERVER=$!
PYTHONPATH=src python -m repro worker --port 7482 \
  --announce 127.0.0.1:7481 > /tmp/hw1.log 2>&1 &
W1=$!
PYTHONPATH=src python - <<EOF
import time
from repro.service import connect, wait_until_serving
wait_until_serving(("127.0.0.1", 7481), timeout=30)
deadline = time.monotonic() + 30
while True:
    with connect(("127.0.0.1", 7481), timeout=10) as client:
        roster = [e["address"]
                  for e in client.metrics()["shards"]["registry"]]
    if "127.0.0.1:7482" in roster:
        break
    if time.monotonic() >= deadline:
        raise SystemExit(f"worker never announced: {roster}")
    time.sleep(0.2)
EOF
PYTHONPATH=src python -m repro health --port 7481
PYTHONPATH=src python -m repro submit --port 7481 \
  --query q1 --json > /dev/null  # connect the roster
kill -9 "$W1"
PYTHONPATH=src python -m repro submit --port 7481 \
  --query q2 --trace --json > /tmp/health-blocked.json &
BLOCKED=$!
until PYTHONPATH=src python -m repro events --port 7481 --json \
    | grep -q "worker.lost"; do sleep 0.5; done
if PYTHONPATH=src python -m repro health --port 7481; then
  echo "health should be degraded after the kill"; exit 1
fi
PYTHONPATH=src python -m repro health --port 7481 --json \
  | python -c "import json,sys; v=json.load(sys.stdin); \
assert v[\"status\"] == \"degraded\" \
  and \"worker_loss\" in v[\"firing\"], v"
PYTHONPATH=src python -m repro worker --port 7483 \
  --announce 127.0.0.1:7481 > /tmp/hw2.log 2>&1 &
wait "$BLOCKED"
PYTHONPATH=src python -m repro events --port 7481 \
  --component coordinator --json > /tmp/health-events.jsonl
python - <<EOF
import json
blocked = json.load(open("/tmp/health-blocked.json"))
assert not blocked["failed"], blocked
records = [json.loads(line)
           for line in open("/tmp/health-events.jsonl")]
lost = [r for r in records if r["kind"] == "worker.lost"]
assert lost and lost[0]["address"] == "127.0.0.1:7482", lost
assert lost[0]["trace_id"] == blocked["trace"]["trace_id"], lost
EOF
PYTHONPATH=src python -m repro health --port 7481
PYTHONPATH=src python - <<EOF
from repro.distributed import stop_worker
assert stop_worker(7483)
EOF
PYTHONPATH=src python -m repro submit --port 7481 --shutdown
wait "$SERVER"
'
