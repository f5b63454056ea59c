#!/usr/bin/env bash
# Distributed smoke (repro worker / repro run --backend socket).
#
# End-to-end over real daemon processes: spawn two localhost
# shard workers, run a query across them through the socket
# backend (the coordinator ships the graph once per worker,
# cached by fingerprint), assert the counts and the config echo;
# run BigJoin x q4 across them and once on the serial backend
# and assert the two records agree (serial == socket on real
# processes); then stop both daemons via the protocol.  The hard
# timeout keeps a wedged handshake or batch from eating the runner.
#
# Run from the repository root: bash tests/smoke/distributed.sh
set -e

# What this step writes, from an earlier run: start clean.
rm -rf /tmp/w1.log /tmp/w2.log /tmp/bj_socket.json /tmp/bj_serial.json

timeout 180 bash -c '
set -e
PYTHONPATH=src python -m repro worker --port 7471 > /tmp/w1.log 2>&1 &
W1=$!
PYTHONPATH=src python -m repro worker --port 7472 > /tmp/w2.log 2>&1 &
W2=$!
PYTHONPATH=src python - <<EOF
from repro.service import wait_until_serving
wait_until_serving(("127.0.0.1", 7471), timeout=30)
wait_until_serving(("127.0.0.1", 7472), timeout=30)
EOF
PYTHONPATH=src python -m repro run --graph /tmp/road.npz \
  --query q2 --engine rads --machines 3 --backend socket \
  --shards 127.0.0.1:7471,127.0.0.1:7472 --json \
  | python -c "import json,sys; r=json.load(sys.stdin); \
assert not r[\"failed\"] and r[\"config\"][\"backend\"]==\"socket\" \
  and len(r[\"config\"][\"shards\"])==2, r"
PYTHONPATH=src python -m repro run --graph /tmp/road.npz \
  --query q4 --engine bigjoin --machines 3 --backend socket \
  --shards 127.0.0.1:7471,127.0.0.1:7472 --json > /tmp/bj_socket.json
PYTHONPATH=src python -m repro run --graph /tmp/road.npz \
  --query q4 --engine bigjoin --machines 3 --backend serial \
  --json > /tmp/bj_serial.json
python - <<EOF
import json
socket, serial = (json.load(open(f"/tmp/bj_{b}.json")) for b in ("socket", "serial"))
assert not serial["failed"] and serial["embedding_count"] > 0, serial
for key in ("embedding_count", "makespan", "counters"):
    assert socket[key] == serial[key], (key, socket[key], serial[key])
EOF
PYTHONPATH=src python - <<EOF
from repro.distributed import stop_worker
assert stop_worker(7471) and stop_worker(7472)
EOF
wait "$W1" "$W2"
'
