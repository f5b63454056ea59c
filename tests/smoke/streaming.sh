#!/usr/bin/env bash
# Streaming smoke (register / ingest / poll / shutdown).
#
# End-to-end continuous query over a real socket: serve the toy
# graph, register a triangle watch, apply one additions +
# deletions batch, and assert the polled delta embeddings equal
# the diff of full re-enumerations on the two snapshots; then a
# CLI ingest advances the version once more and the server is
# shut down via the protocol.  The hard timeout keeps a wedged
# subscription or merge from eating the runner.
#
# Run from the repository root: bash tests/smoke/streaming.sh
set -e

# What this step writes, from an earlier run: start clean.
rm -rf /tmp/reingest.txt

timeout 180 bash -c '
set -e
PYTHONPATH=src python -m repro serve --graph /tmp/road.npz \
  --port 7466 --machines 3 --threads 2 &
SERVER=$!
PYTHONPATH=src python - <<EOF
from repro.service import wait_until_serving
wait_until_serving(("127.0.0.1", 7466), timeout=30)
EOF
PYTHONPATH=src python - <<EOF
import json
from repro.api.session import load_graph
from repro.query.dsl import parse_pattern
from repro.service import connect
from repro.streaming import full_embeddings
graph = load_graph("/tmp/road.npz")
present = sorted(graph.edges())
taken = set(present)
absent = []
for u in range(graph.num_vertices):
    for v in range(u + 1, min(u + 40, graph.num_vertices)):
        if (u, v) not in taken:
            absent.append((u, v))
        if len(absent) == 6:
            break
    if len(absent) == 6:
        break
adds, dels = absent, present[:4]
tri = parse_pattern("a-b, b-c, c-a")
with connect(("127.0.0.1", 7466), timeout=60) as client:
    assert client.hello["graph_version"] == 0, client.hello
    watch = client.register("a-b, b-c, c-a")["watch"]
    report = client.ingest(additions=adds, deletions=dels)
    assert report["version"] == 1, report
    [delta] = client.poll(watch)
    new = graph.apply_batch(additions=adds, deletions=dels)
    old_full = full_embeddings(graph, tri)
    new_full = full_embeddings(new, tri)
    assert set(delta.added) == new_full - old_full, delta
    assert set(delta.removed) == old_full - new_full, delta
    assert report["fingerprint"] == new.fingerprint(), report
    # The edge we just deleted can come straight back in.
    u, v = dels[0]
    edge_spec = "%d-%d" % (u, v)
    open("/tmp/reingest.txt", "w").write(edge_spec)
    assert client.unregister(watch) is True, watch
EOF
PYTHONPATH=src python -m repro ingest --port 7466 \
  --add "$(cat /tmp/reingest.txt)" --json \
  | python -c "import json,sys; r=json.load(sys.stdin); \
assert r[\"version\"] == 2, r"
PYTHONPATH=src python -m repro submit --port 7466 --shutdown
wait "$SERVER"
'
