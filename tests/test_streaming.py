"""Streaming graph ingest + incremental continuous queries (PR 7).

Covers the whole streaming subsystem end to end:

- the versioned mutable graph layer (``Graph.apply_batch`` delta-merge,
  read-only CSR arrays, fingerprint/version keying);
- the incremental matcher — per-batch delta embeddings asserted equal to
  the diff of full re-enumerations for several patterns across
  additions-only, deletions-only and mixed batches, on the serial path
  and through a socket-backed server (the PR's parity acceptance);
- the continuous-query surface: manager, scheduler jobs + tenant quotas,
  the register/unregister/ingest/poll protocol ops, push mode and
  ``subscribe``, the ``Session.watch``/``Session.ingest`` API, and the
  ``repro ingest`` / ``repro subscribe`` CLI;
- a registered continuous query firing correct deltas across a shard
  worker crash + replacement announce (the elastic acceptance path).
"""

from __future__ import annotations

import contextlib
import io
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api import RunConfig
from repro.api.results import append_record_jsonl, read_records_jsonl
from repro.cli import main as cli_main
from repro.distributed import ShardRegistry, ShardWorker
from repro.enumeration.backtracking import (
    EnumerationStats,
    MatchingTables,
    compute_matching_order,
)
from repro.graph import erdos_renyi
from repro.graph.graph import Graph, canonical_edge_array
from repro.graph.labeled import LabeledGraph
from repro.query.dsl import parse_pattern
from repro.service import (
    QueryScheduler,
    QueryServer,
    ServiceError,
    TenantQuota,
    connect,
)
from repro.streaming import (
    ContinuousQueryManager,
    DeltaParityError,
    DeltaRecord,
    GraphVersion,
    IncrementalMatcher,
    VersionedGraph,
    full_embeddings,
)
from repro.streaming import continuous

# The parity patterns the acceptance criterion sweeps (>= 3).
PATTERNS = {
    "triangle": "a-b, b-c, c-a",
    "square": "a-b, b-c, c-d, d-a",
    "path4": "a-b, b-c, c-d",
}


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(40, 0.12, seed=17)


def _present(graph):
    return sorted(graph.edges())

def _absent(graph):
    present = set(graph.edges())
    n = graph.num_vertices
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in present
    ]


def _batches(graph):
    """Three batch shapes per graph: add-only, delete-only, mixed."""
    absent, present = _absent(graph), _present(graph)
    return {
        "additions": (absent[:6], []),
        "deletions": ([], present[:5]),
        "mixed": (absent[6:10], present[5:9]),
    }


def _poll_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


# ----------------------------------------------------------------------
# Satellite 1: frozen CSR arrays (fingerprint cannot go stale)
# ----------------------------------------------------------------------
class TestFrozenGraph:
    def test_csr_arrays_are_read_only(self, graph):
        with pytest.raises(ValueError):
            graph.indptr[0] = 99
        with pytest.raises(ValueError):
            graph.indices[0] = 99

    def test_fingerprint_stays_valid_because_arrays_cannot_mutate(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        before = g.fingerprint()
        with pytest.raises(ValueError):
            g.indices[:] = 0
        assert g.fingerprint() == before

    def test_frozen_view_shares_memory_with_caller_array(self):
        # _frozen must be a view, not a copy: a loaded graph and the
        # snapshot of an empty batch share their arrays, not copy them.
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        g = Graph(indptr, indices)
        assert np.shares_memory(g.indptr, indptr)
        assert np.shares_memory(g.indices, indices)


# ----------------------------------------------------------------------
# Graph.apply_batch: delta-merge snapshot builds
# ----------------------------------------------------------------------
def _assert_merge_equals_rebuild(n, edges, adds, dels):
    """``apply_batch`` equals ``from_edges`` of the edited edge set."""
    graph = Graph.from_edges(n, edges)
    indptr, indices = graph.indptr.copy(), graph.indices.copy()
    fingerprint = graph.fingerprint()
    merged = graph.apply_batch(additions=adds, deletions=dels)
    canon = {tuple(sorted(e)) for e in edges}
    edited = (canon | {tuple(sorted(e)) for e in adds}) - {
        tuple(sorted(e)) for e in dels
    }
    truth = Graph.from_edges(n, sorted(edited))
    assert merged.indptr.dtype == merged.indices.dtype == np.int64
    assert np.array_equal(merged.indptr, truth.indptr)
    assert np.array_equal(merged.indices, truth.indices)
    assert merged.fingerprint() == truth.fingerprint()
    # The source snapshot is untouched.
    assert np.array_equal(graph.indptr, indptr)
    assert np.array_equal(graph.indices, indices)
    assert Graph(graph.indptr, graph.indices).fingerprint() == fingerprint


class TestApplyBatch:
    @pytest.mark.parametrize("kind", ["additions", "deletions", "mixed"])
    def test_matches_from_edges_ground_truth(self, graph, kind):
        adds, dels = _batches(graph)[kind]
        merged = graph.apply_batch(additions=adds, deletions=dels)
        edges = (set(graph.edges()) | set(adds)) - set(dels)
        truth = Graph.from_edges(graph.num_vertices, sorted(edges))
        assert merged == truth
        assert merged.fingerprint() == truth.fingerprint()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_merge_equals_rebuild_of_edited_edge_set(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        flags = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
        present, touched, swapped = (data.draw(flags) for _ in range(3))
        edges = [p for p, on in zip(pairs, present) if on]
        # Batch edges are listed in either orientation.
        batch = [
            (p[::-1] if swap else p, on)
            for p, on, hit, swap in zip(pairs, present, touched, swapped)
            if hit
        ]
        adds = [p for p, on in batch if not on]
        dels = [p for p, on in batch if on]
        _assert_merge_equals_rebuild(n, edges, adds, dels)

    @pytest.mark.parametrize(
        "n, edges, adds, dels",
        [
            (5, [], [(0, 4), (1, 2)], []),  # a graph with no edges
            (6, [(0, 1), (1, 2)], [(3, 4), (5, 4)], [(0, 1)]),  # isolated gain
            (6, [(0, 1), (0, 2), (0, 5), (1, 2)], [(3, 4)],
             [(0, 1), (2, 0), (0, 5)]),  # every edge of vertex 0 goes
            (6, [(0, 5), (4, 5)], [(3, 5), (2, 5)], [(4, 5)]),  # largest id
            (4, [(0, 1), (2, 3)], [], [(0, 1), (2, 3)]),  # to no edges
        ],
        ids=["empty", "isolated", "vertex-emptied", "largest-id", "all-gone"],
    )
    def test_merge_equals_rebuild_edge_cases(self, n, edges, adds, dels):
        _assert_merge_equals_rebuild(n, edges, adds, dels)

    def test_original_snapshot_is_untouched(self, graph):
        before = graph.fingerprint()
        edges_before = list(graph.edges())
        graph.apply_batch(additions=_absent(graph)[:3])
        assert graph.fingerprint() == before
        assert list(graph.edges()) == edges_before

    def test_empty_batch_is_a_fresh_equal_snapshot(self, graph):
        snapshot = graph.apply_batch()
        assert snapshot == graph
        assert snapshot is not graph
        assert snapshot.fingerprint() == graph.fingerprint()

    def test_validation_errors_name_the_offender(self, graph):
        present, absent = _present(graph), _absent(graph)
        u, v = present[0]
        with pytest.raises(ValueError, match=rf"additions.*\({u}, {v}\)"):
            graph.apply_batch(additions=[(u, v)])
        a, b = absent[0]
        with pytest.raises(ValueError, match=rf"deletions.*\({a}, {b}\)"):
            graph.apply_batch(deletions=[(a, b)])
        with pytest.raises(ValueError, match=rf"overlap.*\({a}, {b}\)"):
            graph.apply_batch(additions=[(a, b)], deletions=[(a, b)])
        # Among several offenders the first in canonical order is named.
        (u2, v2), (a2, b2) = present[7], absent[7]
        with pytest.raises(ValueError, match=rf"additions.*\({u}, {v}\)"):
            graph.apply_batch(additions=[(v2, u2), absent[3], (u, v)])
        with pytest.raises(ValueError, match=rf"deletions.*\({a}, {b}\)"):
            graph.apply_batch(deletions=[(b2, a2), present[3], (a, b)])
        with pytest.raises(ValueError, match="self loops"):
            graph.apply_batch(additions=[(3, 3)])
        with pytest.raises(ValueError, match="out of range"):
            graph.apply_batch(additions=[(0, graph.num_vertices)])

    def test_canonical_edge_array_dedups_and_orients(self):
        edges = canonical_edge_array([(5, 2), (2, 5), (1, 3)], 8)
        assert edges.tolist() == [[1, 3], [2, 5]]


# ----------------------------------------------------------------------
# Enumeration machinery: prefix orders + seeded runs
# ----------------------------------------------------------------------
class TestPrefixAndSeeded:
    def test_prefix_leads_the_matching_order(self):
        square = parse_pattern(PATTERNS["square"])
        order = compute_matching_order(square, prefix=[2, 3])
        assert order[:2] == [2, 3]
        assert sorted(order) == list(range(4))

    def test_prefix_validation(self):
        square = parse_pattern(PATTERNS["square"])
        with pytest.raises(ValueError, match="not both"):
            compute_matching_order(square, start=0, prefix=[1])
        with pytest.raises(ValueError, match="repeats"):
            compute_matching_order(square, prefix=[1, 1])
        with pytest.raises(ValueError, match="not in pattern"):
            compute_matching_order(square, prefix=[9])
        # 0 and 2 are opposite corners of the square: not adjacent to
        # any earlier prefix vertex.
        with pytest.raises(ValueError):
            compute_matching_order(square, prefix=[0, 2])

    def test_run_seeded_agrees_with_filtered_full_run(self, graph):
        from repro.query.symmetry import symmetry_breaking_constraints

        tri = parse_pattern(PATTERNS["triangle"])
        order = compute_matching_order(tri, prefix=[0, 1])
        full = full_embeddings(graph, tri)
        a, b = sorted(_present(graph))[10]
        constraints = list(symmetry_breaking_constraints(tri))
        _, rows = _seeded(tri, graph.neighbors, order, [[a, b]], constraints=constraints)
        expected = {f for f in full if f[0] == a and f[1] == b}
        assert set(map(tuple, rows.tolist())) == expected

    def test_run_seeded_invalid_seed_is_empty_not_an_error(self, graph):
        tri = parse_pattern(PATTERNS["triangle"])
        order = compute_matching_order(tri, prefix=[0, 1])
        # Non-injective seed matches nothing.
        tags, rows = _seeded(tri, graph.neighbors, order, [[4, 4]])
        assert tags.shape == (0,) and rows.shape == (0, 3)

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("width", [1, 2, None])
    def test_run_seeded_block_is_concatenated_run_seeded(
        self, graph, name, width
    ):
        """One block over many seeds == one block per seed, in rows, order
        and counters — invalid seeds (repeated vertex, missing data
        edge, bound-violating, under-degree) included."""
        from repro.query.symmetry import symmetry_breaking_constraints

        pattern = parse_pattern(PATTERNS[name])
        u, v = next(iter(pattern.edges()))
        order = compute_matching_order(pattern, prefix=[u, v])
        full = sorted(full_embeddings(graph, pattern))
        if width is None:  # complete seeds: real matches, and reversals
            seeds = np.array([[f[w] for w in order] for f in full[:20]])
            seeds = np.concatenate([seeds, seeds[:, ::-1]])
        else:  # every tuple over matched vertices plus two of low degree
            sample = sorted(
                {x for f in full[:2] for x in f}
                | set(np.argsort(graph.degrees(), kind="stable")[:2].tolist())
            )
            seeds = np.stack(
                np.meshgrid(*[sample] * width, indexing="ij"), axis=-1
            ).reshape(-1, width)
        constraints = list(symmetry_breaking_constraints(pattern))
        one_by_one, together = EnumerationStats(), EnumerationStats()
        expected = [
            (i, emb)
            for i, row in enumerate(seeds)
            for emb in map(tuple, _seeded(
                pattern, graph, order, row[None], one_by_one, constraints)[1].tolist())
        ]
        seed_index, embeddings = _seeded(pattern, graph, order, seeds, together, constraints)
        got = list(zip(seed_index.tolist(), map(tuple, embeddings.tolist())))
        assert got == expected
        assert together == one_by_one
        assert embeddings.shape[1] == pattern.num_vertices
        assert 0 < len(set(seed_index.tolist())) < len(seeds)

    def test_attribution_keys_cannot_alias_across_listed_edges(self):
        """A listed edge with a high endpoint must not be mistaken for an
        edge of a match among low ids (edge keys are ``lo * stride + hi``:
        with stride 6, (0, 11) and (1, 5) would collide)."""
        g = Graph.from_edges(12, [(1, 2), (1, 5), (2, 5), (0, 11)])
        matcher = IncrementalMatcher(parse_pattern(PATTERNS["triangle"]))
        assert matcher.matches_using(g, [(1, 5)]) == matcher.matches_using(
            g, [(0, 11), (1, 5)]
        )
        assert len(matcher.matches_using(g, [(0, 11), (1, 5)])) == 1

    def test_a_seed_block_equals_its_seeds_one_by_one(self):
        """Every vertex pair as a seed, most of them not edges: only the
        triangle's directed edges are admitted, and the block run equals
        the concatenation of the one-seed runs."""
        g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (2, 5), (5, 6)])
        tri = parse_pattern(PATTERNS["triangle"])
        matcher = IncrementalMatcher(tri)
        assert matcher.matches_using(g, [(0, 5), (1, 2)]) == [(0, 1, 2)]

        order = compute_matching_order(tri, prefix=[0, 1])
        pairs = np.stack(np.meshgrid(range(7), range(7), indexing="ij"), -1)
        seeds = pairs.reshape(-1, 2)
        expected = [
            (i, emb)
            for i, row in enumerate(seeds)
            for emb in map(tuple, _seeded(tri, g, order, row[None])[1].tolist())
        ]
        assert len(expected) == 6  # the triangle from each directed edge
        seed_index, embeddings = _seeded(tri, g, order, seeds)
        rows = map(tuple, embeddings.tolist())
        assert list(zip(seed_index.tolist(), rows)) == expected
        # A seed that is no vertex fails loudly, in either column.
        for seed in ([[7, 0]], [[0, 7]]):
            with pytest.raises(ValueError, match="vertex id 7 outside"):
                _seeded(tri, g, order, seed)
        seed_index, embeddings = _seeded(tri, g, order, np.empty((0, 2)))
        assert seed_index.shape == (0,) and embeddings.shape == (0, 3)


def _seeded(pattern, graph, order, seeds, stats=None, constraints=()):
    """``(seed index, embeddings)``: the kernel's block for one matching order
    whose first ``k`` vertices are seeded by the rows of an ``(m, k)`` array."""
    tables = MatchingTables(pattern, list(constraints), [order])
    seeds = np.asarray(seeds, dtype=np.int64)
    return tables.block(graph, stats or EnumerationStats(), seeds, None)


# ----------------------------------------------------------------------
# Acceptance: incremental delta == diff of full re-enumerations
# ----------------------------------------------------------------------
class TestDeltaParitySerial:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("kind", ["additions", "deletions", "mixed"])
    def test_delta_equals_full_recount_diff(self, graph, name, kind):
        pattern = parse_pattern(PATTERNS[name])
        adds, dels = _batches(graph)[kind]
        new = graph.apply_batch(additions=adds, deletions=dels)
        matcher = IncrementalMatcher(pattern)
        added, removed = matcher.delta(graph, new, adds, dels)
        old_full, new_full = (
            full_embeddings(graph, pattern),
            full_embeddings(new, pattern),
        )
        assert set(added) == new_full - old_full
        assert set(removed) == old_full - new_full
        assert len(added) == len(set(added))
        assert len(removed) == len(set(removed))
        # verify_parity is the same assertion, packaged for CI.
        matcher.verify_parity(graph, new, added, removed)

    def test_verify_parity_rejects_wrong_deltas(self, graph):
        pattern = parse_pattern(PATTERNS["triangle"])
        adds = _absent(graph)[:4]
        new = graph.apply_batch(additions=adds)
        matcher = IncrementalMatcher(pattern)
        added, removed = matcher.delta(graph, new, adds, [])
        with pytest.raises(DeltaParityError):
            matcher.verify_parity(graph, new, added[:-1], removed)

    def test_randomized_batches_hold_parity(self):
        rng = np.random.default_rng(7)
        g = erdos_renyi(30, 0.15, seed=3)
        matchers = {
            name: IncrementalMatcher(parse_pattern(dsl))
            for name, dsl in PATTERNS.items()
        }
        for _ in range(8):
            absent, present = _absent(g), _present(g)
            adds = [
                absent[i]
                for i in rng.choice(len(absent), size=5, replace=False)
            ]
            dels = [
                present[i]
                for i in rng.choice(len(present), size=4, replace=False)
            ]
            new = g.apply_batch(additions=adds, deletions=dels)
            for name, matcher in matchers.items():
                added, removed = matcher.delta(g, new, adds, dels)
                matcher.verify_parity(g, new, added, removed)
            g = new


# ----------------------------------------------------------------------
# Versioned graph handles
# ----------------------------------------------------------------------
class TestVersionedGraph:
    def test_linear_version_history(self, graph):
        versions = VersionedGraph(graph)
        v0 = versions.current
        assert v0.version == 0
        assert v0.fingerprint == graph.fingerprint()
        old, new = versions.apply_batch(_absent(graph)[:2], ())
        assert old is v0
        assert new.version == 1
        assert versions.current is new
        assert new.fingerprint != v0.fingerprint
        # In-flight readers holding v0 still see the old snapshot.
        assert v0.graph.fingerprint() == graph.fingerprint()

    def test_rejected_batch_leaves_version_unchanged(self, graph):
        versions = VersionedGraph(graph)
        with pytest.raises(ValueError):
            versions.apply_batch([(0, 0)], ())
        assert versions.current.version == 0

    def test_describe_is_json_safe(self, graph):
        handle = GraphVersion.initial(graph)
        described = handle.describe()
        assert described["version"] == 0
        assert described["num_edges"] == graph.num_edges
        json.dumps(described)


# ----------------------------------------------------------------------
# ContinuousQueryManager: watches, fan-out, quotas
# ----------------------------------------------------------------------
class TestContinuousQueryManager:
    def test_register_ingest_poll_unregister(self, graph):
        manager = ContinuousQueryManager(graph, verify=True)
        watch = manager.register("a-b, b-c, c-a")
        report = manager.ingest(_absent(graph)[:5], ())
        assert report["version"] == 1
        assert report["watches"][watch.id]["added"] >= 0
        [record] = watch.poll()
        assert isinstance(record, DeltaRecord)
        assert record.version == 1
        assert record.graph_fingerprint == manager.current.fingerprint
        assert watch.poll() == []
        assert manager.unregister(watch.id) is True
        assert manager.unregister(watch.id) is False

    def test_collect_false_carries_counts_only(self, graph):
        manager = ContinuousQueryManager(graph)
        watch = manager.register("a-b, b-c, c-a", collect=False)
        manager.ingest(_absent(graph)[:5], ())
        [record] = watch.poll()
        assert record.added is None and record.removed is None
        assert record.added_count >= 0

    def test_labeled_queries_are_rejected(self, graph):
        manager = ContinuousQueryManager(graph)
        with pytest.raises((ValueError, KeyError)):
            manager.register(42)  # type: ignore[arg-type]

    def test_scheduler_jobs_and_quota_drop(self, graph):
        with QueryScheduler(
            graph,
            RunConfig(machines=3),
            threads=2,
            tenants={"starved": TenantQuota(rate=1.0, burst=1)},
        ) as scheduler:
            manager = ContinuousQueryManager(
                graph,
                scheduler=scheduler,
                on_rebind=lambda old, new: scheduler.rebind_graph(new.graph),
            )
            free = manager.register("a-b, b-c, c-a")
            starved = manager.register("a-b, b-c, c-a", tenant="starved")
            absent = _absent(graph)
            first = manager.ingest(absent[:2], ())
            assert "added" in first["watches"][free.id]
            assert "added" in first["watches"][starved.id]
            # The second batch exhausts the starved tenant's burst:
            # its delta is dropped, the free watch still fires.
            second = manager.ingest(absent[2:4], ())
            assert "added" in second["watches"][free.id]
            assert second["watches"][starved.id]["dropped"] is True
            assert starved.dropped == 1
            assert len(free.poll()) == 2
            assert len(starved.poll()) == 1
            stats = manager.stats()
            assert stats["batches"] == 2
            assert stats["quota_dropped"] == 1
            # The scheduler now serves the ingested graph version.
            assert scheduler.graph.fingerprint() == \
                manager.current.fingerprint

    def test_pending_queue_overflow_drops_oldest(self, graph, monkeypatch):
        monkeypatch.setattr(continuous, "PENDING_LIMIT", 2)
        manager = ContinuousQueryManager(graph)
        watch = manager.register("a-b, b-c, c-a")
        absent = _absent(graph)
        for i in range(4):
            manager.ingest([absent[i]], ())
        records = watch.poll()
        assert len(records) == 2
        assert [r.version for r in records] == [3, 4]
        assert watch.dropped == 2


# ----------------------------------------------------------------------
# Service surface over a real socket
# ----------------------------------------------------------------------
@pytest.fixture()
def server(graph, tmp_path):
    server = QueryServer(
        graph,
        RunConfig(machines=3),
        threads=2,
        verify_deltas=True,
        log_path=str(tmp_path / "requests.jsonl"),
    )
    with server.start():
        yield server


class TestServiceStreaming:
    def test_register_ingest_poll_round_trip(self, graph, server):
        batches = _batches(graph)
        with connect(server.address, timeout=60) as client:
            assert client.hello["graph_version"] == 0
            info = client.register("a-b, b-c, c-a")
            watch = info["watch"]
            snapshots = [graph]
            for kind in ("additions", "deletions", "mixed"):
                adds, dels = batches[kind]
                report = client.ingest(
                    additions=adds or None, deletions=dels or None
                )
                snapshots.append(
                    snapshots[-1].apply_batch(additions=adds, deletions=dels)
                )
                assert report["version"] == len(snapshots) - 1
                assert report["fingerprint"] == \
                    snapshots[-1].fingerprint()
            deltas = client.poll(watch)
            assert [d.version for d in deltas] == [1, 2, 3]
            tri = parse_pattern(PATTERNS["triangle"])
            for delta, old, new in zip(
                deltas, snapshots, snapshots[1:]
            ):
                old_full, new_full = (
                    full_embeddings(old, tri),
                    full_embeddings(new, tri),
                )
                assert set(delta.added) == new_full - old_full
                assert set(delta.removed) == old_full - new_full
            # Post-ingest submits run against the latest snapshot.
            result = client.submit("triangle", engine="rads")
            assert result.embedding_count == len(
                full_embeddings(snapshots[-1], tri)
            )
            assert client.unregister(watch) is True

    def test_ingest_errors_and_connection_survival(self, graph, server):
        present = _present(graph)
        with connect(server.address, timeout=60) as client:
            with pytest.raises(ServiceError, match="already present"):
                client.ingest(additions=[present[0]])
            with pytest.raises(ServiceError, match="additions.*deletions"):
                client.ingest()
            with pytest.raises(ServiceError, match="unknown 'watch'"):
                client.poll("w99")
            assert client.ping()

    def test_push_mode_subscribe(self, graph, server):
        absent = _absent(graph)
        with connect(server.address, timeout=60) as ingester, \
                connect(server.address, timeout=60) as subscriber:
            got = []
            subscription = subscriber.subscribe("a-b, b-c, c-a")

            def consume():
                for record in subscription:
                    got.append(record)
                    if len(got) >= 2:
                        break

            thread = threading.Thread(target=consume, daemon=True)
            thread.start()
            _poll_until(
                lambda: server.streams.stats()["watches"]
                and server.streams.stats()["watches"][0]["push"],
                message="push sink attached",
            )
            ingester.ingest(additions=absent[:2])
            ingester.ingest(additions=absent[2:4])
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert [r.version for r in got] == [1, 2]
            subscription.close()
            # Closing unregistered the watch server-side.
            assert server.streams.stats()["watches"] == []

    def test_cache_invalidation_by_version(self, graph, server):
        with connect(server.address, timeout=60) as client:
            client.submit("triangle", engine="rads")
            client.submit("triangle", engine="rads")
            assert client.last_cache == "hit"
            client.ingest(additions=[_absent(graph)[0]])
            # The old version's entries are unreachable and evicted.
            client.submit("triangle", engine="rads")
            assert client.last_cache == "miss"
            stats = client.stats()
            assert stats["cache"]["invalidations"] >= 1

    def test_metrics_and_request_log_replay(self, graph, server):
        with connect(server.address, timeout=60) as client:
            info = client.register("a-b, b-c, c-a")
            client.ingest(additions=[_absent(graph)[0]])
            metrics = client.metrics()
            assert metrics["graph_version"] == 1
            assert metrics["streaming"]["batches"] == 1
            assert metrics["streaming"]["delta_records"] == 1
            client.unregister(info["watch"])
        server.close()
        # Satellite 2: the request log replays delta records as typed
        # objects alongside RunResults/QueryExplanations.
        records = read_records_jsonl(server._log_path)
        deltas = [r for r in records if isinstance(r, DeltaRecord)]
        assert len(deltas) == 1
        assert deltas[0].version == 1


# ----------------------------------------------------------------------
# Acceptance: parity through the socket backend + crash/replacement
# ----------------------------------------------------------------------
class TestSocketBackendStreaming:
    def test_deltas_stay_correct_across_crash_and_replacement(self, graph):
        registry = ShardRegistry()
        batches = _batches(graph)
        tri = parse_pattern(PATTERNS["triangle"])
        w1 = ShardWorker().start()
        registry.announce(w1.address, graphs=w1.fingerprints())
        w2 = None
        config = RunConfig(machines=3, backend="socket")
        with QueryServer(
            graph, config, threads=1, verify_deltas=True,
            shard_registry=registry,
        ) as server:
            try:
                with connect(server.address, timeout=60) as client:
                    info = client.register("a-b, b-c, c-a")
                    watch = info["watch"]
                    # Batch 1 with a healthy roster; the submit runs on
                    # the shard worker against the new snapshot.
                    adds, dels = batches["additions"]
                    client.ingest(additions=adds)
                    g1 = graph.apply_batch(additions=adds)
                    [d1] = client.poll(watch)
                    f0, f1 = (
                        full_embeddings(graph, tri),
                        full_embeddings(g1, tri),
                    )
                    assert set(d1.added) == f1 - f0
                    assert set(d1.removed) == f0 - f1
                    first = client.submit("triangle", engine="rads")
                    assert first.embedding_count == len(f1)

                    # Kill the worker (no withdraw): the continuous
                    # query keeps firing — deltas never needed the
                    # shard roster.
                    w1.crash()
                    adds, dels = batches["deletions"]
                    client.ingest(deletions=dels)
                    g2 = g1.apply_batch(deletions=dels)
                    [d2] = client.poll(watch)
                    f2 = full_embeddings(g2, tri)
                    assert set(d2.added) == f2 - f1
                    assert set(d2.removed) == f1 - f2

                    # A replacement announces into the running server;
                    # ingest keeps going and the next submit (served by
                    # the new worker) agrees with the latest snapshot.
                    w2 = ShardWorker(
                        announce=server.address, announce_interval=60.0
                    ).start()
                    _poll_until(
                        lambda: registry.announces(
                            "%s:%d" % w2.address
                        ) >= 1,
                        message="replacement announced",
                    )
                    adds, dels = batches["mixed"]
                    client.ingest(additions=adds, deletions=dels)
                    g3 = g2.apply_batch(additions=adds, deletions=dels)
                    [d3] = client.poll(watch)
                    f3 = full_embeddings(g3, tri)
                    assert set(d3.added) == f3 - f2
                    assert set(d3.removed) == f2 - f3
                    second = client.submit("triangle", engine="rads")
                    assert second.embedding_count == len(f3)
            finally:
                w1.close()
                if w2 is not None:
                    w2.close()

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_socket_backend_parity_per_pattern(self, graph, name):
        registry = ShardRegistry()
        worker = ShardWorker().start()
        registry.announce(worker.address, graphs=worker.fingerprints())
        config = RunConfig(machines=3, backend="socket")
        dsl = PATTERNS[name]
        pattern = parse_pattern(dsl)
        try:
            with QueryServer(
                graph, config, threads=1, verify_deltas=True,
                shard_registry=registry,
            ) as server:
                with connect(server.address, timeout=60) as client:
                    info = client.register(dsl)
                    snapshot = graph
                    for kind, (adds, dels) in _batches(graph).items():
                        client.ingest(
                            additions=adds or None, deletions=dels or None
                        )
                        new = snapshot.apply_batch(
                            additions=adds, deletions=dels
                        )
                        [delta] = client.poll(info["watch"])
                        old_full = full_embeddings(snapshot, pattern)
                        new_full = full_embeddings(new, pattern)
                        assert set(delta.added) == new_full - old_full
                        assert set(delta.removed) == old_full - new_full
                        # The distributed engine agrees with the local
                        # recount on the freshly shipped snapshot.
                        result = client.submit(dsl, engine="rads")
                        assert result.embedding_count == len(new_full)
                        snapshot = new
        finally:
            worker.close()


# ----------------------------------------------------------------------
# Session API: watch / ingest / rebind
# ----------------------------------------------------------------------
class TestSessionStreaming:
    def test_watch_ingest_rebind(self, graph):
        tri = parse_pattern(PATTERNS["triangle"])
        with repro.open(graph).with_cluster(machines=3) as session:
            session.engine("rads").query("triangle")
            before = session.run().embedding_count
            watch = session.watch("triangle")
            adds = _absent(graph)[:10]
            report = session.ingest(additions=adds)
            assert report["version"] == 1
            new = graph.apply_batch(additions=adds)
            [delta] = watch.poll()
            old_full, new_full = (
                full_embeddings(graph, tri),
                full_embeddings(new, tri),
            )
            assert set(delta.added) == new_full - old_full
            assert before == len(old_full)
            # The session rebound: graph property and runs see v1.
            assert session.graph.fingerprint() == new.fingerprint()
            assert session.run().embedding_count == len(new_full)
            assert session.unwatch(watch) is True
            assert session.unwatch(watch) is False

    @pytest.mark.parametrize("backend", ["socket", "process"])
    def test_ingest_merges_locally_whatever_the_backend(self, graph, backend):
        tri = parse_pattern(PATTERNS["triangle"])
        session = repro.open(graph).with_cluster(machines=2)
        if backend == "socket":  # nothing listens there
            session.backend("socket", shards=["127.0.0.1:9"])
        else:
            session.backend("process", workers=2)
        with session:
            watch = session.watch("triangle")
            adds = _absent(graph)[:10]
            assert session.ingest(additions=adds)["version"] == 1
            # No executor was built (no dial, no pool) for the merge.
            assert session._executor is None
            new = graph.apply_batch(additions=adds)
            [delta] = watch.poll()
            assert set(delta.added) == (
                full_embeddings(new, tri) - full_embeddings(graph, tri)
            )

    def test_labeled_sessions_refuse_streaming(self, graph):
        labeled = LabeledGraph(graph, [0] * graph.num_vertices)
        with repro.open(labeled) as session:
            with pytest.raises(ValueError, match="unlabeled"):
                session.ingest(additions=[(0, 1)])
            with pytest.raises(ValueError, match="unlabeled"):
                session.watch("a-b, b-c, c-a")


# ----------------------------------------------------------------------
# CLI: repro ingest / repro subscribe
# ----------------------------------------------------------------------
class TestStreamingCLI:
    def test_ingest_round_trip_and_json(self, graph, server, capsys):
        host, port = server.address
        a, b = _absent(graph)[0]
        c, d = _absent(graph)[1]
        assert cli_main([
            "ingest", "--host", host, "--port", str(port),
            "--add", f"{a}-{b},{c}-{d}",
        ]) == 0
        out = capsys.readouterr().out
        assert "version 1" in out and "+2" in out
        assert cli_main([
            "ingest", "--host", host, "--port", str(port),
            "--delete", f"{a}-{b}", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["batch"] == {"additions": 0, "deletions": 1}

    def test_ingest_rejects_bad_edge_specs(self, graph, server):
        host, port = server.address
        with pytest.raises(SystemExit, match="u-v"):
            cli_main(["ingest", "--host", host, "--port", str(port),
                      "--add", "zap"])
        with pytest.raises(SystemExit, match="--add"):
            cli_main(["ingest", "--host", host, "--port", str(port)])

    def test_subscribe_streams_deltas(self, graph, server):
        host, port = server.address
        absent = _absent(graph)

        def ingest_later():
            _poll_until(
                lambda: server.streams.stats()["watches"],
                message="subscriber registered",
            )
            with connect(server.address, timeout=30) as client:
                client.ingest(additions=absent[:1])
                client.ingest(additions=absent[1:2])

        thread = threading.Thread(target=ingest_later, daemon=True)
        thread.start()
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = cli_main([
                "subscribe", "--host", host, "--port", str(port),
                "--query", "a-b, b-c, c-a", "--count", "2", "--json",
            ])
        thread.join(timeout=30)
        assert rc == 0
        lines = [
            json.loads(line)
            for line in buffer.getvalue().splitlines() if line.strip()
        ]
        assert [line["version"] for line in lines] == [1, 2]
        assert all(line["kind"] == "delta" for line in lines)

    def test_subscribe_timeout_with_no_deltas_exits(self, graph, server):
        host, port = server.address
        with pytest.raises(SystemExit):
            cli_main([
                "subscribe", "--host", host, "--port", str(port),
                "--query", "triangle", "--timeout", "0.5",
            ])


# ----------------------------------------------------------------------
# Satellite 2: DeltaRecord JSONL round-trips
# ----------------------------------------------------------------------
class TestDeltaRecordJSONL:
    def test_jsonl_round_trip_mixed_with_run_results(self, tmp_path):
        from repro.engines.base import RunResult

        record = DeltaRecord(
            pattern_name="triangle",
            pattern="a-b, b-c, c-a",
            version=3,
            graph_fingerprint="f" * 64,
            added_count=2,
            removed_count=1,
            added=[(0, 1, 2), (3, 4, 5)],
            removed=[(6, 7, 8)],
            batch={"additions": 2, "deletions": 1},
            watch="w1",
            tenant="acme",
        )
        run = RunResult(
            engine="RADS", pattern_name="triangle", embedding_count=9,
            makespan=0.1, total_comm_bytes=0, peak_memory=0,
            per_machine_time=[0.1],
        )
        path = tmp_path / "log.jsonl"
        append_record_jsonl(run, path)
        append_record_jsonl(record, path)
        replayed = read_records_jsonl(path)
        assert isinstance(replayed[0], RunResult)
        assert isinstance(replayed[1], DeltaRecord)
        assert replayed[1] == record
        assert replayed[1].added == [(0, 1, 2), (3, 4, 5)]

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="delta"):
            DeltaRecord.from_dict({"kind": "result"})
