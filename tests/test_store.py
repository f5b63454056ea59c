"""Tests for the persistent indexed embedding store (ROADMAP PR 8).

Covers the columnar trie (flatten/rebuild round-trips against the
Sec. 5 embedding trie, order-based range indexes), the on-disk
:class:`~repro.store.EmbeddingStore` (atomic writes, restart
round-trips, fingerprint invalidation), ``collect="store"`` through the
scheduler / server / session, the ``page``/``lookup``/``aggregate``
protocol ops, and the disk-tier fix to ``ResultCache.evict_graph``.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api import RunConfig, read_records_jsonl, record_from_dict
from repro.core.embedding_trie import NODE_BYTES, trie_nodes_for_results
from repro.engines.base import RunResult
from repro.graph import erdos_renyi
from strategies import random_connected_pattern
from repro.service import QueryScheduler, QueryServer, ResultCache, connect
from repro.service.cache import cache_key, key_digest
from repro.store import (
    STORE_HIT_COUNTER,
    EmbeddingStore,
    TrieColumns,
    pattern_orbits,
)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.12, seed=17)


def triangle(name="triangle"):
    return repro.pattern("a-b, b-c, c-a").copy_with_name(name)


def _result(pattern, embeddings, **overrides):
    fields = dict(
        engine="RADS",
        pattern_name=pattern.name,
        embedding_count=len(embeddings),
        makespan=1.5,
        total_comm_bytes=10,
        peak_memory=20,
        per_machine_time=[1.0, 1.5],
        embeddings=list(embeddings),
    )
    fields.update(overrides)
    return RunResult(**fields)


def _enumerated(graph, pattern):
    """Reference answer: a plain collect=True run, sorted and deduplicated."""
    result = (
        repro.open(graph).with_cluster(machines=2)
        .engine("RADS").query(pattern).run(collect=True)
    )
    return sorted(set(map(tuple, result.embeddings)))


# ----------------------------------------------------------------------
# Columnar trie
# ----------------------------------------------------------------------
class TestTrieColumns:
    EMBS = [(0, 1, 2), (0, 1, 9), (0, 9, 11), (3, 4, 5), (0, 1, 2)]

    def test_decompress_all_is_sorted_dedup(self):
        columns = TrieColumns.from_embeddings(self.EMBS, 3)
        assert columns.decompress_all() == sorted(set(self.EMBS))
        assert columns.leaf_count == 4

    def test_node_count_matches_reference_trie_size(self):
        columns = TrieColumns.from_embeddings(self.EMBS, 3)
        assert columns.node_count == trie_nodes_for_results(
            sorted(set(self.EMBS))
        )
        assert columns.memory_bytes() == columns.node_count * NODE_BYTES

    def test_every_page_is_a_contiguous_slice(self):
        columns = TrieColumns.from_embeddings(self.EMBS, 3)
        want = sorted(set(self.EMBS))
        for offset in range(len(want) + 2):
            for limit in range(1, len(want) + 2):
                assert columns.decompress_range(offset, limit) == (
                    want[offset:offset + limit]
                )
        assert columns.decompress_range(1) == want[1:]

    #: Hub-heavy: vertex HUB closes 300 embeddings, so it owns 300
    #: deepest-level nodes, and opens or sits inside a few more.
    HUB = 7
    HUB_EMBS = (
        [(10 + i, 400 + i, 7) for i in range(300)]
        + [(7, 1, 2), (7, 2, 1), (1, 7, 3), (3, 1, 2)]
    )

    def test_lookup_matches_brute_force(self):
        for embs in (self.EMBS, self.HUB_EMBS):
            columns = TrieColumns.from_embeddings(embs, 3)
            want = sorted(set(embs))
            vertices = {v for emb in want for v in emb} | {-1, 13, 10_000}
            containing = columns.vertex_counts(range(3))
            for vertex in sorted(vertices):
                expect = [emb for emb in want if vertex in emb]
                assert columns.lookup(vertex) == expect
                assert containing.get(str(vertex), 0) == len(expect)
        # However many ranges match, they are expanded at once.
        hub = TrieColumns.from_embeddings(self.HUB_EMBS, 3)
        arange_calls = 0

        def count(frame, event, arg):
            nonlocal arange_calls
            if event == "c_call" and arg is np.arange:
                arange_calls += 1

        sys.setprofile(count)
        try:
            leaves = hub.lookup_leaves(self.HUB)
        finally:
            sys.setprofile(None)
        assert len(leaves) == 303
        assert arange_calls <= 1

    def test_aggregate_root_and_vertex_match_brute_force(self):
        columns = TrieColumns.from_embeddings(self.EMBS, 3)
        want = sorted(set(self.EMBS))
        # Group keys are strings: the dicts travel as JSON verbatim.
        assert columns.vertex_counts([0]) == {
            str(k): v for k, v in Counter(emb[0] for emb in want).items()
        }
        assert columns.vertex_counts(range(3)) == {
            str(k): v
            for k, v in Counter(v for emb in want for v in emb).items()
        }
        assert columns.vertex_counts([]) == {}

    def test_from_arrays_round_trip(self):
        columns = TrieColumns.from_embeddings(self.EMBS, 3)
        rebuilt = TrieColumns.from_arrays(columns.values, columns.parents)
        assert rebuilt.decompress_all() == columns.decompress_all()
        assert rebuilt.node_count == columns.node_count

    def test_from_arrays_rejects_malformed_parents(self):
        columns = TrieColumns.from_embeddings(self.EMBS, 3)
        bad = [np.array(level) for level in columns.parents]
        bad[1] = bad[1][::-1].copy()  # not nondecreasing
        with pytest.raises(ValueError):
            TrieColumns.from_arrays(columns.values, bad)

    def test_empty_set(self):
        columns = TrieColumns.from_embeddings([], 3)
        assert columns.decompress_all() == []
        assert columns.node_count == 0
        assert columns.lookup(0) == []
        assert columns.vertex_counts([0]) == {}


# ----------------------------------------------------------------------
# Flatten/rebuild round-trips against the Sec. 5 trie as a set of prefixes
# ----------------------------------------------------------------------
class TestTrieRoundTrip:
    def _check_round_trip(self, embeddings, num_vertices):
        columns = TrieColumns.from_embeddings(embeddings, num_vertices)
        rows = columns.decompress_all()
        assert rows == sorted(set(map(tuple, embeddings)))
        if not rows:
            return
        # Node and byte accounting agree with the set of prefixes.
        children = defaultdict(set)
        for row in rows:
            for depth in range(columns.depth):
                children[row[:depth]].add(row[depth])
        assert columns.node_count == sum(map(len, children.values()))
        assert columns.memory_bytes() == columns.node_count * NODE_BYTES
        # Child counts agree level by level, in sorted-prefix order.
        for level in range(columns.depth - 1):
            want = [
                len(kids) for prefix, kids in sorted(children.items())
                if len(prefix) == level + 1
            ]
            got = np.bincount(
                columns.parents[level + 1], minlength=len(columns.values[level])
            )
            assert got.tolist() == want

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.integers(0, 30), min_size=3, max_size=3, unique=True
            ).map(tuple),
            max_size=40,
        )
    )
    def test_random_paths_round_trip(self, rows):
        self._check_round_trip(rows, 3)

    @settings(max_examples=30, deadline=None)
    @given(
        num_vertices=st.integers(3, 5),
        extra_edges=st.integers(0, 3),
        seed=st.integers(0, 1000),
    )
    def test_pattern_gen_embeddings_round_trip(
        self, num_vertices, extra_edges, seed
    ):
        pattern = random_connected_pattern(
            num_vertices, extra_edges, seed=seed
        )
        graph = erdos_renyi(20, 0.25, seed=5)
        embeddings = _enumerated(graph, pattern)
        self._check_round_trip(embeddings, pattern.num_vertices)


# ----------------------------------------------------------------------
# EmbeddingStore persistence
# ----------------------------------------------------------------------
class TestEmbeddingStore:
    def _put(self, store, graph, pattern, *, engine="RADS"):
        key = cache_key(
            graph, pattern, engine, RunConfig(), collect="store"
        )
        embeddings = _enumerated(graph, pattern)
        store.put(key, pattern, _result(pattern, embeddings))
        return key, embeddings

    def test_restart_serves_byte_identical_pages(self, graph, tmp_path):
        pattern = triangle()
        first = EmbeddingStore(tmp_path / "store")
        key, embeddings = self._put(first, graph, pattern)
        reference = first.page(key, pattern, limit=7, offset=3)
        # A brand-new store over the same directory (a restarted server).
        second = EmbeddingStore(tmp_path / "store")
        served = second.page(key, pattern, limit=7, offset=3)
        assert served == reference
        assert served["embeddings"] == embeddings[3:10]
        assert served["total"] == len(embeddings)

    def test_result_for_strips_embeddings_and_counts_hit(
        self, graph, tmp_path
    ):
        pattern = triangle()
        store = EmbeddingStore(tmp_path)
        key, embeddings = self._put(store, graph, pattern)
        served = store.result_for(key, pattern)
        assert served.embeddings is None
        assert served.embedding_count == len(embeddings)
        assert served.counters[STORE_HIT_COUNTER] == 1

    def test_isomorphic_rewrite_hits_the_same_set(self, graph, tmp_path):
        store = EmbeddingStore(tmp_path)
        key, embeddings = self._put(store, graph, triangle())
        rewrite = repro.pattern("c-a, a-b, b-c").copy_with_name("rewrite")
        rewrite_key = cache_key(
            graph, rewrite, "RADS", RunConfig(), collect="store"
        )
        assert rewrite_key == key
        page = store.page(rewrite_key, rewrite, limit=len(embeddings))
        # Same matches as enumerating the rewrite directly (the sorted
        # order is the *stored* pattern's leaf order).
        assert sorted(page["embeddings"]) == _enumerated(graph, rewrite)

    def test_lookup_and_orbit_aggregate(self, graph, tmp_path):
        pattern = triangle()
        store = EmbeddingStore(tmp_path)
        key, embeddings = self._put(store, graph, pattern)
        vertex = embeddings[0][0]
        found = store.lookup(key, pattern, vertex)
        assert found["embeddings"] == [
            emb for emb in embeddings if vertex in emb
        ]
        assert found["count"] == len(found["embeddings"])
        # All three triangle positions are one automorphism orbit.
        assert pattern_orbits(pattern) == [(0, 1, 2)]
        agg = store.aggregate(key, pattern, "orbit")
        assert set(agg["groups"]) == {"0,1,2"}
        assert agg["groups"]["0,1,2"] == {
            str(k): v
            for k, v in Counter(v for emb in embeddings for v in emb).items()
        }

    def test_evict_graph_unlinks_files_by_fingerprint(self, graph, tmp_path):
        store = EmbeddingStore(tmp_path)
        key, _ = self._put(store, graph, triangle())
        other = erdos_renyi(30, 0.2, seed=9)
        other_key, _ = self._put(store, other, triangle())
        assert len(list(tmp_path.glob("*.npz"))) == 2
        assert store.evict_graph(graph.fingerprint()) == 1
        assert store.get(key) is None
        assert store.get(other_key) is not None
        assert len(list(tmp_path.glob("*.npz"))) == 1
        assert store.invalidations == 1

    def test_corrupt_file_is_a_miss_not_a_crash(self, graph, tmp_path):
        store = EmbeddingStore(tmp_path)
        key, _ = self._put(store, graph, triangle())
        [path] = tmp_path.glob("*.npz")
        path.write_bytes(b"not an npz payload")
        fresh = EmbeddingStore(tmp_path)
        assert fresh.get(key) is None
        assert fresh.errors == 1

    def test_put_rejects_uncollected_and_failed_runs(self, graph, tmp_path):
        pattern = triangle()
        store = EmbeddingStore(tmp_path)
        key = cache_key(
            graph, pattern, "RADS", RunConfig(), collect="store"
        )
        uncollected = _result(pattern, [])
        uncollected.embeddings = None
        with pytest.raises(ValueError):
            store.put(key, pattern, uncollected)
        with pytest.raises(ValueError):
            store.put(
                key,
                pattern,
                _result(
                    pattern,
                    [(0, 1, 2)],
                    failed=True,
                    failure="oom on machine 0",
                ),
            )


# ----------------------------------------------------------------------
# Scheduler: collect="store" submissions and indexed reads
# ----------------------------------------------------------------------
class TestSchedulerStore:
    def test_store_submission_then_hit(self, graph, tmp_path):
        with QueryScheduler(
            graph,
            RunConfig(machines=2),
            threads=2,
            store=EmbeddingStore(tmp_path),
        ) as scheduler:
            first = scheduler.submit("triangle", "RADS", collect="store")
            result = first.result(30)
            assert first.store == "stored"
            assert result.embeddings is None
            second = scheduler.submit("triangle", "RADS", collect="store")
            served = second.result(30)
            assert second.store == "hit"
            assert served.embedding_count == result.embedding_count
            assert served.counters[STORE_HIT_COUNTER] == 1
            stats = scheduler.stats()
            assert stats["store_hits"] == 1
            assert stats["store_stored"] == 1
            assert stats["store"]["sets"] == 1

    def test_stored_set_equals_plain_enumeration(self, graph, tmp_path):
        store = EmbeddingStore(tmp_path)
        with QueryScheduler(
            graph, RunConfig(machines=2), threads=2, store=store
        ) as scheduler:
            scheduler.submit("q1", "RADS", collect="store").result(30)
            plain = scheduler.submit("q1", "RADS", collect=True).result(30)
            page = scheduler.page("q1", "RADS", limit=10 ** 6)
        assert page["embeddings"] == sorted(set(map(tuple, plain.embeddings)))
        assert page["store"] == "hit"

    def test_store_mode_without_a_store_is_rejected(self, graph):
        with QueryScheduler(graph, RunConfig(machines=2)) as scheduler:
            with pytest.raises(ValueError, match="store-dir|store"):
                scheduler.submit("triangle", "RADS", collect="store")

    def test_reads_before_any_store_run_raise_lookup_error(
        self, graph, tmp_path
    ):
        with QueryScheduler(
            graph,
            RunConfig(machines=2),
            store=EmbeddingStore(tmp_path),
        ) as scheduler:
            with pytest.raises(LookupError, match="collect='store'"):
                scheduler.page("triangle", "RADS", limit=5)
            with pytest.raises(LookupError):
                scheduler.lookup("triangle", "RADS", vertex=0)
            with pytest.raises(LookupError):
                scheduler.aggregate("triangle", "RADS", group_by="root")

    def test_truthy_non_bool_collect_is_rejected(self, graph):
        with QueryScheduler(graph, RunConfig(machines=2)) as scheduler:
            with pytest.raises(Exception, match="collect"):
                scheduler.submit("triangle", "RADS", collect=1)


# ----------------------------------------------------------------------
# Engine x catalogue parity: stored sets equal plain enumeration
# ----------------------------------------------------------------------
ENGINES = [
    "RADS", "PSgL", "TwinTwig", "SEED", "Crystal",
    "BigJoin", "Multiway", "Replication", "Single",
]
QUERIES = ["triangle", "q1", "q4", "star3"]


class TestEngineCatalogueParity:
    @pytest.fixture(scope="class")
    def small_graph(self):
        return erdos_renyi(30, 0.18, seed=7)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("query", QUERIES)
    def test_full_decompression_equals_collect_true(
        self, small_graph, tmp_path, engine, query
    ):
        session = (
            repro.open(small_graph)
            .with_cluster(machines=2)
            .with_store(tmp_path)
            .engine(engine)
            .query(query)
        )
        stored = session.run(collect="store")
        plain = session.run(collect=True)
        page = session.page(limit=max(1, stored.embedding_count))
        assert page["total"] == plain.embedding_count
        assert page["embeddings"] == sorted(
            set(map(tuple, plain.embeddings))
        )


# ----------------------------------------------------------------------
# Server: wire ops, restart, request log
# ----------------------------------------------------------------------
class TestServerStore:
    def test_submit_page_lookup_aggregate_over_the_wire(
        self, graph, tmp_path
    ):
        with QueryServer(
            graph,
            RunConfig(machines=2),
            threads=2,
            store_dir=str(tmp_path / "store"),
            log_path=str(tmp_path / "requests.jsonl"),
        ).start() as server:
            with connect(server.address, timeout=60) as client:
                first = client.submit("triangle", collect="store")
                assert client.last_store == "stored"
                assert first.embeddings is None
                client.submit("triangle", collect="store")
                assert client.last_store == "hit"
                page = client.page("triangle", limit=5, offset=2)
                found = client.lookup(
                    "triangle", vertex=page["embeddings"][0][0]
                )
                agg = client.aggregate("triangle", group_by="root")
                metrics = client.metrics()
        assert page["store"] == "hit" and len(page["embeddings"]) == 5
        assert found["count"] >= 1
        assert sum(agg["groups"].values()) == first.embedding_count
        assert metrics["store"]["sets"] == 1
        # The request log replays: store reads come back as plain dicts
        # tagged with their kind (no embedding payload).
        records = read_records_jsonl(tmp_path / "requests.jsonl")
        kinds = [r["kind"] for r in records if isinstance(r, dict)]
        assert kinds == ["page", "lookup", "aggregate"]
        assert all(
            "embeddings" not in r for r in records if isinstance(r, dict)
        )

    def test_restart_serves_identical_pages_from_disk(self, graph, tmp_path):
        store_dir = str(tmp_path / "store")
        with QueryServer(
            graph, RunConfig(machines=2), store_dir=store_dir
        ).start() as server:
            with connect(server.address, timeout=60) as client:
                client.submit("triangle", collect="store")
                reference = client.page("triangle", limit=6, offset=1)
        with QueryServer(
            graph, RunConfig(machines=2), store_dir=store_dir
        ).start() as server:
            with connect(server.address, timeout=60) as client:
                served = client.page("triangle", limit=6, offset=1)
                client.submit("triangle", collect="store")
                assert client.last_store == "hit"
        assert served == reference

    def test_ingest_invalidates_stored_sets(self, tmp_path):
        graph = erdos_renyi(40, 0.15, seed=23)
        missing = next(
            (u, v)
            for u in range(40)
            for v in range(u + 1, 40)
            if v not in graph.neighbors(u)
        )
        with QueryServer(
            graph, RunConfig(machines=2), store_dir=str(tmp_path)
        ).start() as server:
            with connect(server.address, timeout=60) as client:
                client.submit("triangle", collect="store")
                client.page("triangle", limit=1)
                client.ingest(additions=[missing])
                with pytest.raises(Exception, match="no stored set"):
                    client.page("triangle", limit=1)
        assert list(tmp_path.glob("*.npz")) == []

    def test_wire_validation(self, graph, tmp_path):
        from repro.service.client import ServiceError

        with QueryServer(
            graph, RunConfig(machines=2), store_dir=str(tmp_path)
        ).start() as server:
            with connect(server.address, timeout=60) as client:
                with pytest.raises(ServiceError, match="limit"):
                    client.page("triangle", limit=0)
                with pytest.raises(ServiceError, match="offset"):
                    client.page("triangle", limit=1, offset=-1)
                with pytest.raises(ServiceError, match="vertex"):
                    client.lookup("triangle", vertex=-3)
                with pytest.raises(ServiceError, match="group_by"):
                    client.aggregate("triangle", group_by="median")
                with pytest.raises(ServiceError, match="collect"):
                    client.submit("triangle", collect=1)

    def test_store_ops_without_a_store_dir_fail_cleanly(self, graph):
        from repro.service.client import ServiceError

        with QueryServer(graph, RunConfig(machines=2)).start() as server:
            with connect(server.address, timeout=60) as client:
                with pytest.raises(ServiceError, match="store"):
                    client.submit("triangle", collect="store")
                with pytest.raises(ServiceError, match="store"):
                    client.page("triangle", limit=1)

    def test_store_and_store_dir_are_mutually_exclusive(self, graph, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            QueryServer(
                graph,
                store=EmbeddingStore(tmp_path),
                store_dir=str(tmp_path),
            )


# ----------------------------------------------------------------------
# Session: with_store / run(collect="store") / indexed reads
# ----------------------------------------------------------------------
class TestSessionStore:
    def test_run_store_mode_round_trip(self, graph, tmp_path):
        session = (
            repro.open(graph).with_store(tmp_path)
            .engine("RADS").query("triangle")
        )
        stored = session.run(collect="store")
        assert stored.embeddings is None
        again = session.run(collect="store")
        assert again.counters[STORE_HIT_COUNTER] == 1
        want = _enumerated(graph, triangle())
        assert session.page(limit=4, offset=1)["embeddings"] == want[1:5]
        vertex = want[0][0]
        assert session.lookup(vertex)["embeddings"] == [
            emb for emb in want if vertex in emb
        ]
        assert session.aggregate("root")["groups"] == {
            str(k): v for k, v in Counter(emb[0] for emb in want).items()
        }

    def test_reads_need_a_store_and_a_stored_set(self, graph, tmp_path):
        session = repro.open(graph).engine("RADS").query("triangle")
        with pytest.raises(RuntimeError, match="with_store"):
            session.page(limit=1)
        session.with_store(tmp_path)
        with pytest.raises(LookupError, match="collect='store'"):
            session.page(limit=1)

    def test_store_mode_without_a_store_is_rejected(self, graph):
        session = repro.open(graph).engine("RADS").query("triangle")
        with pytest.raises(RuntimeError, match="with_store"):
            session.run(collect="store")

    def test_config_collect_store_applies_to_plain_run(self, graph, tmp_path):
        session = (
            repro.open(graph).configure(collect="store")
            .with_store(tmp_path).engine("RADS").query("triangle")
        )
        assert session.run().embeddings is None
        assert session.page(limit=1)["total"] > 0

    def test_ingest_evicts_the_old_snapshot(self, tmp_path):
        graph = erdos_renyi(40, 0.15, seed=23)
        missing = next(
            (u, v)
            for u in range(40)
            for v in range(u + 1, 40)
            if v not in graph.neighbors(u)
        )
        session = (
            repro.open(graph).with_store(tmp_path)
            .engine("RADS").query("triangle")
        )
        session.run(collect="store")
        session.ingest(additions=[missing])
        with pytest.raises(LookupError):
            session.page(limit=1)
        assert session._store.invalidations == 1
        # Re-storing against the new snapshot works.
        session.run(collect="store")
        assert session.page(limit=1)["total"] > 0

    def test_serve_shares_the_session_store(self, graph, tmp_path):
        session = repro.open(graph).with_store(tmp_path)
        server = session.serve(port=0, start=False)
        try:
            assert server.store is session._store
        finally:
            server.close()


# ----------------------------------------------------------------------
# ResultCache.evict_graph also unlinks disk spills (PR 8 fix)
# ----------------------------------------------------------------------
class TestCacheEvictGraphDiskTier:
    def test_disk_spills_are_unlinked_by_fingerprint(self, tmp_path):
        p = triangle()
        cache = ResultCache(disk_dir=tmp_path)
        cache.put(("fp-a", "x"), p, _result(p, [(1, 2, 3)]))
        cache.put(("fp-b", "y"), p, _result(p, [(4, 5, 6)]))
        assert len(list(tmp_path.glob("*.json"))) == 2
        # One memory entry + one spill file for fp-a, both invalidated.
        assert cache.evict_graph("fp-a") == 2
        assert cache.invalidations == 2
        assert cache.get(("fp-a", "x"), p) is None
        assert cache.get(("fp-b", "y"), p) is not None
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_stale_spill_cannot_survive_a_restart(self, tmp_path):
        p = triangle()
        first = ResultCache(capacity=1, disk_dir=tmp_path)
        first.put(("fp-a", "x"), p, _result(p, [(1, 2, 3)]))
        first.evict_graph("fp-a")
        # A restarted cache over the same directory has nothing to serve
        # for the evicted fingerprint.
        second = ResultCache(disk_dir=tmp_path)
        assert second.get(("fp-a", "x"), p) is None

    def test_unreadable_spill_counts_as_disk_error(self, tmp_path):
        p = triangle()
        cache = ResultCache(disk_dir=tmp_path)
        cache.put(("fp-a", "x"), p, _result(p, [(1, 2, 3)]))
        digest = key_digest(("fp-a", "x"))
        (tmp_path / f"{digest}.json").write_text("{broken json")
        assert cache.evict_graph("fp-a") == 1  # the memory entry
        assert cache.disk_errors == 1


# ----------------------------------------------------------------------
# Record-log replay of store reads
# ----------------------------------------------------------------------
class TestStoreReadRecords:
    def test_store_read_kinds_pass_through_as_dicts(self):
        record = {
            "kind": "page", "query": "triangle", "engine": "RADS",
            "total": 9, "offset": 0, "limit": 5, "store": "hit",
        }
        assert record_from_dict(record) is record

    def test_unknown_kind_still_raises(self):
        with pytest.raises(ValueError, match="unrecognised"):
            record_from_dict({"kind": "mystery"})
